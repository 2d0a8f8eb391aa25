"""In-memory span tracing and call counting around the parbelos modules.

The tracer measures each layer from outside: it replaces selected public
functions with timing or counting wrappers at every name a ``parbelos``
module imports them under (``from .euclid import pedal_point`` binds a
second name in the importing module), and puts the originals back on
``remove``.  Nothing under ``src/`` is edited.

A span is ``(name, start, end, parent, op)``: ``parent`` is the index of the
enclosing span (-1 for an op root) and ``op`` the id of the benchmark
operation it belongs to.  Spans stay in memory until :meth:`Tracer.dump`.
"""

from __future__ import annotations

import dataclasses
import importlib
import json
from collections import Counter
from fractions import Fraction
from time import perf_counter

LAYERS = ("rational", "euclid", "parabola", "theorems", "figure", "jsonio", "svg", "dsl", "fuzz", "cli")

FUZZ_RUNS = (
    "run_sondow_fuzz",
    "run_tangency_fuzz",
    "run_lambert_fuzz",
    "run_converse_lambert_fuzz",
    "run_proof_replay_fuzz",
    "run_invariance_fuzz",
    "run_latus_angle_fuzz",
    "run_ft_ht_fuzz",
)

# Functions timed as spans, by defining module.
SPANNED = {
    "figure": ("build_parbelos", "sondow_checks", "corollary_checks"),
    "jsonio": ("verification_json",),
    "svg": ("figure_scene", "render_svg", "bindings_scene"),
    "dsl": ("parse_script", "evaluate"),
    "theorems": ("converse_lambert", "lambert_circumcircle_check"),
    "fuzz": FUZZ_RUNS,
}

# Kernel functions called too often to time; only their calls are counted.
COUNTED = {
    "parabola": ("canonical_elements", "contains_point"),
    "rational": ("to_decimal_string",),
    "euclid": ("pedal_point", "line_intersection"),
}

# Layers that own spans, so have a self time.
SPAN_LAYERS = ("cli",) + tuple(SPANNED)


def coordinate_bits(value) -> int:
    """Largest bit length of any numerator, denominator or integer in ``value``."""
    if isinstance(value, Fraction):
        return max(abs(value.numerator).bit_length(), value.denominator.bit_length())
    if isinstance(value, int) and not isinstance(value, bool):
        return abs(value).bit_length()
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return max((coordinate_bits(getattr(value, f.name)) for f in dataclasses.fields(value)), default=0)
    if isinstance(value, (tuple, list)):
        return max((coordinate_bits(v) for v in value), default=0)
    return 0


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.op_tags: dict[int, str] = {}
        self.op_factors: dict[int, float] = {}
        self.input_bits = 0
        self.output_bits = 0
        self._stack: list[int] = []
        self._op = -1
        self._installed: list = []

    # -- recording ------------------------------------------------------

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(index)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self._op)

    def op(self, tag: str, fn, *args):
        """Run one benchmark operation as a root span tagged ``tag``.

        Operations are numbered from 0 in call order; ``op_factors[op]``, set
        by the caller, scales the durations of its spans when totalled (the
        host-speed scaling of the operation).
        """
        self._op += 1
        self.op_tags[self._op] = tag
        return self.call("bench.op", fn, *args)

    def _spanning(self, name: str, fn):
        def wrapper(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return wrapper

    def _counting(self, name: str, fn):
        def wrapper(*args, **kwargs):
            self.counts[name, self._op] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _building(self, name: str, fn):
        def wrapper(*args, **kwargs):
            self.input_bits = max(self.input_bits, coordinate_bits(args[:3]))
            fig = self.call(name, fn, *args, **kwargs)
            self.output_bits = max(self.output_bits, coordinate_bits(fig))
            return fig

        return wrapper

    # -- installing -----------------------------------------------------

    def install(self) -> None:
        modules = [importlib.import_module("parbelos")]
        modules += [importlib.import_module(f"parbelos.{layer}") for layer in LAYERS]
        targets = {}
        for table, make in ((SPANNED, self._spanning), (COUNTED, self._counting)):
            for layer, names in table.items():
                module = importlib.import_module(f"parbelos.{layer}")
                for fn_name in names:
                    original = getattr(module, fn_name, None)
                    if original is None:
                        continue  # a run_*_fuzz removed from the program reads as zero
                    name = f"{layer}.{fn_name}"
                    wrap = self._building if name == "figure.build_parbelos" else make
                    targets[id(original)] = (original, wrap(name, original))
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = targets.get(id(value))
                if hit is not None and hit[0] is value:
                    self._installed.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def remove(self) -> None:
        while self._installed:
            module, attr, original = self._installed.pop()
            setattr(module, attr, original)

    # -- reporting ------------------------------------------------------

    def op_ids(self, tag: str) -> set[int]:
        return {op for op, t in self.op_tags.items() if t == tag}

    def totals(self, ops: set[int]):
        """Scaled inclusive seconds, scaled self seconds and calls per span or
        counter name, over ``ops``."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        inclusive: Counter = Counter()
        exclusive: Counter = Counter()
        calls: Counter = Counter()
        for index, (name, start, end, _, op) in enumerate(self.spans):
            if op in ops:
                inclusive[name] += (end - start) * self.op_factors[op]
                exclusive[name] += (end - start - child[index]) * self.op_factors[op]
                calls[name] += 1
        for (name, op), n in self.counts.items():
            if op in ops:
                calls[name] += n
        return inclusive, exclusive, calls

    def dump(self, path, header: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({**header, "op_tags": self.op_tags, "op_factors": self.op_factors, "spans": self.spans}, handle)
