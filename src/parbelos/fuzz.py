"""Seeded randomized invariant suites over the exact kernel.

Each suite draws instances from a deterministic per-instance seed (so runs
are reproducible and identical whether executed serially or in parallel) and
checks an exact property: no tolerances, a single coordinate off by any
amount is a failure.  Generators keep every cusp coordinate's numerator and
denominator at most ``max_height`` (see :func:`height_scale`).  The suites
are the rows of :data:`SUITES`; :func:`run_suite` runs one of them.
"""

from __future__ import annotations

import math
import os
import random
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, fields
from fractions import Fraction
from typing import NamedTuple

from .errors import GeometryError
from .euclid import (
    Circle,
    Line,
    Point,
    _common,
    circle_through_points,
    dist_sq,
    equidistant,
    line_intersection,
    line_through,
    perpendicular_bisector,
    perpendicular_through,
)
from .figure import build_parbelos, corollary_checks, similarity, sondow_checks
from .parabola import (
    LEFT,
    RIGHT,
    Parabola,
    Side,
    is_tangent,
    parabola_from_latus_rectum,
    point_at_parameter,
    tangent_at,
)
from .theorems import _converse_chord, _converse_crossing, converse_lambert, lambert_circumcircle_check


@dataclass
class SuiteResult:
    name: str
    cases: int
    failures: list[str]

    @property
    def passed(self) -> bool:
        return not self.failures


def _case_rng(seed: int, index: int) -> random.Random:
    # Distinct stream per case; identical under serial and parallel execution.
    return random.Random(seed * 1_000_003 + index)


def rand_rational(rng: random.Random, max_num: int, max_den: int) -> Fraction:
    return Fraction(rng.randint(-max_num, max_num), rng.randint(1, max_den))


def rand_side(rng: random.Random) -> Side:
    return rng.choice((LEFT, RIGHT))


MIN_MAX_HEIGHT = 22


def height_scale(max_height: int) -> int:
    """Generator bound giving cusp coordinates of height <= max_height.

    With bound s a cusp coordinate is (p*q + n*d*q0) / (q0*q) for |p|, q0 <= s,
    n <= 4s, q <= 2s, |d| <= 5: numerator <= 2s^2 + 20s^2, denominator <= 2s^2,
    so s = isqrt(max_height)//5 keeps both under the cap.  The smallest bound,
    s = 1, reaches height 22, so a max_height below 22 (``MIN_MAX_HEIGHT``)
    raises ``ValueError``.
    """
    if max_height < MIN_MAX_HEIGHT:
        raise ValueError(f"max_height must be at least {MIN_MAX_HEIGHT}, got {max_height}")
    return max(1, math.isqrt(max_height) // 5)


def rand_cusps(rng: random.Random, scale: int = 20) -> tuple[Point, Point, Point, Side]:
    """Three collinear cusps on a random rational line, C2 strictly interior.

    The two steps along the line share one denominator so coordinate heights
    stay within the budget analyzed in :func:`height_scale`.  In its terms,
    with the base coordinate p/q0 and the step n/q along d, each coordinate
    of C2 and C3 is the one Fraction (p*q + n*d*q0) / (q0*q).
    """
    base = Point(rand_rational(rng, scale, scale), rand_rational(rng, scale, scale))
    while True:
        dx, dy = rng.randint(-5, 5), rng.randint(-5, 5)
        if (dx, dy) != (0, 0):
            break
    q = rng.randint(1, 2 * scale)
    n1 = rng.randint(1, 2 * scale)
    n2 = n1 + rng.randint(1, 2 * scale)
    (px, qx), (py, qy) = base.x.as_integer_ratio(), base.y.as_integer_ratio()
    c2, c3 = (
        Point(Fraction(px * q + n * dx * qx, qx * q), Fraction(py * q + n * dy * qy, qy * q))
        for n in (n1, n2)
    )
    return base, c2, c3, rand_side(rng)


def rand_parabola(rng: random.Random) -> Parabola:
    """Random parabola via a random latus rectum and opening side."""
    e1 = Point(rand_rational(rng, 30, 12), rand_rational(rng, 30, 12))
    while True:
        e2 = Point(rand_rational(rng, 30, 12), rand_rational(rng, 30, 12))
        if e2 != e1:
            break
    return parabola_from_latus_rectum(e1, e2, rand_side(rng))


def rand_distinct_parameters(rng: random.Random, count: int) -> list[Fraction]:
    values: set[Fraction] = set()
    while len(values) < count:
        values.add(rand_rational(rng, 24, 8))
    return sorted(values)


def _workers() -> int:
    return os.cpu_count() or 1


# --- individual cases (module level so they pickle for the process pool) ---


def _cusps(args: tuple[int, int, int]) -> tuple[int, random.Random, Point, Point, Point, Side]:
    """A case's index, its rng and the cusp triple drawn from it, the rng left
    just after the cusps for a case that draws more."""
    seed, index, scale = args
    rng = _case_rng(seed, index)
    return (index, rng, *rand_cusps(rng, scale))


def _parabola_points(
    args: tuple[int, int, int], count: int
) -> tuple[int, random.Random, Parabola, list[Fraction], list[Point]]:
    """A case's index, its rng, a parabola drawn from it, ``count`` distinct
    parameters in increasing order and the parabola's points at them."""
    seed, index, _scale = args
    rng = _case_rng(seed, index)
    parabola = rand_parabola(rng)
    params = rand_distinct_parameters(rng, count)
    return index, rng, parabola, params, [point_at_parameter(parabola, t) for t in params]


def _sondow_case(args: tuple[int, int, int]) -> list[str]:
    index, _, c1, c2, c3, side = _cusps(args)
    fig = build_parbelos(c1, c2, c3, side)
    failures = []
    for label, detail, ok in sondow_checks(fig) + corollary_checks(fig):
        if not ok:
            failures.append(f"case {index} ({c1} {c2} {c3} {side}): {detail}")
    return failures


def _tangency_case(args: tuple[int, int, int]) -> list[str]:
    index, _, parabola, (t1, t2), (p1, p2) = _parabola_points(args, 2)
    failures = []
    if not is_tangent(parabola, tangent_at(parabola, p1)):
        failures.append(f"case {index}: tangent at parameter {t1} not certified")
    if is_tangent(parabola, line_through(p1, p2)):
        failures.append(f"case {index}: secant through {t1}, {t2} certified tangent")
    return failures


def _lambert_case(args: tuple[int, int, int]) -> list[str]:
    index, _, parabola, params, points = _parabola_points(args, 3)
    tangents = [tangent_at(parabola, p) for p in points]
    report = lambert_circumcircle_check(parabola, *tangents)
    if not report.verdict:
        return [f"case {index}: focus off tangent-triangle circumcircle ({params})"]
    return []


def _converse_case(args: tuple[int, int, int]) -> list[str]:
    """Lambert's converse on 100 distinct circles of the pencil through the
    focus and the crossing I of two tangents.  The tangency preconditions are
    decided, and I found, once for the pair; each circle then runs the rest
    of ``converse_lambert``: focus and I on the circle, and the chord
    tangent.  A pencil parameter already drawn is skipped, so circle ``j`` is
    the ``j``-th distinct draw."""
    index, rng, parabola, _, (p1, p2) = _parabola_points(args, 2)
    l1, l2 = tangent_at(parabola, p1), tangent_at(parabola, p2)
    focus = parabola.focus
    crossing = _converse_crossing(parabola, l1, l2)
    params: dict[Fraction, None] = {}  # insertion-ordered set
    while len(params) < 100:
        params.setdefault(rand_rational(rng, 40, 12))
    failures = []
    for j, t in enumerate(params):
        circle = circle_through_points(focus, crossing, t)
        _, tangent, _ = _converse_chord(parabola, l1, l2, crossing, circle)
        if not tangent:
            failures.append(f"case {index}.{j}: converse output not tangent")
    return failures


def degenerate_converse_circle(parabola: Parabola, l1: Line, crossing: Point) -> Circle:
    """Circle through focus and crossing, tangent to l1 at the crossing.

    Its center sits on both the perpendicular to l1 at the crossing and the
    focus-crossing perpendicular bisector, which forces the second
    intersection with l1 to collapse onto the crossing point.  The two lines
    always cross: they would be parallel only if the focus were on l1, and
    the focus lies on no tangent.
    """
    center = line_intersection(
        perpendicular_through(l1, crossing),
        perpendicular_bisector(parabola.focus, crossing),
    )
    return Circle(center, dist_sq(center, crossing))


def _converse_degenerate_case(args: tuple[int, int, int]) -> list[str]:
    index, _, parabola, _, (p1, p2) = _parabola_points(args, 2)
    l1, l2 = tangent_at(parabola, p1), tangent_at(parabola, p2)
    crossing = line_intersection(l1, l2)
    circle = degenerate_converse_circle(parabola, l1, crossing)
    constructed, report = converse_lambert(parabola, l1, l2, circle)
    failures = []
    if not report.verdict:
        failures.append(f"case {index}: degenerate-branch output not tangent")
    if constructed != l2:
        failures.append(f"case {index}: degenerate branch should return the other tangent")
    return failures


def _replay_case(args: tuple[int, int, int]) -> list[str]:
    index, _, c1, c2, c3, side = _cusps(args)
    fig = build_parbelos(c1, c2, c3, side)
    constructed, report = converse_lambert(
        fig.outer, fig.tangent_at_C1, fig.tangent_at_C3, fig.circumcircle_K
    )
    failures = []
    if constructed != fig.diagonal:
        failures.append(f"case {index}: replayed chord {constructed} != diagonal {fig.diagonal}")
    if not report.verdict:
        failures.append(f"case {index}: replayed chord not tangent")
    return failures


def _invariance_case(args: tuple[int, int, int]) -> list[str]:
    """The figure of T(cusps) is T(figure of cusps), field by field, for z -> m*z + shift."""
    index, rng, c1, c2, c3, side = _cusps(args)
    while True:
        m = Point(rand_rational(rng, 12, 12), rand_rational(rng, 12, 12))
        if m.x or m.y:
            break
    shift = Point(rand_rational(rng, 30, 12), rand_rational(rng, 30, 12))
    t = similarity(m, shift)
    moved = build_parbelos(t(c1), t(c2), t(c3), side)
    expected = t(build_parbelos(c1, c2, c3, side))
    if moved != expected:
        names = [f.name for f in fields(moved)]
        differ = ", ".join(n for n in names if getattr(moved, n) != getattr(expected, n))
        return [f"case {index}: T(figure) differs at {differ} for T(z) = {m}*z + {shift}"]
    return []


def latus_angle_failures(parabola: Parabola, label: str) -> list[str]:
    """Check 2*(d.u)^2 = |d|^2 |u|^2 at both latus endpoints.

    This is the rational restatement of the tangent making an angle of pi/4
    with the latus rectum (cos^2 = 1/2, cleared of square roots).  Both sides
    are of degree 2 in u, so u = e2 - e1 is taken in integers as U = W*u over
    the endpoints' shared denominator W, and the test builds no Fraction.
    """
    e1, e2 = parabola.latus_endpoints
    _, [(x1, y1), (x2, y2)] = _common(e1, e2)
    ux, uy = x2 - x1, y2 - y1
    failures = []
    for endpoint in (e1, e2):
        dx, dy = tangent_at(parabola, endpoint).direction()
        du = dx * ux + dy * uy
        if 2 * du * du != (dx * dx + dy * dy) * (ux * ux + uy * uy):
            failures.append(f"{label}: tangent at {endpoint} is not at pi/4 to the latus rectum")
    return failures


def _angle_case(args: tuple[int, int, int]) -> list[str]:
    """The pi/4 check on the three parabolas of a random cusp triple.

    It builds no figure: the parabolas of the latus recta C1C2, C2C3 and
    C1C3 are exactly what ``build_parbelos`` stores as inner1, inner2 and
    outer, and the check reads nothing else.  Acceptance criterion 9 runs
    the same check on the figure's own parabolas.
    """
    index, _, c1, c2, c3, side = _cusps(args)
    failures = []
    for label, e1, e2 in (("inner1", c1, c2), ("inner2", c2, c3), ("outer", c1, c3)):
        parabola = parabola_from_latus_rectum(e1, e2, side)
        failures.extend(latus_angle_failures(parabola, f"case {index} {label}"))
    return failures


def _ft_ht_case(args: tuple[int, int, int]) -> list[str]:
    index, _, c1, c2, c3, side = _cusps(args)
    fig = build_parbelos(c1, c2, c3, side)
    if not equidistant(fig.contact_T, fig.focus_F, fig.H):
        return [f"case {index}: |F-contact|^2 != |H-contact|^2"]
    return []


# --- the suites ---

DEFAULT_MAX_HEIGHT = 10_000


class Suite(NamedTuple):
    share: int  # run_all gives the suite max(1, cases // share) cases
    seed_offset: int  # added to run_all's seed
    parts: tuple[tuple[str, int], ...]  # (case function name, divisor)


# The one list of suites, in run_all order.  A suite given n cases runs its
# part k on max(1, n // divisor) cases from seed + k.  Rows name their case
# functions and _run_suite looks each up on this module when it runs, so a
# wrapper set on a ``_*_case`` attribute (a timer, a counter) is what runs.
SUITES = {
    "sondow+corollaries": Suite(1, 0, (("_sondow_case", 1),)),
    "tangent/secant criterion": Suite(1, 101, (("_tangency_case", 1),)),
    "lambert circumcircle": Suite(1, 202, (("_lambert_case", 1),)),
    "converse lambert": Suite(10, 303, (("_converse_case", 1), ("_converse_degenerate_case", 20))),
    "diagonal proof replay": Suite(1, 404, (("_replay_case", 1),)),
    "similarity invariance": Suite(2, 505, (("_invariance_case", 1),)),
    "pi/4 latus angle": Suite(1, 606, (("_angle_case", 1),)),
    "FT = HT": Suite(1, 707, (("_ft_ht_case", 1),)),
}


def _listed(case, args: tuple[int, int, int]) -> list[str]:
    """The failures of ``case(args)``; a kernel error it raises is the case's one failure."""
    try:
        return case(args)
    except GeometryError as exc:
        return [f"case {args[1]}: {type(exc).__name__}: {exc}"]


def _run_suite(
    name: str, cases: int, seed: int, scale: int, pool: ProcessPoolExecutor | None
) -> SuiteResult:
    """Every part of the suite ``name``, its cases in index order, on ``pool`` if given."""
    total, failures = 0, []
    for k, (case_name, divisor) in enumerate(SUITES[name].parts):
        count = max(1, cases // divisor)
        # _listed's arguments: the case function, looked up now, and each case's args.
        jobs = ([globals()[case_name]] * count, [(seed + k, i, scale) for i in range(count)])
        if pool is not None and count > 1:
            # About four chunks per worker, as multiprocessing.Pool.map sizes them,
            # so a short suite still reaches every worker.
            results = pool.map(_listed, *jobs, chunksize=-(-count // (4 * _workers())))
        else:
            results = map(_listed, *jobs)
        for result in results:
            failures.extend(result)
        total += count
    return SuiteResult(name, total, failures)


def _run(
    cases: int, max_height: int, parallel: bool, runs: list[tuple[str, int, int]]
) -> list[SuiteResult]:
    """Each ``(name, cases, seed)`` of ``runs``, sharing one process pool when
    ``parallel`` and ``cases > 1``; ``cases`` below 1 raises ``ValueError``."""
    if cases < 1:
        raise ValueError(f"cases must be at least 1, got {cases}")
    scale = height_scale(max_height)
    parallel = parallel and cases > 1
    with ProcessPoolExecutor(max_workers=_workers()) if parallel else nullcontext() as pool:
        return [_run_suite(name, n, seed, scale, pool) for name, n, seed in runs]


def run_suite(
    name: str, cases: int, seed: int, max_height: int = DEFAULT_MAX_HEIGHT, parallel: bool = False
) -> SuiteResult:
    """Run the suite ``name`` of :data:`SUITES` on ``cases`` cases from ``seed``.

    With ``parallel`` its parts share one process pool.
    """
    return _run(cases, max_height, parallel, [(name, cases, seed)])[0]


def run_all(
    cases: int = 200,
    seed: int = 0,
    max_height: int = DEFAULT_MAX_HEIGHT,
    parallel: bool = False,
) -> list[SuiteResult]:
    """Every suite of :data:`SUITES`, each given its share of one case count.

    With ``parallel`` every suite runs on one process pool, opened once.
    """
    runs = [
        (name, max(1, cases // row.share), seed + row.seed_offset) for name, row in SUITES.items()
    ]
    return _run(cases, max_height, parallel, runs)
