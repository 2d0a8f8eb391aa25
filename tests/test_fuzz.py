import ast
import dataclasses
import hashlib
import multiprocessing
import pathlib
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction

import pytest

from parbelos import figure, fuzz, theorems
from parbelos.cli import main
from parbelos.euclid import Point, line_through
from parbelos.fuzz import (
    SUITES,
    _case_rng,
    height_scale,
    rand_cusps,
    run_all,
    run_suite,
)

F = Fraction


def expected_suites(cases: int) -> list[tuple[str, int]]:
    """(name, case count) of each suite of run_all(cases), listed apart from SUITES.

    The same listing as ``benchmarks/workloads.py``'s fuzz gate.
    """
    pairs = max(1, cases // 10)
    return [
        ("sondow+corollaries", cases),
        ("tangent/secant criterion", cases),
        ("lambert circumcircle", cases),
        ("converse lambert", pairs + max(1, pairs // 20)),
        ("diagonal proof replay", cases),
        ("similarity invariance", max(1, cases // 2)),
        ("pi/4 latus angle", cases),
        ("FT = HT", cases),
    ]


def test_cusp_generator_height_bound():
    """Every cusp coordinate has height <= 10^4 at the default scale."""
    scale = height_scale(10_000)
    for i in range(300):
        rng = _case_rng(99, i)
        c1, c2, c3, side = rand_cusps(rng, scale)
        for p in (c1, c2, c3):
            for coord in (p.x, p.y):
                assert abs(coord.numerator) <= 10_000
                assert coord.denominator <= 10_000
        assert side in ("left", "right")


@pytest.mark.parametrize("max_height", [22, 100, 10**4, 10**6])
def test_cusp_heights_stay_within_max_height(max_height):
    scale = height_scale(max_height)
    for i in range(1500):
        c1, c2, c3, _ = rand_cusps(_case_rng(max_height, i), scale)
        for coord in (c1.x, c1.y, c2.x, c2.y, c3.x, c3.y):
            assert abs(coord.numerator) <= max_height and coord.denominator <= max_height


def test_height_scale_rejects_heights_below_22():
    assert height_scale(22) == 1
    for max_height in (21, 10, 1, 0, -1):
        with pytest.raises(ValueError, match="at least 22"):
            height_scale(max_height)


# (cases, seed) of each suite's clean run.
CLEAN_RUNS = {
    "sondow+corollaries": (40, 1),
    "tangent/secant criterion": (40, 2),
    "lambert circumcircle": (25, 3),
    "converse lambert": (3, 4),
    "diagonal proof replay": (25, 5),
    "similarity invariance": (10, 6),
    "pi/4 latus angle": (25, 7),
    "FT = HT": (25, 8),
}


@pytest.mark.parametrize("name", SUITES)
def test_suites_run_clean(name):
    cases, seed = CLEAN_RUNS[name]
    assert run_suite(name, cases, seed=seed).passed


def test_deterministic_across_runs():
    first = run_suite("sondow+corollaries", 20, seed=123)
    second = run_suite("sondow+corollaries", 20, seed=123)
    assert first.failures == second.failures == []
    assert first.cases == second.cases


def test_benchmark_hooks_reach_the_sondow_suite(monkeypatch):
    """The benchmark reaches the checks by name: ``benchmarks/selftest.py``
    replaces ``fuzz.sondow_checks`` with a failing stub as a negative control,
    and ``benchmarks/tracing.SPANNED`` times ``figure.sondow_checks`` and
    ``figure.corollary_checks``.  A rename that broke either would pass
    every other test here."""
    monkeypatch.setattr(fuzz, "sondow_checks", lambda fig: [("forced", "forced failure", False)])
    result = run_suite("sondow+corollaries", 3, 0)
    assert result.cases == 3 and len(result.failures) == 3
    assert all(failure.endswith("forced failure") for failure in result.failures)
    assert callable(figure.sondow_checks) and callable(figure.corollary_checks)

def test_run_all_shape():
    for cases in (10, 200):
        results = run_all(cases, seed=0)
        assert [(r.name, r.cases) for r in results] == expected_suites(cases)
        assert all(r.passed for r in results)


def test_case_functions_are_looked_up_when_a_suite_runs(monkeypatch):
    """A wrapper set on a module-level ``_*_case`` runs once per reported case.

    Rows that held function objects would bypass it (no calls); a case
    function that called another would be counted twice.
    """
    calls = Counter()
    for attr, fn in list(vars(fuzz).items()):
        if attr.startswith("_") and attr.endswith("_case"):

            def counted(args, attr=attr, fn=fn):
                calls[attr, args[0]] += 1
                return fn(args)

            monkeypatch.setattr(fuzz, attr, counted)
    results = run_all(10, seed=0)
    assert sum(calls.values()) == sum(r.cases for r in results) == 67
    assert calls == {
        ("_sondow_case", 0): 10,
        ("_tangency_case", 101): 10,
        ("_lambert_case", 202): 10,
        ("_converse_case", 303): 1,
        ("_converse_degenerate_case", 304): 1,
        ("_replay_case", 404): 10,
        ("_invariance_case", 505): 5,
        ("_angle_case", 606): 10,
        ("_ft_ht_case", 707): 10,
    }


def test_every_case_draws_its_instance_in_one_place():
    """Each ``_*_case`` calls exactly one of the two draws, ``_cusps`` and
    ``_parabola_points``, and none of what they wrap, so the ``(seed,
    index, scale)`` layout and the order of draws live in the draws alone."""
    tree = ast.parse(pathlib.Path(fuzz.__file__).read_text(encoding="utf-8"))
    cases = [
        node
        for node in tree.body
        if isinstance(node, ast.FunctionDef)
        and node.name.startswith("_")
        and node.name.endswith("_case")
    ]
    assert {case.name for case in cases} == {
        case_name for row in SUITES.values() for case_name, _ in row.parts
    }
    draws = {"_cusps", "_parabola_points"}
    wrapped = {"_case_rng", "rand_cusps", "rand_parabola", "rand_distinct_parameters"}
    for case in cases:
        called = [
            sub.func.id
            for sub in ast.walk(case)
            if isinstance(sub, ast.Call) and isinstance(sub.func, ast.Name)
        ]
        assert len([name for name in called if name in draws]) == 1, case.name
        assert wrapped.isdisjoint(called), case.name


def test_invariance_suite_catches_a_frame_dependent_figure(monkeypatch):
    """A1 and A3 swapped only when C1.x < C3.x: every verdict still holds.

    The checks are symmetric in A1 and A3, so only the comparison of whole
    figures under a similarity sees the swap.
    """
    build = fuzz.build_parbelos

    def swapped(c1, c2, c3, side):
        fig = build(c1, c2, c3, side)
        return dataclasses.replace(fig, A1=fig.A3, A3=fig.A1) if c1.x < c3.x else fig

    monkeypatch.setattr(fuzz, "build_parbelos", swapped)
    assert run_suite("sondow+corollaries", 20, 6).passed
    result = run_suite("similarity invariance", 20, 6)
    assert not result.passed
    assert all(" differs at A1, A3 for " in failure for failure in result.failures)


# The generator's height bound for cusps of about 13 and about 3300 bits.
MAX_HEIGHTS = {13: 10_000, 3300: 10**1000}


@pytest.mark.parametrize("bits", MAX_HEIGHTS)
def test_angle_case_checks_the_figures_own_parabolas(bits, monkeypatch):
    """The pi/4 case checks the parabolas build_parbelos stores as inner1,
    inner2 and outer, under the same labels, on both sides."""
    scale = height_scale(MAX_HEIGHTS[bits])
    checked = []

    def recorded(parabola, label):
        checked.append((label, parabola))
        return []

    monkeypatch.setattr(fuzz, "latus_angle_failures", recorded)
    sides, top = set(), 0
    for index in range(6):
        checked.clear()
        assert fuzz._angle_case((606, index, scale)) == []
        c1, c2, c3, side = rand_cusps(_case_rng(606, index), scale)
        fig = fuzz.build_parbelos(c1, c2, c3, side)
        labels = [f"case {index} {name}" for name in ("inner1", "inner2", "outer")]
        assert checked == list(zip(labels, (fig.inner1, fig.inner2, fig.outer)))
        sides.add(side)
        top = max(top, *(abs(v.numerator).bit_length() for p in (c1, c2, c3) for v in (p.x, p.y)))
    assert sides == {"left", "right"}
    assert bits - 8 <= top <= MAX_HEIGHTS[bits].bit_length()


def test_angle_suite_builds_no_figure(monkeypatch):
    build, calls = fuzz.build_parbelos, []

    def counted(*args):
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(fuzz, "build_parbelos", counted)
    assert run_suite("pi/4 latus angle", 25, 7).passed
    assert calls == []


def test_angle_suite_fails_on_a_turned_tangent(monkeypatch):
    """Each tangent turned about its point by the angle whose tangent is
    1/1000 fails the pi/4 check.  (The normal would not: it is at pi/4 to
    the latus rectum as well.)"""
    tangent_at, k = fuzz.tangent_at, Fraction(1, 1000)

    def turned(parabola, p):
        dx, dy = tangent_at(parabola, p).direction()
        return line_through(p, p + Point(dx - k * dy, dy + k * dx))

    monkeypatch.setattr(fuzz, "tangent_at", turned)
    result = run_suite("pi/4 latus angle", 25, 7)
    assert not result.passed
    assert len(result.failures) == 25 * 3 * 2
    for i in range(25):
        assert any(f.startswith(f"case {i} inner1: tangent at ") for f in result.failures)


@pytest.mark.parametrize("cases", [0, -5])
def test_nonpositive_cases_raise(cases):
    with pytest.raises(ValueError, match=f"cases must be at least 1, got {cases}"):
        run_all(cases)
    for name in SUITES:
        with pytest.raises(ValueError, match=f"cases must be at least 1, got {cases}"):
            run_suite(name, cases, seed=1)


def _fail_with_index(args):
    seed, index, _ = args
    return [f"{seed}:{index}"]


def test_parallel_keeps_case_and_failure_order(monkeypatch):
    monkeypatch.setattr(fuzz, "_sondow_case", _fail_with_index)
    for cases in (2, 21, 200):
        serial = run_suite("sondow+corollaries", cases, 9)
        parallel = run_suite("sondow+corollaries", cases, 9, parallel=True)
        assert serial.failures == [f"9:{i}" for i in range(cases)]
        assert parallel == serial


def test_parallel_run_opens_one_pool(monkeypatch):
    """One pool per run_all or run_suite call, shared by every suite part."""
    opened = []

    class CountedPool(ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            opened.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(fuzz, "ProcessPoolExecutor", CountedPool)
    parallel = run_all(30, 5, parallel=True)
    assert len(opened) == 1
    assert parallel == run_all(30, 5)
    assert len(opened) == 1
    # both parts of the converse suite get more than one case at 40 cases
    parallel = run_suite("converse lambert", 40, 3, parallel=True)
    assert len(opened) == 2
    assert parallel == run_suite("converse lambert", 40, 3)


KERNEL_ERROR = "NotTangent: line 1 is not tangent"


def test_a_kernel_error_in_a_case_is_that_cases_failure(monkeypatch, capsys):
    """A case whose theorem refuses its input is listed as failing, and the run goes on.

    With ``theorems.is_tangent`` forced false, every case of the three suites
    that call a theorem raises ``NotTangent`` from its precondition.
    """
    monkeypatch.setattr(theorems, "is_tangent", lambda parabola, line: False)
    for name in ("lambert circumcircle", "converse lambert", "diagonal proof replay"):
        serial = run_suite(name, 60, 205)
        counts = [max(1, 60 // divisor) for _, divisor in SUITES[name].parts]
        assert serial.failures == [f"case {i}: {KERNEL_ERROR}" for n in counts for i in range(n)]
        # Pool workers see the patch only when they are forked from this process.
        if multiprocessing.get_start_method() == "fork":
            assert run_suite(name, 60, 205, parallel=True) == serial
    assert main(["fuzz", "--cases", "20"]) == 1
    out = capsys.readouterr().out
    assert "  [FAIL] lambert circumcircle: 20 cases, 20 failures\n" in out
    assert f"      case 0: {KERNEL_ERROR}\n" in out
    assert out.endswith("overall: 43 failures in 133 cases\n")


def test_a_wrong_root_fails_every_circle_of_the_converse_suite(monkeypatch):
    """Negative control: with every second root moved by (1, 0), each chord is
    the true tangent moved by (1, 0), a parallel line and so not tangent (a
    parabola has one tangent per direction).  Every circle of every pair is
    then listed, serially and on a forked pool, and so is the degenerate
    branch, which goes through the public ``converse_lambert``."""
    second_root = theorems._second_root

    def moved(line, offset):
        x, y, z = second_root(line, offset)
        return x + z, y, z

    monkeypatch.setattr(theorems, "_second_root", moved)
    serial = run_suite("converse lambert", 4, 11)
    assert serial.failures == [
        f"case {i}.{j}: converse output not tangent" for i in range(4) for j in range(100)
    ] + [
        "case 0: degenerate-branch output not tangent",
        "case 0: degenerate branch should return the other tangent",
    ]
    # Pool workers see the patch only when they are forked from this process.
    if multiprocessing.get_start_method() == "fork":
        assert run_suite("converse lambert", 4, 11, parallel=True) == serial


def test_a_converse_case_decides_its_tangents_once(monkeypatch):
    """The pair's two tangency preconditions run once, then one chord check per
    circle; the public ``converse_lambert`` is not called per circle."""
    args = (303, 0, height_scale(10_000))
    _, _, parabola, _, points = fuzz._parabola_points(args, 2)
    decided = []
    is_tangent = theorems.is_tangent

    def counted(parabola, line):
        decided.append(line)
        return is_tangent(parabola, line)

    def refused(*args):
        raise AssertionError("converse_lambert called per circle")

    monkeypatch.setattr(theorems, "is_tangent", counted)
    monkeypatch.setattr(fuzz, "converse_lambert", refused)
    assert fuzz._converse_case(args) == []
    assert len(decided) == 2 + 100
    assert decided[:2] == [fuzz.tangent_at(parabola, p) for p in points]


def test_a_converse_case_checks_100_distinct_circles(monkeypatch):
    """A pencil parameter drawn twice for one pair is skipped, so each of the
    pair's 100 circles is a different member of the pencil."""
    drawn = []
    circle_through_points = fuzz.circle_through_points

    def recorded(p, q, t):
        drawn.append(t)
        return circle_through_points(p, q, t)

    monkeypatch.setattr(fuzz, "circle_through_points", recorded)
    assert fuzz._converse_case((303, 0, height_scale(10_000))) == []
    assert len(drawn) == len(set(drawn)) == 100


# sha256 of the draws below, recorded from the generators before C2 and C3
# were built as single Fractions; a change to any generator shows here.
DRAWS_DIGEST = "f1f4cb21f63effd38953a0a7b33a78698867195f2b84998484db3ee0062c43cc"


def test_instance_draws_are_pinned():
    """What ``(suite, seed, index)`` replays: the cusps at scales 1, 20 and
    1000 and the parabola points for 2 and 3 parameters, each with the next
    draw of the rng the case goes on with."""
    digest = hashlib.sha256()
    for seed in (0, 13, 303, 10**9):
        for scale in (1, 20, 1000):
            for index in range(25):
                _, rng, *cusps = fuzz._cusps((seed, index, scale))
                digest.update(repr((cusps, rng.random())).encode())
        for count in (2, 3):
            for index in range(25):
                _, rng, parabola, params, points = fuzz._parabola_points((seed, index, 20), count)
                digest.update(repr((parabola, params, points, rng.random())).encode())
    assert digest.hexdigest() == DRAWS_DIGEST
