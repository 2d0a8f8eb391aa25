"""Acceptance suite: one test per shipped guarantee, all exact.

Every check here is zero-tolerance (structural equality of rationals and
canonical lines); the only numeric bounds are wall-clock budgets.  Each test
prints a single pass/fail line so a `pytest -s` run reads as a checklist.
"""

import pathlib
import time
from fractions import Fraction
from importlib import resources

from parbelos.cli import main
from parbelos.euclid import Line, dist_sq, line_intersection, point
from parbelos.figure import build_parbelos
from parbelos.fuzz import (
    _case_rng,
    degenerate_converse_circle,
    height_scale,
    rand_cusps,
    run_suite,
)
from parbelos.parabola import LEFT, Parabola, tangent_at
from parbelos.svg import figure_scene, render_svg
from parbelos.theorems import converse_lambert

F = Fraction
DATA = resources.files("parbelos") / "data"
GOLDEN = pathlib.Path(__file__).parent / "data" / "parbelos_p13.svg"


def report(number: int, description: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] criterion {number}: {description}{suffix}")
    assert ok, f"criterion {number} failed: {description} {suffix}"


def test_criterion_01_canonical_instance(capsys):
    started = time.perf_counter()
    code = main(["--c1", "0,0", "--c2", "1,0", "--c3", "4,0"])
    elapsed = time.perf_counter() - started
    out = capsys.readouterr().out
    expected = [
        "T1 = (1/2, -1/2)",
        "T2 = (2, -2)",
        "T3 = (5/2, -3/2)",
        "F = (2, 0)",
        "O = (3/2, -1)",
        "radius_sq = 5/4",
        "contact = (1, -3/4)",
        "H = (1, -2)",
        "A1 = (1/2, -3/2)",
        "A3 = (5/2, -1/2)",
        "overall: pass",
    ]
    ok = code == 0 and all(line in out for line in expected) and "FAIL" not in out
    ok = ok and elapsed < 0.1
    with capsys.disabled():
        report(1, "canonical instance exact report", ok, f"{elapsed*1000:.1f} ms")


def test_criterion_02_sondow_fuzz_1000(capsys):
    started = time.perf_counter()
    result = run_suite("sondow+corollaries", 1000, seed=20260808, max_height=10_000)
    elapsed = time.perf_counter() - started
    ok = result.passed and result.cases == 1000 and elapsed < 60
    with capsys.disabled():
        report(2, "1000 random instances verify exactly", ok,
               f"{result.cases} cases, {len(result.failures)} failures, {elapsed:.1f} s")


def test_criterion_03_tangency_500(capsys):
    started = time.perf_counter()
    result = run_suite("tangent/secant criterion", 500, seed=3)
    elapsed = time.perf_counter() - started
    ok = result.passed and result.cases == 500 and elapsed < 30
    with capsys.disabled():
        report(3, "500 tangents certified, 500 secants rejected", ok,
               f"{len(result.failures)} failures, {elapsed:.1f} s")


def test_criterion_04_lambert_500(capsys):
    result = run_suite("lambert circumcircle", 500, seed=4)
    with capsys.disabled():
        report(4, "500 tangent triples pass the circumcircle check", result.passed,
               f"{len(result.failures)} failures")


def test_criterion_05_converse_lambert(capsys):
    result = run_suite("converse lambert", 20, seed=5)  # 20 pairs x 100 circles + degenerate branch
    ok = result.passed and result.cases == 21
    # one explicit tangency-degenerate case: H1 = I, so the output is l2 itself
    parabola = Parabola(point(2, 0), Line(0, 1, 2))
    l1, l2 = Line(1, 1, 0), Line(1, -1, -4)
    crossing = line_intersection(l1, l2)
    circle = degenerate_converse_circle(parabola, l1, crossing)
    constructed, degenerate_report = converse_lambert(parabola, l1, l2, circle)
    ok = ok and degenerate_report.verdict and constructed == l2
    with capsys.disabled():
        report(5, "2000 circle choices rebuild tangents, H=I branch included", ok)


def test_criterion_06_proof_replay_200(capsys):
    result = run_suite("diagonal proof replay", 200, seed=6)
    ok = result.passed and result.cases == 200
    with capsys.disabled():
        report(6, "rebuilt chord equals the diagonal on 200 instances", ok,
               f"{len(result.failures)} failures")


def test_criterion_07_invariance_100(capsys):
    result = run_suite("similarity invariance", 100, seed=7)
    ok = result.passed and result.cases == 100
    with capsys.disabled():
        report(7, "figure of mapped cusps equals mapped figure under 100 rational similarities", ok)


def test_criterion_08_ft_equals_ht_everywhere(capsys):
    scale = height_scale(10_000)
    failures = 0
    for index in range(1000):
        rng = _case_rng(20260808, index)  # same instances as criterion 2
        c1, c2, c3, side = rand_cusps(rng, scale)
        fig = build_parbelos(c1, c2, c3, side)
        if dist_sq(fig.focus_F, fig.contact_T) != dist_sq(fig.H, fig.contact_T):
            failures += 1
    with capsys.disabled():
        report(8, "FT^2 = HT^2 exactly on every fuzz instance", failures == 0,
               f"{failures} failures")


def test_criterion_09_quarter_angle_everywhere(capsys):
    from parbelos.fuzz import latus_angle_failures

    scale = height_scale(10_000)
    failures = []
    for index in range(300):
        rng = _case_rng(909, index)
        c1, c2, c3, side = rand_cusps(rng, scale)
        fig = build_parbelos(c1, c2, c3, side)
        for label, parabola in (("inner1", fig.inner1), ("inner2", fig.inner2), ("outer", fig.outer)):
            failures.extend(latus_angle_failures(parabola, f"{index}/{label}"))
    with capsys.disabled():
        report(9, "tangents meet the latus rectum at pi/4 on all instances",
               not failures, f"{len(failures)} failures")


def test_criterion_10_dsl_scripts(tmp_path, capsys):
    shipped = DATA / "sondow.geo"
    code_ok = main(["check", str(shipped)])
    capsys.readouterr()

    mutated = tmp_path / "mutated.geo"
    mutated.write_text(shipped.read_text().replace(
        "let T1 = point(1/2, -1/2)", "let T1 = point(1/2, -1/3)"))
    code_mutated = main(["check", str(mutated)])
    captured = capsys.readouterr()
    names_line = "assertion failed at line 19" in captured.err

    malformed = tmp_path / "malformed.geo"
    malformed.write_text(shipped.read_text().replace(
        "let P = parbelos(C1, C2, C3, left)", "let P = parbelos(C1, C2, C3,"))
    code_malformed = main(["check", str(malformed)])
    captured = capsys.readouterr()
    has_position = "line 7" in captured.err

    ok = code_ok == 0 and code_mutated == 1 and names_line and code_malformed == 2 and has_position
    with capsys.disabled():
        report(10, "shipped script exits 0; mutants exit 1/2 with positions", ok,
               f"codes {code_ok}/{code_mutated}/{code_malformed}")


def test_criterion_11_svg_golden_and_controls(capsys):
    fig = build_parbelos(point(0, 0), point(1, 0), point(4, 0), LEFT)
    scene = figure_scene(fig)
    first = render_svg(scene)
    second = render_svg(figure_scene(build_parbelos(point(0, 0), point(1, 0), point(4, 0), LEFT)))
    byte_identical = first == second and first.encode() == GOLDEN.read_bytes()
    controls_exact = all(
        arc.control == line_intersection(
            tangent_at(arc.parabola, arc.p0), tangent_at(arc.parabola, arc.p1)
        )
        for arc in scene.arcs
    )
    outer_control_is_t2 = scene.arcs[2].control == fig.T2
    ok = byte_identical and controls_exact and outer_control_is_t2
    with capsys.disabled():
        report(11, "golden SVG byte-identical; Bezier controls exact (outer = T2)", ok)
