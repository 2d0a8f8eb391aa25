import dataclasses
import pathlib
import random
from fractions import Fraction

import pytest

from parbelos.errors import EmptyScene, PointNotOnParabola
from parbelos.euclid import Line, Point, line_intersection, point
from parbelos.figure import build_parbelos
from parbelos.parabola import LEFT, RIGHT, Parabola, parabola_from_latus_rectum, tangent_at
from parbelos.svg import (
    Scene,
    _certified_arc,
    _clip_line,
    _Frame,
    _scene_bounds,
    _sqrt_decimal,
    bindings_scene,
    figure_scene,
    render_svg,
)

F = Fraction

GOLDEN = pathlib.Path(__file__).parent / "data" / "parbelos_p13.svg"
P13 = build_parbelos(point(0, 0), point(1, 0), point(4, 0), LEFT)
OUTER = Parabola(point(2, 0), Line(0, 1, 2))


def latus_arc(parabola: Parabola):
    """The arc a script's parabola binding is drawn with."""
    (arc,) = bindings_scene({"G": parabola}).arcs
    return arc


def test_arc_control_point_is_tangent_intersection():
    arc = latus_arc(OUTER)  # cusp to cusp on the outer parabola
    assert (arc.p0, arc.p1) == (point(0, 0), point(4, 0))
    expected = line_intersection(tangent_at(OUTER, arc.p0), tangent_at(OUTER, arc.p1))
    assert arc.control == expected == point(2, -2)  # the control point IS T2


def test_arc_control_points_random_parameters():
    """Latus arcs of parabolas on random rational latera recta, both sides."""
    rng = random.Random(71)

    def coordinate():
        return F(rng.randint(-30, 30), rng.randint(1, 7))

    for _ in range(60):
        e1, e2 = Point(coordinate(), coordinate()), Point(coordinate(), coordinate())
        if e1 == e2:
            continue
        arc = latus_arc(parabola_from_latus_rectum(e1, e2, rng.choice((LEFT, RIGHT))))
        tangents = tangent_at(arc.parabola, arc.p0), tangent_at(arc.parabola, arc.p1)
        assert arc.control == line_intersection(*tangents)
        assert isinstance(arc.control, Point)  # exact rational, pre-serialization


def test_degenerate_arc_rejected():
    vertex = point(2, -1)
    with pytest.raises(EmptyScene):
        _certified_arc(OUTER, vertex, vertex, vertex)


_OPTIMIZED_ARC_SCRIPT = """
import dataclasses
import sys
from fractions import Fraction

import parbelos.svg as svg
from parbelos.cli import main
from parbelos.errors import PointNotOnParabola
from parbelos.euclid import Line, point
from parbelos.figure import build_parbelos
from parbelos.parabola import Parabola

print("optimize", sys.flags.optimize)
print("exit", main(["--c1", "0,0", "--c2", "1,0", "--c3", "4,0", "--svg", sys.argv[1]]))
fig = build_parbelos(point(0, 0), point(1, 0), point(4, 0))
for corner in ("T1", "T2", "T3"):
    forged = dataclasses.replace(fig, **{corner: getattr(fig, corner) + point(0, Fraction(1, 7))})
    try:
        svg.figure_scene(forged)
    except PointNotOnParabola:
        print("forged", corner, "rejected")
real = svg.pedal_point
svg.pedal_point = lambda p, line: real(p, line) + point(0, Fraction(1, 7))
try:
    svg.bindings_scene({"G": Parabola(point(2, 0), Line(0, 1, 2))})
except PointNotOnParabola:
    print("forged control rejected")
"""


def test_arc_certificate_holds_under_python_optimize(tmp_path):
    import os
    import subprocess
    import sys

    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    out_svg = tmp_path / "fig.svg"
    done = subprocess.run(
        [sys.executable, "-O", "-c", _OPTIMIZED_ARC_SCRIPT, str(out_svg)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0] == "optimize 1"
    assert lines[-5:] == [
        "exit 0",
        "forged T1 rejected",
        "forged T2 rejected",
        "forged T3 rejected",
        "forged control rejected",
    ]
    assert out_svg.read_bytes() == GOLDEN.read_bytes()


def test_forged_control_point_rejected(monkeypatch):
    import parbelos.svg as svg

    # A parabola binding's control point is the foot of the focus on the directrix.
    monkeypatch.setattr(svg, "pedal_point", lambda p, line: point(2, -1))
    with pytest.raises(PointNotOnParabola):
        bindings_scene({"G": OUTER})


@pytest.mark.parametrize("corner", ("T1", "T2", "T3"))
def test_forged_tangent_rectangle_rejected(corner):
    # Each corner of the tangent rectangle is the control point of one latus arc.
    forged = dataclasses.replace(P13, **{corner: getattr(P13, corner) + point(0, F(1, 7))})
    with pytest.raises(PointNotOnParabola):
        figure_scene(forged)


def test_empty_scene_rejected():
    with pytest.raises(EmptyScene):
        render_svg(Scene())
    # a scene with only an infinite line has nothing to frame either
    scene = Scene()
    scene.lines.append(Line(1, 1, 0))
    with pytest.raises(EmptyScene):
        render_svg(scene)


def test_figure_scene_inventory():
    scene = figure_scene(P13)
    assert len(scene.arcs) == 3
    assert len(scene.circles) == 1
    assert len(scene.points) >= 8
    outer_arc = scene.arcs[2]
    assert outer_arc.control == P13.T2
    # the corners of the tangent rectangle themselves, not rebuilt copies
    assert all(arc.control is getattr(P13, c) for arc, c in zip(scene.arcs, ("T1", "T3", "T2")))


def test_render_matches_golden_file():
    document = render_svg(figure_scene(P13))
    assert document.encode() == GOLDEN.read_bytes()


def test_render_deterministic():
    first = render_svg(figure_scene(P13))
    second = render_svg(figure_scene(build_parbelos(point(0, 0), point(1, 0), point(4, 0), LEFT)))
    assert first == second


def test_render_counts():
    document = render_svg(figure_scene(P13))
    assert document.count('class="arc"') == 3
    assert document.count("Q ") == 3
    assert document.count('class="circ"') == 1
    assert document.count("<text") == 12


def test_bindings_scene_draws_each_kind():
    from parbelos.dsl import evaluate, parse_script

    source = """\
let A = point(0, 0)
let B = point(4, 0)
let L = line(A, B)
let G = parabola_latus(A, B, left)
let K = circle2(A, B, 1)
"""
    report = evaluate(parse_script(source))
    scene = bindings_scene(report.bindings)
    assert [p.label for p in scene.points] == ["A", "B"]
    assert len(scene.lines) == 1 and len(scene.circles) == 1 and len(scene.arcs) == 1
    # a parabola renders its latus arc, from the first latus endpoint to the second
    arc = scene.arcs[0]
    assert (arc.p0, arc.p1) == report.bindings["G"].latus_endpoints == (point(0, 0), point(4, 0))
    document = render_svg(scene)
    assert document.count('class="line"') == 1
    assert "<path" in document


def test_clipped_line_endpoints_inside_canvas():
    scene = Scene()
    scene.add_point(point(0, 0), "A")
    scene.add_point(point(10, 10), "B")
    scene.lines.append(Line(1, -1, 0))  # the diagonal through both
    scene.lines.append(Line(1, 0, -100))  # far off-screen: dropped
    document = render_svg(scene)
    assert document.count('class="line"') == 1


def test_clipped_line_endpoints_are_exact():
    """Points (0, 0) and (10, 10) on the default 800 x 600 canvas give scale
    52 and the view x in [-35/13, 165/13], y in [-10/13, 140/13]."""
    scene = Scene()
    scene.add_point(point(0, 0), "A")
    scene.add_point(point(10, 10), "B")
    frame = _Frame(_scene_bounds(scene), 800, 600, 40, 12)
    assert (frame.x_lo, frame.x_hi, frame.y_lo, frame.y_hi) == (
        F(-35, 13), F(165, 13), F(-10, 13), F(140, 13)
    )
    clipped = {
        "vertical x = 3": (Line(1, 0, -3), ((3, F(-10, 13)), (3, F(140, 13)))),
        "horizontal y = 2": (Line(0, 1, -2), ((F(-35, 13), 2), (F(165, 13), 2))),
        "slanted y = x": (Line(1, -1, 0), ((F(-10, 13), F(-10, 13)), (F(140, 13), F(140, 13)))),
        # meets the corner (x_lo, y_lo) twice, as x = x_lo and as y = y_lo
        "through a corner": (Line(13, -13, 25), ((F(-35, 13), F(-10, 13)), (F(115, 13), F(140, 13)))),
    }
    for name, (line, ends) in clipped.items():
        assert _clip_line(line, frame) == tuple(point(x, y) for x, y in ends), name
    assert _clip_line(Line(1, 0, -100), frame) is None  # misses the view
    assert _clip_line(Line(13, 13, 45), frame) is None  # touches it at one corner only
    scene.lines.append(Line(1, -1, 0))
    assert '<line class="line" x1="100" y1="600" x2="700" y2="0"/>' in render_svg(scene)


def test_render_custom_options():
    document = render_svg(figure_scene(P13), width=400, height=300, margin=20, decimal_digits=4)
    assert 'width="400" height="300"' in document
    assert document != render_svg(figure_scene(P13))


@pytest.mark.xfail(
    strict=True,
    reason="_sqrt_decimal floors the root before dividing by the denominator, so radii truncate",
)
def test_circle_radius_rounds_half_up_like_every_coordinate():
    """sqrt(3) = 1.7320508075688...: 12 digits round to ...569, and 0 digits to 2."""
    assert _sqrt_decimal(F(3), 12) == "1.732050807569"
    assert _sqrt_decimal(F(3), 0) == "2"
