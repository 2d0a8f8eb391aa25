from fractions import Fraction

import pytest

from parbelos.fuzz import (
    _case_rng,
    _run_cases,
    height_scale,
    rand_cusps,
    rand_rotation,
    run_all,
    run_converse_lambert_fuzz,
    run_invariance_fuzz,
    run_lambert_fuzz,
    run_proof_replay_fuzz,
    run_sondow_fuzz,
    run_tangency_fuzz,
)

F = Fraction


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


def test_rotation_generator_is_always_valid():
    from parbelos.figure import rational_sqrt

    for i in range(200):
        rng = _case_rng(7, i)
        p, q = rand_rotation(rng)
        assert rational_sqrt(p * p + q * q) is not None


def test_suites_run_clean():
    assert run_sondow_fuzz(40, seed=1).passed
    assert run_tangency_fuzz(40, seed=2).passed
    assert run_lambert_fuzz(25, seed=3).passed
    assert run_converse_lambert_fuzz(3, seed=4).passed
    assert run_proof_replay_fuzz(25, seed=5).passed
    assert run_invariance_fuzz(10, seed=6).passed


def test_deterministic_across_runs():
    first = run_sondow_fuzz(20, seed=123)
    second = run_sondow_fuzz(20, seed=123)
    assert first.failures == second.failures == []
    assert first.cases == second.cases


def test_run_all_shape():
    results = run_all(cases=10, seed=0)
    assert len(results) == 8
    assert all(r.passed for r in results)
    names = [r.name for r in results]
    assert "sondow+corollaries" in names and "FT = HT" in names


def _fail_with_index(args):
    seed, index, _ = args
    return [f"{seed}:{index}"]


def test_parallel_keeps_case_and_failure_order():
    for cases in (2, 21, 200):
        serial = _run_cases("order", cases, 9, _fail_with_index, 0)
        parallel = _run_cases("order", cases, 9, _fail_with_index, 0, parallel=True)
        assert serial.failures == [f"9:{i}" for i in range(cases)]
        assert parallel == serial
