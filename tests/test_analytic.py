"""Closed-form coverage/bias curves and the exact small-instance oracle."""

import itertools
import math
import random
import time

import pytest

from crawlbias import (ConvergenceError, DegreeDistribution, curve_rows, exact_step_distribution,
                       f_k_of_t, f_of_t, mean_q_of_f, moments, q_k_of_f, q_k_of_t,
                       reachable_fraction, rw_expected, t_of_f)
from crawlbias.analytic import _implied_f

BIMODAL = DegreeDistribution({1: 0.5, 3: 0.5})


def test_f_k_hand_values():
    fk = f_k_of_t(BIMODAL, 0.5)
    assert fk[1] == pytest.approx(0.25)        # 0.5 * (1 - 0.5)
    assert fk[3] == pytest.approx(0.4375)      # 0.5 * (1 - 0.125)


def test_f_k_endpoints_and_monotonicity():
    assert all(v == 0.0 for v in f_k_of_t(BIMODAL, 0.0).values())
    assert f_k_of_t(BIMODAL, 1.0) == {1: pytest.approx(0.5), 3: pytest.approx(0.5)}
    last = -1.0
    for t in [i / 50 for i in range(51)]:
        cur = f_k_of_t(BIMODAL, t)[3]
        assert cur >= last
        last = cur
    with pytest.raises(ValueError):
        f_k_of_t(BIMODAL, 1.5)


def test_f_of_t_hand_value():
    assert f_of_t(BIMODAL, 0.5) == pytest.approx(0.6875)


def test_f_of_t_regular_closed_form():
    d = DegreeDistribution({3: 1.0})
    for t in (0.0, 0.2, 0.7, 1.0):
        assert f_of_t(d, t) == pytest.approx(1 - (1 - t) ** 3)


def test_reachable_fraction_with_isolated_nodes():
    d = DegreeDistribution({0: 0.2, 2: 0.8})
    assert reachable_fraction(d) == pytest.approx(0.8)
    assert f_of_t(d, 1.0) == pytest.approx(0.8)
    with pytest.raises(ValueError):
        t_of_f(d, 0.9)
    # every comparison with NaN is false, so NaN must be refused, not read as full coverage
    for fn in (t_of_f, mean_q_of_f):
        with pytest.raises(ValueError, match="outside reachable range"):
            fn(d, math.nan)


def test_t_of_f_regular_closed_form():
    d = DegreeDistribution({2: 1.0})
    assert t_of_f(d, 0.75) == pytest.approx(0.5, abs=1e-9)


def test_t_of_f_endpoints():
    assert t_of_f(BIMODAL, 0.0) == 0.0
    assert t_of_f(BIMODAL, 1.0) == 1.0


def test_t_of_f_inverts_hand_value():
    assert t_of_f(BIMODAL, 0.6875) == pytest.approx(0.5, abs=1e-8)


def test_roundtrip_residual_below_1e10():
    laws = [
        DegreeDistribution({2: 1.0}),
        BIMODAL,
        DegreeDistribution({k: k ** -2.5 for k in range(2, 101)}, normalize=True),
    ]
    for d in laws:
        for f in [0.001 + i * (0.998 / 99) for i in range(100)]:
            assert abs(f_of_t(d, t_of_f(d, f)) - f) <= 1e-10


def _reference_t_of_f(d, f, tol=1e-10, max_iter=200):
    """t_of_f as it was: its own bisection from t = 0.5, no t = 1 trial."""
    lo, hi = 0.0, 1.0
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        val = f_of_t(d, mid)
        if abs(val - f) <= tol:
            return mid
        if val < f:
            lo = mid
        else:
            hi = mid
    raise AssertionError("reference bisection did not converge")


def test_t_of_f_matches_reference_bisection():
    rng = random.Random(8)
    laws = (BIMODAL, DegreeDistribution({0: 0.15, 1: 0.25, 4: 0.4, 30: 0.2}),
            DegreeDistribution({k: k ** -2.5 for k in range(2, 101)}, normalize=True))
    checked = 0
    for d in laws:
        top = reachable_fraction(d) - 1e-9
        grid = [top * i / 60 for i in range(1, 60)] + [top - 1e-9 * i for i in range(1, 11)]
        for f in grid + [rng.uniform(0.0, top) for _ in range(40)]:
            assert t_of_f(d, f) == _reference_t_of_f(d, f), (d, f)
            checked += 1
    assert checked == 327


def test_t_of_f_iteration_cap_raises_with_diagnostics():
    with pytest.raises(ConvergenceError) as info:
        t_of_f(BIMODAL, 0.3, max_iter=2)
    assert isinstance(info.value, RuntimeError)
    assert info.value.iterations == 2
    assert abs(info.value.residual) > 1e-10


def test_implied_f_inverts_the_forward_map():
    # the observed mix of a law at scan time t implies exactly that law's coverage
    for d in (BIMODAL, DegreeDistribution({2: 0.3, 3: 0.4, 9: 0.3}),
              DegreeDistribution({k: k ** -2.5 for k in range(1, 101)}, normalize=True)):
        for t in (1e-6, 0.01, 0.2, 0.5, 0.9, 1.0):
            assert abs(_implied_f(q_k_of_t(d, t), t) - f_of_t(d, t)) <= 1e-12


def test_q_k_hand_values():
    q = q_k_of_t(BIMODAL, 0.5)
    assert q.get(1) == pytest.approx(4 / 11)
    assert q.get(3) == pytest.approx(7 / 11)
    qf = q_k_of_f(BIMODAL, 0.6875)
    assert qf.get(1) == pytest.approx(4 / 11, abs=1e-8)


def test_q_k_at_t_zero_is_its_limit():
    # the 0/0 mix at t = 0 is its limit, the degree-weighted law, as at f = 0
    for d in (BIMODAL, DegreeDistribution({0: 0.1, 1: 0.3, 3: 0.4, 9: 0.2})):
        assert q_k_of_t(d, 0.0) == rw_expected(d)[0] == q_k_of_f(d, 0.0)
    with pytest.raises(ValueError, match="scan time t must lie in"):
        q_k_of_t(BIMODAL, -0.1)


def test_q_k_limit_at_f_zero_is_degree_weighted():
    q = q_k_of_f(BIMODAL, 0.0)
    assert q.get(1) == pytest.approx(0.25)
    assert q.get(3) == pytest.approx(0.75)


def test_q_k_full_coverage_recovers_p_k():
    q = q_k_of_f(BIMODAL, 1.0)
    assert q.get(1) == pytest.approx(0.5)
    assert q.get(3) == pytest.approx(0.5)


def test_mean_q_hand_values():
    assert mean_q_of_f(BIMODAL, 0.6875) == pytest.approx(25 / 11)
    assert mean_q_of_f(BIMODAL, 0.0) == pytest.approx(2.5)
    assert mean_q_of_f(BIMODAL, 1.0) == pytest.approx(2.0)


def test_mean_q_strictly_decreasing_multiclass():
    last = math.inf
    for i in range(1, 101):
        cur = mean_q_of_f(BIMODAL, i / 100)
        assert cur < last
        last = cur


def test_mean_q_constant_for_regular():
    # single degree class: every sample shows the same degree at any coverage
    d = DegreeDistribution({5: 1.0})
    for f in (1e-6, 0.3, 0.9, 1.0):
        assert mean_q_of_f(d, f) == pytest.approx(5.0, abs=1e-12)


def test_rw_expected():
    q, mean = rw_expected(BIMODAL)
    assert q.get(1) == pytest.approx(0.25)
    assert q.get(3) == pytest.approx(0.75)
    assert mean == pytest.approx(2.5)
    assert moments(BIMODAL)[1] == pytest.approx(mean)


def test_numerical_stability_extreme_t():
    d = DegreeDistribution({k: k ** -2.5 for k in range(2, 101)}, normalize=True)
    q = q_k_of_t(d, 1e-12)
    assert abs(sum(p for _, p in q.items()) - 1.0) < 1e-9
    assert q.get(2) == pytest.approx(rw_expected(d)[0].get(2), rel=1e-6)
    assert f_of_t(d, 1e-300) >= 0.0


# --- exact step oracle ----------------------------------------------------

def _brute_force_step(degrees, step):
    """Enumerate every draw order of degree-weighted sampling without
    replacement and accumulate the marginal law of the step-th draw."""
    n = len(degrees)
    probs = [0.0] * n
    nodes = [v for v in range(n) if degrees[v] > 0]
    for order in itertools.permutations(nodes, step):
        p = 1.0
        remaining = sum(degrees)
        for v in order:
            p *= degrees[v] / remaining
            remaining -= degrees[v]
        probs[order[-1]] += p
    return probs


def test_step1_hand_values():
    assert exact_step_distribution([1, 1, 2], 1) == pytest.approx([0.25, 0.25, 0.5])


def test_step2_hand_values():
    assert exact_step_distribution([1, 1, 2], 2) == pytest.approx([1 / 3, 1 / 3, 1 / 3])


def test_step3_hand_values():
    # P(third = v) = 1 - P(first = v) - P(second = v)
    assert exact_step_distribution([1, 1, 2], 3) == pytest.approx([5 / 12, 5 / 12, 1 / 6])


def test_steps_match_brute_force_enumeration():
    # every reachable step, on sequences with and without a degree-0 node
    rng = random.Random(17)
    for i in range(30):
        n = rng.randrange(3, 7)
        degrees = [rng.randrange(1, 5) for _ in range(n)]
        if i % 2:
            degrees.insert(rng.randrange(n + 1), 0)
        for step in range(1, n + 1):
            got = exact_step_distribution(degrees, step)
            want = _brute_force_step(degrees, step)
            assert got == pytest.approx(want, abs=1e-12)


def test_step_rejects_unsupported_inputs():
    with pytest.raises(ValueError, match="step 4 is not always reachable"):
        exact_step_distribution([1, 1, 2], 4)  # more steps than nodes
    with pytest.raises(ValueError):
        exact_step_distribution([1, 1], 3)
    # a step far past the last draw stops once every node is drawn, not after step passes
    start = time.perf_counter()
    with pytest.raises(ValueError, match="step 100000000 is not always reachable"):
        exact_step_distribution([1, 0, 2], 10**8)
    assert time.perf_counter() - start < 1.0
    with pytest.raises(ValueError, match="step must be >= 1"):
        exact_step_distribution([1, 1, 2], 0)
    with pytest.raises(ValueError, match="degrees must be nonnegative"):
        exact_step_distribution([2, -1, 1], 1)
    with pytest.raises(ValueError, match="degree sequence has no stubs"):
        exact_step_distribution([0, 0], 1)
    # 13 nodes, past any size cap: still the exact law
    degrees = list(range(1, 14))
    assert exact_step_distribution(degrees, 3) == pytest.approx(
        _brute_force_step(degrees, 3), abs=1e-12)


def test_curve_rows_shape():
    rows = curve_rows(BIMODAL, [0.25, 0.5, 1.0])
    assert [r["f"] for r in rows] == [0.25, 0.5, 1.0]
    assert rows[-1]["mean_q"] == pytest.approx(2.0)
    assert all(0.0 <= r["t"] <= 1.0 for r in rows)
    import json
    q = json.loads(rows[1]["q_k_json"])
    assert set(q) == {"1", "3"}


def test_curve_rows_equal_t_of_f_and_mean_q_of_f():
    # one scan-time solve per row gives the same bits as the two public calls
    d = DegreeDistribution({0: 0.1, 1: 0.3, 3: 0.4, 9: 0.2})
    grid = [0.0, 0.001, 0.05, 0.3, 0.6, 0.85, 0.899999, 0.9]
    for row, f in zip(curve_rows(d, grid), grid):
        assert row["t"] == t_of_f(d, f)
        assert row["mean_q"] == mean_q_of_f(d, f)
