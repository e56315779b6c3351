"""Bias-removal estimators and neighborhood-sample estimators."""

import math
import random
from dataclasses import replace

import pytest

import crawlbias.analytic
import crawlbias.estimators
from crawlbias import (ConvergenceError, DegreeDistribution, Graph, NeighborhoodScheme,
                       SampleTrace, arbitrary_topology_estimate, ball, bfs, bfs_correct,
                       configuration_model, degree_sequence_from_distribution, empirical_q,
                       f_of_t, largest_component_nodes, mhrw, mhrw_correct, q_k_of_t,
                       random_walk, rmse_compare, rw_correct)
from crawlbias.analytic import _inclusion

PATH3 = Graph.from_edges(3, [(0, 1), (1, 2)])


def _trace(degrees, with_replacement=False, x=None, coverage=0.5):
    return SampleTrace("test", 0, list(range(len(degrees))), list(degrees),
                       with_replacement, coverage, x_values=x)


def _config_graph(d, n, seed):
    seq = degree_sequence_from_distribution(d, n)
    return configuration_model(seq, random.Random(seed))


def test_empirical_q():
    q = empirical_q(_trace([2, 2, 4, 2]))
    assert q.get(2) == pytest.approx(0.75)
    assert q.get(4) == pytest.approx(0.25)


def test_rw_correct_hand_value():
    rep = rw_correct(_trace([2, 2, 4]))
    assert rep.mean == pytest.approx(2.4)        # 3 / (1/2 + 1/2 + 1/4)
    assert rep.mean_degree == pytest.approx(2.4)
    assert rep.technique == "rw-corrected"


def test_rw_correct_regular_trace_is_plain_mean():
    rep = rw_correct(_trace([3, 3, 3], x=[1.0, 2.0, 6.0]))
    assert rep.mean == pytest.approx(3.0)


def test_rw_correct_general_attribute():
    # weights 1/k: (1/2 + 0/2 + 1/4) / (1/2 + 1/2 + 1/4) = 0.6
    rep = rw_correct(_trace([2, 2, 4], x=[1.0, 0.0, 1.0]))
    assert rep.mean == pytest.approx(0.6)


def test_rw_correct_duplication_invariant():
    degrees = [2, 5, 3, 5]
    once = rw_correct(_trace(degrees, with_replacement=True))
    twice = rw_correct(_trace(degrees + degrees, with_replacement=True))
    assert once.mean == pytest.approx(twice.mean)


def test_rw_correct_rejects_bad_traces():
    with pytest.raises(ValueError):
        rw_correct(_trace([2, 0, 3]))
    with pytest.raises(ValueError):
        rw_correct(_trace([]))


def test_rw_correct_degree_distribution():
    rep = rw_correct(_trace([1, 1, 2]))
    # reweighting by 1/k: (1, 1, 1/2) -> normalized (0.4, 0.4, 0.2)
    assert rep.distribution.get(1) == pytest.approx(0.8)
    assert rep.distribution.get(2) == pytest.approx(0.2)


def test_rw_correct_long_walk_recovers_mean_degree():
    g = _config_graph(DegreeDistribution({2: 0.5, 6: 0.5}), 2000, 3)
    comp = sorted(largest_component_nodes(g))
    sub_degrees = [g.degree(v) for v in comp]
    truth = sum(sub_degrees) / len(sub_degrees)
    trace = random_walk(g, comp[0], 200000, random.Random(4))
    assert rw_correct(trace).mean_degree == pytest.approx(truth, rel=0.02)


def test_mhrw_correct_plain_mean():
    rep = mhrw_correct(_trace([1, 2, 3], x=[1.0, 2.0, 3.0]))
    assert rep.mean == pytest.approx(2.0)
    assert rep.distribution == empirical_q(_trace([1, 2, 3]))


def test_mhrw_correct_long_run():
    g = _config_graph(DegreeDistribution({2: 0.5, 6: 0.5}), 1000, 9)
    comp = sorted(largest_component_nodes(g))
    truth = sum(g.degree(v) for v in comp) / len(comp)
    trace = mhrw(g, comp[0], 200000, random.Random(10))
    assert mhrw_correct(trace).mean_degree == pytest.approx(truth, rel=0.02)


def test_bfs_correct_distribution_hand_value():
    # q = (1/3, 2/3) on degrees (1, 3) implies coverage 1 / (2/3 + 16/21) = 0.7 at t = 0.5
    rep = bfs_correct(_trace([1, 3, 3]), 0.7)
    assert rep.t_value == 0.5
    assert rep.distribution.get(1) == pytest.approx(14 / 30)    # weights 0.5 and 0.875
    assert rep.distribution.get(3) == pytest.approx(16 / 30)


def test_bfs_correct_distribution_identity_and_validation():
    trace = _trace([1, 3, 3])
    rep = bfs_correct(trace, 1.0)
    assert rep.t_value == 1.0 and rep.distribution == empirical_q(trace)
    single = _trace([4, 4, 4])
    assert bfs_correct(single, 0.123).distribution == DegreeDistribution({4: 1.0})
    with pytest.raises(ValueError):
        bfs_correct(trace, 0.0)


def test_bfs_correct_distribution_roundtrip():
    # re-applying the forward coverage map at t* to the corrected law returns q
    trace = _trace([1] * 2 + [2] * 3 + [7] * 5)
    q = empirical_q(trace)
    for f in (0.05, 0.4, 0.9):
        rep = bfs_correct(trace, f)
        back = q_k_of_t(rep.distribution, rep.t_value)
        for k, v in q.items():
            assert back.get(k) == pytest.approx(v, abs=1e-12)


def test_bfs_correct_regular_closed_form():
    trace = _trace([2] * 10, coverage=0.75)
    rep = bfs_correct(trace, 0.75)
    assert rep.t_value == pytest.approx(0.5, abs=1e-6)
    assert rep.mean == pytest.approx(2.0)
    assert rep.distribution.get(2) == pytest.approx(1.0)


def test_bfs_correct_recovers_generator_distribution():
    d = DegreeDistribution({1: 0.5, 4: 0.5})
    rng = random.Random(21)
    err = 0.0
    runs = 40
    for i in range(runs):
        g = _config_graph(d, 2000, 100 + i)
        comp = sorted(largest_component_nodes(g))
        seed = comp[rng.randrange(len(comp))]
        trace = bfs(g, seed, 600)
        rep = bfs_correct(trace, len(trace.nodes) / g.node_count)
        err += rep.mean - d.mean()
    assert abs(err / runs) < 0.05 * d.mean()


def test_bfs_correct_tiny_f_matches_rw_correct():
    trace = _trace([2, 3, 5, 3, 2], coverage=1e-6)
    via_t = bfs_correct(trace, 1e-6)
    via_rw = rw_correct(trace)
    assert via_t.mean == pytest.approx(via_rw.mean, abs=1e-6)


def test_bfs_correct_full_coverage_is_identity():
    trace = _trace([1, 1, 3, 5], coverage=1.0)
    rep = bfs_correct(trace, 1.0)
    assert rep.t_value == pytest.approx(1.0)
    assert rep.mean == pytest.approx(2.5)


def test_bfs_correct_general_attribute_weighting():
    # 2 nodes of degree 1 and 2 of degree 3 at half coverage: low-degree
    # x values must be up-weighted relative to the plain mean
    trace = _trace([1, 1, 3, 3], x=[1.0, 1.0, 0.0, 0.0], coverage=0.5)
    rep = bfs_correct(trace, 0.5)
    assert rep.mean > 0.5


def _per_record_mean(trace, x, inclusion):
    """The Hajek ratio written record by record, as a float list per record."""
    if x is None:
        x = trace.x_values if trace.x_values is not None else trace.degrees
    xs = [float(v) for v in x]
    weight = {k: 1.0 / inclusion(k) for k in set(trace.degrees)}
    inv = [weight[k] for k in trace.degrees]
    return sum(xv * w for xv, w in zip(xs, inv)) / sum(inv)


def test_streamed_reweighting_equals_per_record_formula():
    d = DegreeDistribution({1: 0.2, 2: 0.3, 3: 0.2, 7: 0.2, 40: 0.1})
    g = _config_graph(d, 2000, 4)
    comp = largest_component_nodes(g)
    rng = random.Random(31)
    for f in (0.01, 0.1, 0.4, 0.8):
        for _ in range(3):
            trace = bfs(g, comp[rng.randrange(len(comp))], max(2, int(f * len(comp))))
            carried = replace(trace, x_values=[rng.uniform(0.0, 9.0) for _ in trace.nodes])
            explicit = [rng.uniform(-5.0, 50.0) for _ in trace.nodes]
            for tr, x in ((trace, None), (carried, None), (carried, explicit)):
                rep = rw_correct(tr, x)
                assert rep.mean == _per_record_mean(tr, x, lambda k: k)
                rep = bfs_correct(tr, tr.coverage, x)
                assert rep.mean == _per_record_mean(tr, x, lambda k: _inclusion(rep.t_value, k))
            assert mhrw_correct(trace).mean == sum(map(float, trace.degrees)) / len(trace)


def test_bfs_correct_rejects_bad_inputs():
    with pytest.raises(ValueError):
        bfs_correct(_trace([2, 2], with_replacement=True), 0.5)
    with pytest.raises(ValueError):
        bfs_correct(_trace([2, 2]), 0.0)
    with pytest.raises(ValueError):
        bfs_correct(_trace([2, 2]), 1.5)
    with pytest.raises(ValueError):
        bfs_correct(_trace([0, 2]), 0.5)


def test_convergence_error_carries_diagnostics():
    # one class, defined with the scan-time solve and raised by t_of_f and bfs_correct
    assert ConvergenceError is crawlbias.estimators.ConvergenceError
    assert ConvergenceError is crawlbias.analytic.ConvergenceError
    assert issubclass(ConvergenceError, RuntimeError)
    err = ConvergenceError("no", iterations=7, residual=0.25)
    assert err.iterations == 7
    assert err.residual == pytest.approx(0.25)


def test_bfs_correct_iteration_cap_raises_with_diagnostics():
    trace = _trace([1, 1, 3, 5], coverage=0.5)
    full = bfs_correct(trace, 0.5)
    assert 3 < full.iterations < 500 and abs(full.residual) <= 1e-8
    with pytest.raises(ConvergenceError) as info:
        bfs_correct(trace, 0.5, max_iter=3)
    assert info.value.iterations == 3
    assert abs(info.value.residual) > 1e-8


def _reference_bfs_correct(trace, f_real, tol=1e-8, max_iter=500):
    """bfs_correct as it was: each bisection step corrects q_hat at t and feeds the
    corrected law forward through f_of_t."""
    q_hat = empirical_q(trace)

    def corrected_at(t):
        return DegreeDistribution({k: qk / _inclusion(t, k) for k, qk in q_hat.items()},
                                  normalize=True)

    def residual(t):
        return f_of_t(corrected_at(t), t) - f_real

    t_star, res_star, iterations, lo, hi = 1.0, residual(1.0), 1, 0.0, 1.0
    while abs(res_star) > tol:
        assert iterations < max_iter
        iterations += 1
        t_star = 0.5 * (lo + hi)
        res_star = residual(t_star)
        if res_star < 0.0:
            lo = t_star
        else:
            hi = t_star
    weight = {k: 1.0 / f_of_t(DegreeDistribution({k: 1.0}), t_star) for k in q_hat.support()}
    inv = [weight[k] for k in trace.degrees]
    mean = sum(k * w for k, w in zip(trace.degrees, inv)) / sum(inv)
    return t_star, iterations, res_star, mean, corrected_at(t_star)


def test_bfs_correct_closed_form_matches_reference_solver():
    # f(p_hat(t), t) = 1 / sum_k q_k / pi_k(t): the same bisection, one sum per step
    rng = random.Random(41)
    laws = (DegreeDistribution({1: 0.5, 4: 0.5}), DegreeDistribution({2: 0.3, 3: 0.4, 9: 0.3}),
            DegreeDistribution({k: 1 / 8 for k in range(1, 9)}))
    checked = 0
    for i, d in enumerate(laws):
        g = _config_graph(d, 1500, 60 + i)
        comp = sorted(largest_component_nodes(g))
        for f in (0.01, 0.05, 0.1, 0.3, 0.6, 0.9):
            for _ in range(4):
                trace = bfs(g, comp[rng.randrange(len(comp))], round(f * g.node_count))
                f_real = len(trace.nodes) / g.node_count
                rep = bfs_correct(trace, f_real)
                t_star, iterations, res_star, mean, p_hat = _reference_bfs_correct(trace, f_real)
                assert rep.t_value == t_star and rep.iterations == iterations
                assert abs(rep.residual - res_star) <= 1e-14
                assert rep.mean == mean and rep.distribution == p_hat
                checked += 1
    assert checked == 72


# --- neighborhood estimators ---------------------------------------------------

DEGREES3 = [1.0, 2.0, 1.0]


def test_half_radius_hand_values():
    scheme = NeighborhoodScheme("half_radius", 2)
    estimates = [arbitrary_topology_estimate(PATH3, DEGREES3, s, scheme).total
                 for s in range(3)]
    assert estimates == pytest.approx([3.5, 5.0, 3.5])
    assert sum(estimates) / 3 == pytest.approx(4.0)  # exactly unbiased


def test_trivial_hand_values():
    scheme = NeighborhoodScheme("trivial", 2)
    estimates = [arbitrary_topology_estimate(PATH3, DEGREES3, s, scheme).total
                 for s in range(3)]
    assert estimates == pytest.approx([3.0, 6.0, 3.0])
    assert sum(estimates) / 3 == pytest.approx(4.0)


def test_single_node_graph_any_scheme():
    g = Graph.from_edges(1, [(0, 0)])
    x = [7.5]
    for scheme in (NeighborhoodScheme("trivial", 2),
                   NeighborhoodScheme("half_radius", 2),
                   NeighborhoodScheme("extreme", 2, special=0)):
        assert arbitrary_topology_estimate(g, x, 0, scheme).total == pytest.approx(7.5)


def test_scheme_validation():
    with pytest.raises(ValueError):
        NeighborhoodScheme("weird", 2)
    with pytest.raises(ValueError):
        NeighborhoodScheme("half_radius", 0)
    with pytest.raises(ValueError):
        NeighborhoodScheme("extreme", 2)            # missing special node
    with pytest.raises(ValueError):
        NeighborhoodScheme("trivial", 2, seed_probs=(0.5, 0.6))
    with pytest.raises(ValueError):
        NeighborhoodScheme("trivial", 2, seed_probs=(1.5, -0.5))


def test_extended_requires_oracle_mode():
    scheme = NeighborhoodScheme("half_radius_extended", 2)
    with pytest.raises(ValueError):
        arbitrary_topology_estimate(PATH3, DEGREES3, 0, scheme, mode="sample_only")
    rep = arbitrary_topology_estimate(PATH3, DEGREES3, 0, scheme, mode="oracle")
    assert rep.total > 0


def test_half_radius_nonuniform_needs_oracle():
    probs = (0.5, 0.25, 0.25)
    scheme = NeighborhoodScheme("half_radius", 2, seed_probs=probs)
    with pytest.raises(ValueError):
        arbitrary_topology_estimate(PATH3, DEGREES3, 0, scheme, mode="sample_only")
    rep = arbitrary_topology_estimate(PATH3, DEGREES3, 0, scheme, mode="oracle")
    assert rep.total > 0


def _random_graph(rng, n_max=14):
    n = rng.randrange(3, n_max)
    edges = []
    for v in range(1, n):
        edges.append((rng.randrange(v), v))  # spanning tree keeps it connected
    for _ in range(rng.randrange(0, n)):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.append((u, v))
    return Graph.from_edges(n, edges)


def _schemes_for(g, rng):
    special = rng.randrange(g.node_count)
    for depth in (2, 4):
        yield NeighborhoodScheme("trivial", depth), "sample_only"
        yield NeighborhoodScheme("extreme", depth, special=special), "sample_only"
        yield NeighborhoodScheme("half_radius", depth), "sample_only"
        yield NeighborhoodScheme("half_radius_extended", depth), "oracle"


def test_exact_unbiasedness_over_seed_enumeration():
    rng = random.Random(33)
    for _ in range(20):
        g = _random_graph(rng)
        n = g.node_count
        x = [rng.uniform(0.5, 4.0) for _ in range(n)]
        truth = sum(x)
        for scheme, mode in _schemes_for(g, rng):
            mean = sum(arbitrary_topology_estimate(g, x, s, scheme, mode).total
                       for s in range(n)) / n
            assert mean == pytest.approx(truth, rel=1e-9), scheme.variant


def test_exact_unbiasedness_nonuniform_seed_probs():
    rng = random.Random(41)
    for _ in range(10):
        g = _random_graph(rng, n_max=10)
        n = g.node_count
        raw = [rng.uniform(0.2, 1.0) for _ in range(n)]
        z = sum(raw)
        probs = tuple(w / z for w in raw)
        x = [rng.uniform(0.5, 4.0) for _ in range(n)]
        truth = sum(x)
        for scheme, mode in (
            (NeighborhoodScheme("trivial", 2, seed_probs=probs), "sample_only"),
            (NeighborhoodScheme("extreme", 2, special=0, seed_probs=probs), "sample_only"),
            (NeighborhoodScheme("half_radius", 2, seed_probs=probs), "oracle"),
            (NeighborhoodScheme("half_radius_extended", 2, seed_probs=probs), "oracle"),
        ):
            mean = sum(probs[s] * arbitrary_topology_estimate(g, x, s, scheme, mode).total
                       for s in range(n))
            assert mean == pytest.approx(truth, rel=1e-9), scheme.variant


class _ReadLog(list):
    """x that records every index read."""

    def __init__(self, values, reads):
        super().__init__(values)
        self.reads = reads

    def __getitem__(self, i):
        self.reads.append(i)
        return super().__getitem__(i)


def test_half_radius_reads_stay_inside_sample(monkeypatch):
    # in sample_only mode every ball the estimator draws, and every x it reads, lies
    # inside the observed sample B_depth(seed): a ball B_r(center) does when
    # dist(seed, center) + r <= depth, by the triangle inequality
    calls = []

    def logged_ball(g, center, radius):
        calls.append((center, radius))
        return ball(g, center, radius)

    monkeypatch.setattr(crawlbias.estimators, "ball", logged_ball)
    rng = random.Random(55)
    for _ in range(30):
        g = _random_graph(rng)
        n = g.node_count
        seed = rng.randrange(n)
        for depth in (1, 2, 3, 4):
            dist = {}
            for r in range(depth, -1, -1):
                dist.update(dict.fromkeys(ball(g, seed, r), r))
            other = rng.choice([v for v in range(n) if v != seed])
            for scheme in (NeighborhoodScheme("trivial", depth),
                           NeighborhoodScheme("extreme", depth, special=seed),
                           NeighborhoodScheme("extreme", depth, special=other),
                           NeighborhoodScheme("half_radius", depth)):
                calls.clear()
                reads = []
                x = _ReadLog([rng.uniform(0.5, 4.0) for _ in range(n)], reads)
                arbitrary_topology_estimate(g, x, seed, scheme, "sample_only")
                assert reads, scheme
                assert all(v in dist for v in reads), scheme
                assert all(c in dist and dist[c] + r <= depth for c, r in calls), scheme
            assert calls  # the half-radius weights draw balls


def test_rmse_compare_perfect_estimator_zero_rmse():
    # constant attribute on a 4-cycle: the half-radius scheme with exact inclusion
    # weights and the full-coverage corrected traversal reproduce the truth from every seed
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    x = [2.0, 2.0, 2.0, 2.0]
    rows = rmse_compare(g, x, 8, random.Random(1))
    assert [r["method"] for r in rows] == ["arb-half_radius", "bfs-corrected"]
    for row in rows:
        assert row["rmse"] == 0.0
        assert row["mean_estimate"] == 2.0
        assert row["replicas"] == 8


def test_rmse_compare_includes_corrected_traversal():
    g = _config_graph(DegreeDistribution({2: 0.5, 5: 0.5}), 400, 77)
    x = [float(k) for k in g.degrees()]
    rows = rmse_compare(g, x, 12, random.Random(5), depth=2)
    methods = {r["method"] for r in rows}
    assert methods == {"arb-half_radius", "bfs-corrected"}
    for r in rows:
        assert r["replicas"] == 12
        assert r["rmse"] >= 0.0


def test_rmse_compare_validation():
    with pytest.raises(ValueError):
        rmse_compare(PATH3, DEGREES3, 0, random.Random(0))
