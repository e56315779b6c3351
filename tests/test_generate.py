"""Degree sequences, configuration model, and assortativity rewiring."""

import random
from collections import Counter

import pytest

from crawlbias import (DegreeDistribution, Graph, assortativity, configuration_model,
                       degree_distribution, degree_sequence_from_distribution,
                       rewire_to_assortativity)


def test_sequence_exact_fractions():
    d = DegreeDistribution({2: 1.0})
    assert degree_sequence_from_distribution(d, 5) == [2, 2, 2, 2, 2]
    d = DegreeDistribution({1: 0.5, 3: 0.5})
    assert sorted(degree_sequence_from_distribution(d, 4)) == [1, 1, 3, 3]


def test_sequence_parity_fix():
    # counts round to (2,1) or (1,2); either has odd stub sum, so one node
    # must be bumped to make the total even
    d = DegreeDistribution({1: 0.5, 2: 0.5})
    seq = degree_sequence_from_distribution(d, 3)
    assert len(seq) == 3
    assert sum(seq) % 2 == 0
    assert sorted(seq) == [1, 1, 2]


def test_sequence_rounding_stays_close():
    d = DegreeDistribution({1: 1 / 3, 2: 1 / 3, 5: 1 / 3})
    for n in (7, 10, 100, 999):
        seq = degree_sequence_from_distribution(d, n)
        assert len(seq) == n
        assert sum(seq) % 2 == 0
        counts = Counter(seq)
        for k, p in d.items():
            # largest-remainder rounding plus at most one parity bump
            assert abs(counts.get(k, 0) - p * n) <= 2


def test_sequence_refuses_a_law_that_rounds_to_no_edges():
    # 5% on degree 1 rounds to no node of 10: every node would get degree 0
    d = DegreeDistribution({0: 0.95, 1: 0.05})
    with pytest.raises(ValueError, match="rounds to no edges at 10 nodes"):
        degree_sequence_from_distribution(d, 10)
    assert sorted(degree_sequence_from_distribution(d, 40)) == [0] * 38 + [1, 1]
    with pytest.raises(ValueError, match="need at least one node"):
        degree_sequence_from_distribution(d, 0)


def test_sequence_large_n_matches_distribution():
    d = DegreeDistribution({1: 0.2, 3: 0.5, 7: 0.3})
    n = 10000
    counts = Counter(degree_sequence_from_distribution(d, n))
    for k, p in d.items():
        assert abs(counts[k] / n - p) < 1e-3


def test_configuration_model_forced_matchings():
    g = configuration_model([1, 1], random.Random(0))
    assert sorted(g.edges()) == [(0, 1)]
    g = configuration_model([2], random.Random(0))
    assert list(g.edges()) == [(0, 0)]


def test_configuration_model_rejects_odd_sum():
    with pytest.raises(ValueError):
        configuration_model([1, 1, 1], random.Random(0))


def test_configuration_model_preserves_degrees():
    rng = random.Random(42)
    d = DegreeDistribution({1: 0.3, 2: 0.4, 6: 0.3})
    seq = degree_sequence_from_distribution(d, 200)
    for _ in range(20):
        g = configuration_model(seq, rng)
        assert g.degrees() == seq
        assert sum(g.degrees()) == 2 * g.edge_count


def test_configuration_model_self_loop_rate():
    # degrees [1,1,2]: of the 3 equally likely stub matchings, exactly one
    # pairs the degree-2 node with itself
    rng = random.Random(7)
    loops = 0
    runs = 100000
    for _ in range(runs):
        g = configuration_model([1, 1, 2], rng)
        if g.adjacency[2].count(2) == 2:
            loops += 1
    assert abs(loops / runs - 1 / 3) < 0.01


def test_configuration_model_uniform_over_matchings():
    # degrees [1,1,1,1]: three perfect matchings, each with probability 1/3
    rng = random.Random(3)
    counts = Counter()
    runs = 90000
    for _ in range(runs):
        g = configuration_model([1, 1, 1, 1], rng)
        counts[tuple(sorted(g.edges()))] += 1
    assert len(counts) == 3
    for c in counts.values():
        assert abs(c / runs - 1 / 3) < 0.01


def _irregular_graph(n=300, seed=5):
    d = DegreeDistribution({2: 0.6, 3: 0.2, 8: 0.2})
    seq = degree_sequence_from_distribution(d, n)
    return configuration_model(seq, random.Random(seed))


def test_rewire_reaches_positive_and_negative_targets():
    g = _irregular_graph()
    for target in (0.25, -0.25):
        res = rewire_to_assortativity(g, target, random.Random(11), tolerance=0.02)
        assert abs(res.achieved_r - target) <= 0.02
        assert sorted(res.graph.degrees()) == sorted(g.degrees())
        assert degree_distribution(res.graph) == degree_distribution(g)
        assert res.accepted > 0
        assert res.achieved_r == assortativity(res.graph)  # the tracked r, exactly


def test_rewire_noop_when_already_at_target():
    class CountingGraph(Graph):
        def edges(self):
            self.edge_calls += 1
            return super().edges()

    g = CountingGraph(_irregular_graph().adjacency)
    g.edge_calls = 0
    r = assortativity(g)
    res = rewire_to_assortativity(g, r, random.Random(1), tolerance=0.02)
    assert res.accepted == 0
    assert res.graph is g
    assert g.edge_calls == 0  # no proposal, so no edge table


def test_rewire_reached_says_whether_r_is_within_tolerance():
    # hits, misses (an unreachable target, a step cap) and graphs already within
    # tolerance, which come back as they are with no proposal made
    seen = set()
    for n, seed in ((300, 5), (200, 9), (150, 21)):
        g = _irregular_graph(n=n, seed=seed)
        r0 = assortativity(g)
        for target, options in ((0.25, {}), (-0.3, {}), (-0.95, {}), (0.3, {"max_steps": 40}),
                                (r0 + 0.015, {}), (r0, {"tolerance": 0.0})):
            res = rewire_to_assortativity(g, target, random.Random(seed), **options)
            tolerance = options.get("tolerance", 0.02)
            assert res.reached == (abs(res.achieved_r - target) <= tolerance)
            if abs(r0 - target) <= tolerance:
                assert res.graph is g
                assert (res.achieved_r, res.accepted, res.proposals) == (r0, 0, 0)
            else:
                assert res.proposals > 0
            if res.accepted:
                assert res.achieved_r == assortativity(res.graph)
            seen.add(res.reached)
    assert seen == {True, False}


def test_rewire_rejects_regular_graph():
    g = Graph.from_edges(3, [(0, 1), (1, 2), (2, 0)])
    with pytest.raises(ValueError):
        rewire_to_assortativity(g, 0.5, random.Random(0))
    with pytest.raises(ValueError, match="need at least two edges"):
        rewire_to_assortativity(Graph.from_edges(3, [(0, 1)]), 0.5, random.Random(0))


def test_rewire_rejects_target_outside_unit_interval():
    g = _irregular_graph()
    for target in (5.0, -1.5, float("nan")):
        rng = random.Random(0)
        state = rng.getstate()
        with pytest.raises(ValueError, match="target_r must lie in"):
            rewire_to_assortativity(g, target, rng)
        assert rng.getstate() == state  # refused before any proposal


def test_rewire_rejects_negative_tolerance():
    g = _irregular_graph()
    rng = random.Random(0)
    state = rng.getstate()
    with pytest.raises(ValueError, match="tolerance must be >= 0"):
        rewire_to_assortativity(g, 0.1, rng, tolerance=-0.5)
    assert rng.getstate() == state


def test_rewire_gap_never_widens():
    # the acceptance rule is strict improvement, so replaying the public
    # result at several intermediate step caps must approach the target
    g = _irregular_graph(n=200, seed=9)
    target = -0.3
    gaps = []
    for steps in (0, 200, 2000, 20000):
        res = rewire_to_assortativity(g, target, random.Random(13),
                                      tolerance=1e-6, max_steps=steps)
        gaps.append(abs(res.achieved_r - target))
    assert all(b <= a + 1e-12 for a, b in zip(gaps, gaps[1:]))


def test_rewire_keeps_graph_simple():
    # proposals creating self-loops or duplicate edges must be rejected:
    # starting from a simple graph the result stays simple
    g = _irregular_graph(n=150, seed=21)
    simple_edges = {e for e in g.edges() if e[0] != e[1]}
    simple = Graph.from_edges(g.node_count, sorted(simple_edges))
    res = rewire_to_assortativity(simple, 0.3, random.Random(2), tolerance=0.05)
    edges = list(res.graph.edges())
    assert all(u != v for u, v in edges)
    assert len(edges) == len(set(edges))
