"""Crawling techniques, the stub-level traversal, and trace serialization."""

import io
import math
import random
import re
from collections import Counter, deque
from dataclasses import replace

import pytest

from crawlbias import (FIFO, LIFO, DegreeDistribution, Graph, QueueDiscipline, SampleTrace,
                       StubAssignment, assign_stub_indices, ball, bfs, configuration_model,
                       degree_sequence_from_distribution, dfs, exact_step_distribution,
                       forest_fire, largest_component_nodes, mhrw, random_walk, randomized_fifo,
                       snowball, stub_level_traversal, trace_from_csv, trace_to_csv,
                       weighted_without_replacement)
from crawlbias.experiments import TECHNIQUES, TechniqueSpec, run_technique, truncated_power_law
from crawlbias.samplers import _randbelow

PATH3 = Graph.from_edges(3, [(0, 1), (1, 2)])
PATH4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
STAR = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
TRIANGLE = Graph.from_edges(3, [(0, 1), (1, 2), (2, 0)])


def _config_graph(n=300, seed=5):
    d = DegreeDistribution({2: 0.5, 5: 0.5})
    seq = degree_sequence_from_distribution(d, n)
    return configuration_model(seq, random.Random(seed))


# --- traversals on fixed graphs --------------------------------------------

def test_bfs_forced_orders():
    assert bfs(PATH3, 1, 3).nodes in ([1, 0, 2], [1, 2, 0])
    assert bfs(PATH3, 0, 1).nodes == [0]
    assert bfs(STAR, 1, 2).nodes == [1, 0]


def test_bfs_hop_distances_non_decreasing():
    g = _config_graph()
    seed = sorted(largest_component_nodes(g))[0]
    trace = bfs(g, seed, 200)
    dist = {seed: 0}
    frontier = [seed]
    while frontier:
        nxt = []
        for u in frontier:
            for w in g.neighbors(u):
                if w not in dist:
                    dist[w] = dist[u] + 1
                    nxt.append(w)
        frontier = nxt
    hops = [dist[v] for v in trace.nodes]
    assert hops == sorted(hops)


def test_dfs_forced_path():
    assert dfs(PATH4, 0, 4).nodes == [0, 1, 2, 3]
    assert dfs(PATH4, 0, 1).nodes == [0]
    tri = dfs(TRIANGLE, 0, 3)
    assert sorted(tri.nodes) == [0, 1, 2]
    assert tri.nodes[1] in TRIANGLE.neighbors(tri.nodes[0])


def test_traversal_traces_have_distinct_nodes_and_coverage():
    g = _config_graph()
    seed = sorted(largest_component_nodes(g))[0]
    for trace in (bfs(g, seed, 120), dfs(g, seed, 120),
                  forest_fire(g, seed, 120, 0.6, random.Random(1)),
                  snowball(g, seed, 120, 2, random.Random(2))):
        assert len(set(trace.nodes)) == len(trace.nodes) == 120
        assert not trace.with_replacement
        assert trace.coverage == pytest.approx(120 / g.node_count)
        assert trace.degrees == [g.degree(v) for v in trace.nodes]


def test_trace_coverage_counts_distinct_nodes():
    g = _config_graph()
    seed = sorted(largest_component_nodes(g))[0]
    trace = bfs(g, seed, 150)
    assert trace.coverage == len(trace.nodes) / g.node_count
    for graph, walk in ((g, random_walk(g, seed, 600, random.Random(3))),
                        (g, mhrw(g, seed, 600, random.Random(4))),
                        (PATH3, random_walk(PATH3, 1, 10, random.Random(5)))):
        assert len(set(walk.nodes)) < len(walk.nodes)  # the walk revisits nodes
        assert walk.coverage == len(set(walk.nodes)) / graph.node_count


def test_every_nonseed_node_touches_an_earlier_node():
    g = _config_graph()
    seed = sorted(largest_component_nodes(g))[1]
    for trace in (bfs(g, seed, 80), dfs(g, seed, 80),
                  forest_fire(g, seed, 80, 0.5, random.Random(3)),
                  snowball(g, seed, 80, 3, random.Random(4))):
        seen = {trace.nodes[0]}
        for v in trace.nodes[1:]:
            assert any(w in seen for w in g.neighbors(v)), trace.technique
            seen.add(v)


def test_forest_fire_p1_equals_bfs():
    g = _config_graph(seed=8)
    giant = largest_component_nodes(g)
    seed = min(giant)
    for budget in (150, len(giant) + 10):  # the second is beyond the component
        want = bfs(g, seed, budget)
        for r in range(5):
            got = forest_fire(g, seed, budget, 1.0, random.Random(r))
            assert (got.nodes, got.revivals, want.revivals) == (want.nodes, 0, 0)
    assert sorted(want.nodes) == sorted(giant)


def test_forest_fire_revival_completes_budget():
    trace = forest_fire(STAR, 0, 4, 0.5, random.Random(6))
    assert sorted(trace.nodes) == [0, 1, 2, 3]


def test_snowball_restricts_referrals():
    # hub names only 2 of its 3 leaves per round, but revival still fills
    # the budget eventually
    rng = random.Random(9)
    trace = snowball(STAR, 0, 4, 2, rng)
    assert sorted(trace.nodes) == [0, 1, 2, 3]
    trace = snowball(PATH3, 0, 3, 1, rng)
    assert trace.nodes == [0, 1, 2]


def test_snowball_full_names_equals_bfs_law():
    g = _config_graph(seed=12)
    seed = sorted(largest_component_nodes(g))[0]
    want = bfs(g, seed, 100).nodes
    got = snowball(g, seed, 100, max(g.degrees()), random.Random(0)).nodes
    assert got == want  # every neighbor referred: the same FIFO crawl, node for node


def test_budget_capped_by_component():
    for trace in (bfs(PATH3, 0, 99), forest_fire(PATH3, 0, 99, 0.3, random.Random(1)),
                  snowball(PATH3, 0, 99, 1, random.Random(2))):
        assert sorted(trace.nodes) == [0, 1, 2]


# --- reference: the rescan revival the one revivable traversal replaced -------

def _rescan_traversal(g, seed, budget, rng, children):
    """forest_fire / snowball as they were: every stall rescans the whole sample
    for nodes with an unseen neighbor, then falls back to a fresh node of the
    seed's component. Returns the node order and the revival count."""
    adj = g.adjacency
    seen = bytearray(g.node_count)
    seen[seed] = 1
    order = [seed]
    q = deque([seed])
    component = None
    revivals = 0
    while len(order) < budget:
        while q and len(order) < budget:
            for w in children(q.popleft(), seen):
                seen[w] = 1
                order.append(w)
                q.append(w)
                if len(order) == budget:
                    q.clear()
                    break
        if len(order) >= budget:
            break
        candidates = [v for v in order if any(not seen[w] for w in adj[v])]
        if candidates:
            q.append(candidates[rng.randrange(len(candidates))])
        else:
            if component is None:
                component, stack = {seed}, [seed]
                while stack:
                    for w in adj[stack.pop()]:
                        if w not in component:
                            component.add(w)
                            stack.append(w)
            fresh = sorted(v for v in component if not seen[v])
            if not fresh:
                break
            source = fresh[rng.randrange(len(fresh))]
            seen[source] = 1
            order.append(source)
            q.append(source)
        revivals += 1
    return order, revivals


def _rescan_forest_fire(g, seed, budget, p, rng):
    def children(u, seen):
        for w in g.adjacency[u]:  # the seen check comes before the coin
            if not seen[w] and rng.random() < p:
                yield w
    return _rescan_traversal(g, seed, budget, rng, children)


def _rescan_snowball(g, seed, budget, names, rng):
    def children(u, seen):
        nbrs = g.adjacency[u]
        take = min(names, len(nbrs))
        picks = nbrs if take == len(nbrs) else [nbrs[i] for i in rng.sample(range(len(nbrs)), take)]
        for w in picks:
            if not seen[w]:
                yield w
    return _rescan_traversal(g, seed, budget, rng, children)


def test_revivable_traversal_matches_rescan_reference():
    # configuration-model multigraph (self-loops, parallel edges kept) with
    # many degree-1 nodes, so it has small components besides the giant one
    d = DegreeDistribution({1: 0.45, 2: 0.25, 3: 0.15, 6: 0.1, 12: 0.05})
    g = configuration_model(degree_sequence_from_distribution(d, 300), random.Random(3))
    assert any(v in g.adjacency[v] for v in range(300))
    assert any(len(set(a)) < len(a) for a in g.adjacency)
    giant = largest_component_nodes(g)
    small = max((ball(g, v, g.node_count) for v in range(g.node_count) if v not in giant),
                key=len)
    assert len(small) > 2
    revived = 0
    for start, budget in ((min(giant), 270), (min(small), len(small) + 5)):
        for r in range(4):
            for p in (0.3, 0.5):
                got = forest_fire(g, start, budget, p, random.Random(r))
                want, revivals = _rescan_forest_fire(g, start, budget, p, random.Random(r))
                assert (got.nodes, got.revivals) == (want, revivals)
                revived += revivals
            for names in (1, 2):
                got = snowball(g, start, budget, names, random.Random(r))
                want, revivals = _rescan_snowball(g, start, budget, names, random.Random(r))
                assert (got.nodes, got.revivals) == (want, revivals)
                revived += revivals
    assert revived > 100


# --- walks ------------------------------------------------------------------

def test_random_walk_single_step_law():
    counts = Counter(random_walk(PATH3, 1, 2, random.Random(i)).nodes[1]
                     for i in range(4000))
    assert abs(counts[0] / 4000 - 0.5) < 0.03
    assert abs(counts[2] / 4000 - 0.5) < 0.03


def test_random_walk_visits_match_degree_share():
    g = TRIANGLE
    trace = random_walk(g, 0, 60000, random.Random(4))
    counts = Counter(trace.nodes)
    for v in range(3):
        assert abs(counts[v] / len(trace.nodes) - 1 / 3) < 0.02
    assert trace.with_replacement


def test_random_walk_path_stationary():
    trace = random_walk(PATH3, 1, 120000, random.Random(10))
    counts = Counter(trace.nodes)
    n = len(trace.nodes)
    assert abs(counts[1] / n - 0.5) < 0.02   # middle node holds half the stubs
    assert abs(counts[0] / n - 0.25) < 0.02


def test_random_walk_steps_one():
    assert random_walk(PATH3, 2, 1, random.Random(0)).nodes == [2]


def test_randbelow_refuses_an_empty_range():
    rng = random.Random(0)
    for n in (0, -1):
        with pytest.raises(ValueError):
            _randbelow(rng.getrandbits, n)


def test_walks_from_an_isolated_node_raise_before_any_draw():
    g = Graph.from_edges(3, [(0, 1)])
    for walk in (random_walk, mhrw):
        rng = random.Random(0)
        state = rng.getstate()
        with pytest.raises(ValueError, match="isolated"):
            walk(g, 2, 5, rng)
        for start, steps, message in ((3, 5, "unknown node 3"), (0, 0, "steps must be >= 1")):
            with pytest.raises(ValueError, match=message):
                walk(g, start, steps, rng)
        assert rng.getstate() == state
        assert walk(g, 2, 1, rng).nodes == [2]


def test_traversal_and_draw_parameters_are_checked_before_any_draw():
    rng = random.Random(0)
    state = rng.getstate()
    for run, message in (
            (lambda: forest_fire(STAR, 0, 3, 0.0, rng), "spread probability must lie in"),
            (lambda: forest_fire(STAR, 0, 3, 1.5, rng), "spread probability must lie in"),
            (lambda: snowball(STAR, 0, 3, 0, rng), "names must be >= 1"),
            (lambda: weighted_without_replacement([1, 2, 1], 4, rng), "budget must lie in"),
            (lambda: weighted_without_replacement([1, 2, 1], -1, rng), "budget must lie in")):
        with pytest.raises(ValueError, match=message):
            run()
    assert rng.getstate() == state


def test_mhrw_acceptance_probabilities():
    # from the hub of a star (degree 3) each leaf (degree 1) is proposed
    # w.p. 1/3 and always accepted; staying put never happens
    trace = mhrw(STAR, 0, 20000, random.Random(2))
    transitions = Counter(trace.nodes[i + 1] for i in range(len(trace.nodes) - 1)
                          if trace.nodes[i] == 0)
    total = sum(transitions.values())
    assert transitions[0] == 0
    for leaf in (1, 2, 3):
        assert abs(transitions[leaf] / total - 1 / 3) < 0.02


def test_mhrw_rejection_records_current_node():
    # leaf -> hub proposals are accepted w.p. 1/3, otherwise the leaf is
    # re-recorded, so the trace may repeat nodes back to back
    trace = mhrw(STAR, 1, 9000, random.Random(3))
    repeats = sum(1 for i in range(len(trace.nodes) - 1)
                  if trace.nodes[i] == trace.nodes[i + 1] == 1)
    assert repeats > 0
    assert trace.with_replacement


def test_mhrw_long_run_uniform():
    g = _config_graph(n=120, seed=15)
    comp = sorted(largest_component_nodes(g))
    trace = mhrw(g, comp[0], 400000, random.Random(5))
    counts = Counter(trace.nodes)
    share = 1 / len(comp)
    for v in comp:
        assert abs(counts[v] / len(trace.nodes) - share) < 0.35 * share


def test_mhrw_on_regular_graph_never_rejects():
    trace = mhrw(TRIANGLE, 0, 5000, random.Random(6))
    assert all(a != b for a, b in zip(trace.nodes, trace.nodes[1:]))


# --- degree-weighted sampling without replacement ---------------------------

def test_wwor_is_permutation_at_full_budget():
    rng = random.Random(0)
    picks = weighted_without_replacement([3, 1, 4, 1, 5], 5, rng)
    assert sorted(picks) == [0, 1, 2, 3, 4]


def test_wwor_skips_zero_degree_nodes():
    rng = random.Random(1)
    picks = weighted_without_replacement([2, 0, 3], 3, rng)
    assert sorted(picks) == [0, 2]  # truncated at exhausted weight


def test_wwor_first_and_second_draw_marginals():
    rng = random.Random(2)
    first = Counter()
    second = Counter()
    runs = 120000
    for _ in range(runs):
        picks = weighted_without_replacement([1, 1, 2], 2, rng)
        first[picks[0]] += 1
        second[picks[1]] += 1
    assert abs(first[2] / runs - 0.5) < 0.01
    for v in range(3):
        assert abs(second[v] / runs - 1 / 3) < 0.01
    # draws past the second, against the exact law of the first three
    degrees = [1, 2, 3, 5, 1, 4, 2, 6]
    counts = [Counter() for _ in range(3)]
    runs = 60000
    for _ in range(runs):
        for tally, v in zip(counts, weighted_without_replacement(degrees, 3, rng)):
            tally[v] += 1
    for step, tally in enumerate(counts, start=1):
        exact = exact_step_distribution(degrees, step)
        for v in range(len(degrees)):
            assert abs(tally[v] / runs - exact[v]) < 0.01


def test_wwor_matches_naive_resampling_law():
    # cross-check the exponential-race sampler against direct inverse-cdf draws
    degrees = [1, 2, 3, 4]
    runs = 80000
    race_counts = Counter()
    naive_counts = Counter()
    rng = random.Random(3)
    for _ in range(runs):
        race_counts[tuple(weighted_without_replacement(degrees, 2, rng))] += 1
    rng = random.Random(4)
    for _ in range(runs):
        remaining = dict(enumerate(degrees))
        picks = []
        for _ in range(2):
            total = sum(remaining.values())
            u = rng.random() * total
            for v, w in remaining.items():
                u -= w
                if u < 0:
                    break
            picks.append(v)
            del remaining[v]
        naive_counts[tuple(picks)] += 1
    for pair in naive_counts:
        assert abs(race_counts[pair] / runs - naive_counts[pair] / runs) < 0.012


# --- stub-level traversal ----------------------------------------------------

HAND_ASSIGNMENT = StubAssignment(((0.1, 0.9), (0.3, 0.4), (0.2, 0.7)))


def test_stub_assignment_validation():
    assert HAND_ASSIGNMENT.stub_total == 6
    with pytest.raises(ValueError):
        StubAssignment(((0.1, 0.1), (0.2,)))  # duplicate index
    with pytest.raises(ValueError):
        StubAssignment(((1.5,), (0.2,)))      # outside [0,1]


def test_assign_stub_indices_counts():
    asg = assign_stub_indices([2, 1], random.Random(0))
    assert len(asg.indices[0]) == 2
    assert len(asg.indices[1]) == 1
    flat = [t for per_node in asg.indices for t in per_node]
    assert len(set(flat)) == 3
    assert all(0.0 <= t <= 1.0 for t in flat)


def test_min_index_cdf():
    # the smallest of k uniform indices has CDF 1-(1-t)^k
    rng = random.Random(8)
    runs = 40000
    k = 3
    t0 = 0.4
    hits = sum(min(assign_stub_indices([k], rng).indices[0]) <= t0 for _ in range(runs))
    assert abs(hits / runs - (1 - (1 - t0) ** k)) < 0.01


def test_stub_traversal_hand_example_fifo():
    g, trace = stub_level_traversal([2, 2, 2], HAND_ASSIGNMENT, 0, FIFO, 10)
    assert trace.nodes == [0, 2, 1]
    assert sorted(g.edges()) == [(0, 1), (0, 2), (1, 2)]
    assert trace.degrees == [2, 2, 2]


def test_stub_traversal_hand_example_other_disciplines_prefix():
    want = [0, 2, 1]
    for discipline in (LIFO, randomized_fifo(0.5)):
        _, trace = stub_level_traversal([2, 2, 2], HAND_ASSIGNMENT, 0, discipline, 10,
                                        rng=random.Random(1))
        assert trace.nodes == want[:len(trace.nodes)]


def test_stub_traversal_budget_one():
    _, trace = stub_level_traversal([2, 2, 2], HAND_ASSIGNMENT, 0, FIFO, 1)
    assert trace.nodes == [0]


def test_stub_traversal_realizes_full_matching_under_restart():
    # matching halts the moment the trace hits its budget, so full
    # realization needs headroom beyond the node count; under randomized_fifo a
    # burned-out stub of a visited node resurfaces in the restart and is followed
    rng = random.Random(19)
    for discipline in (FIFO, randomized_fifo(0.5)):
        for _ in range(50):
            seq = [rng.randrange(1, 5) for _ in range(10)]
            if sum(seq) % 2:
                seq[0] += 1
            asg = assign_stub_indices(seq, rng)
            g, trace = stub_level_traversal(seq, asg, 0, discipline, 2 * len(seq),
                                            rng=rng, restart=True)
            assert g.degrees() == seq
            assert sorted(trace.nodes) == sorted(range(len(seq)))
            g2, trace2 = stub_level_traversal(seq, asg, 0, discipline, len(seq),
                                              rng=rng, restart=True)
            assert sorted(trace2.nodes) == sorted(range(len(seq)))
            assert all(a <= b for a, b in zip(g2.degrees(), seq))


def test_stub_traversal_prefix_invariance_random_instances():
    rng = random.Random(23)
    disciplines = [FIFO, LIFO, randomized_fifo(0.7), randomized_fifo(0.3)]
    for _ in range(100):
        n = rng.randrange(4, 12)
        seq = [rng.randrange(1, 5) for _ in range(n)]
        if sum(seq) % 2:
            seq[0] += 1
        asg = assign_stub_indices(seq, rng)
        traces = [stub_level_traversal(seq, asg, 0, d, n, rng=random.Random(rng.random()))[1]
                  for d in disciplines]
        longest = max(traces, key=lambda t: len(t.nodes))
        for t in traces:
            assert t.nodes == longest.nodes[:len(t.nodes)]


def test_stub_traversal_discovery_order_is_min_index_order():
    rng = random.Random(29)
    for _ in range(100):
        n = rng.randrange(4, 12)
        seq = [rng.randrange(1, 5) for _ in range(n)]
        if sum(seq) % 2:
            seq[0] += 1
        asg = assign_stub_indices(seq, rng)
        _, trace = stub_level_traversal(seq, asg, 0, FIFO, n)
        min_index = {v: min(asg.indices[v]) for v in range(n)}
        nonseed = trace.nodes[1:]
        assert nonseed == sorted(nonseed, key=min_index.__getitem__)


def test_stub_traversal_discipline_validation():
    with pytest.raises(ValueError):
        QueueDiscipline("fifo", p=0.0)
    with pytest.raises(ValueError):
        randomized_fifo(1.5)
    with pytest.raises(ValueError):
        QueueDiscipline("priority")
    # the scan's own inputs: a start, a budget, an even stub total, one index per
    # stub, and an rng when stubs may burn out
    odd = StubAssignment(((0.1, 0.9), (0.3,), (0.2, 0.7)))
    for degrees, assignment, seed, discipline, budget, message in (
            ([2, 2, 2], HAND_ASSIGNMENT, 3, FIFO, 2, "unknown node 3"),
            ([2, 2, 2], HAND_ASSIGNMENT, 0, FIFO, 0, "budget must be >= 1"),
            ([2, 1, 2], odd, 0, FIFO, 2, "odd stub total"),
            ([2, 2, 1, 1], HAND_ASSIGNMENT, 0, FIFO, 2, "does not match the degree sequence"),
            ([2, 2, 2], HAND_ASSIGNMENT, 0, randomized_fifo(0.5), 2, "needs an rng")):
        with pytest.raises(ValueError, match=message):
            stub_level_traversal(degrees, assignment, seed, discipline, budget)


# --- trace serialization ------------------------------------------------------

def test_trace_csv_with_x_values():
    trace = SampleTrace("rw", [0, 1, 0], [2, 3, 2], True, 0.5, x_values=[1.0, 0.0, 1.0])
    buf = io.StringIO()
    trace_to_csv(trace, buf)
    back = trace_from_csv(io.StringIO(buf.getvalue()))
    assert back.x_values == [1.0, 0.0, 1.0]
    assert back.with_replacement


def test_trace_csv_roundtrip():
    # what trace_to_csv writes, trace_from_csv reads back as the same trace, and the
    # read-back writes the same bytes; only coverage passes through '.12g'
    seq = degree_sequence_from_distribution(truncated_power_law(2.5, 2, 100), 2000)
    g = configuration_model(seq, random.Random(2))
    component = sorted(largest_component_nodes(g))
    traces = []
    for name, tech in TECHNIQUES.items():
        spec = TechniqueSpec(name, tech.param.default if tech.param else None)
        traces.append(run_technique(g, component, spec, 1000, random.Random(len(traces))))
    walk = random_walk(g, component[0], 200, random.Random(9))
    traces.append(replace(walk, x_values=[k / 8 - 0.25 for k in walk.degrees]))
    assert any(t.revivals for t in traces) and any(t.with_replacement for t in traces)
    for trace in traces:
        buf = io.StringIO()
        trace_to_csv(trace, buf, rng_seed=5)
        back = trace_from_csv(io.StringIO(buf.getvalue()))
        for field in ("technique", "nodes", "degrees", "with_replacement", "revivals",
                      "x_values"):
            assert getattr(back, field) == getattr(trace, field), (trace.technique, field)
        assert back.coverage == float(f"{trace.coverage:.12g}")
        again = io.StringIO()
        trace_to_csv(back, again, rng_seed=5)
        assert again.getvalue() == buf.getvalue()
    text = buf.getvalue()
    assert text.startswith("#") and "\nposition,node,degree,x_value\n" in text
    # a file without the revival counter reads as none
    revived = next(t for t in traces if t.revivals)
    buf = io.StringIO()
    trace_to_csv(revived, buf)
    no_counter = buf.getvalue().replace(f" revivals={revived.revivals}", "")
    assert trace_from_csv(io.StringIO(no_counter)).revivals == 0


def test_trace_to_csv_refuses_what_the_reader_refuses():
    # the writer reads its own text back before writing, so it names the line and the
    # column or key as the reader would, and out stays empty
    for trace, message in (
            (SampleTrace("rw", [0, 1, 2], [2, 3, 2], True, 0.5, x_values=[1.0, math.nan, 2.0]),
             "line 4: x_value 'nan' is not a finite number"),
            (SampleTrace("bfs", [0, 1], [2, -1], False, 0.5),
             "line 4: degree '-1' is not an integer >= 0"),
            (SampleTrace("bfs", [0, 1, 0], [2, 3, 2], False, 0.5),
             "line 5: node 0 is at positions 0 and 2"),
            (SampleTrace("bfs", [0, 1], [2, 3], False, 0.0),
             "line 1: f '0' is not a number in (0, 1]")):
        out = io.StringIO()
        with pytest.raises(ValueError, match=re.escape(message)):
            trace_to_csv(trace, out)
        assert out.getvalue() == ""


def test_sample_trace_states_its_shape():
    # at least one record, each with one degree and one x_value or none
    with pytest.raises(ValueError, match="empty trace"):
        SampleTrace("bfs", [], [], False, 0.5)
    with pytest.raises(ValueError, match="ragged trace: 3 nodes, 2 degrees"):
        SampleTrace("rw", [0, 1, 0], [2, 3], True, 0.5)
    with pytest.raises(ValueError, match="ragged trace: 2 nodes, 2 degrees, 1 x values"):
        SampleTrace("bfs", [0, 1], [2, 3], False, 0.5, x_values=[1.0])


def test_trace_csv_rejects_garbage():
    with pytest.raises(ValueError):
        trace_from_csv(io.StringIO("position,node,degree,x_value\n0,1\n"))
    with pytest.raises(ValueError):
        trace_from_csv(io.StringIO(""))
    # x_value filled on some rows and blank on others is not read as zeros
    with pytest.raises(ValueError, match="x_value"):
        trace_from_csv(io.StringIO("position,node,degree,x_value\n0,1,2,5\n1,2,3,\n2,3,2,7\n"))
    # the header must be trace_to_csv's: swapped columns would read x as the degree,
    # and a file without one would lose its first record
    with pytest.raises(ValueError, match="trace header must be position,node,degree,x_value"):
        trace_from_csv(io.StringIO("position,node,x_value,degree\n0,1,7,3\n1,2,7,1\n2,3,7,2\n"))
    with pytest.raises(ValueError, match="trace header must be"):
        trace_from_csv(io.StringIO("# technique=bfs f=0.5\n0,1,3,\n1,2,1,\n2,3,2,\n"))
    # a value no estimator can use fails, naming its line and its column or key
    head = "position,node,degree,x_value\n"
    for text, message in (
            (head + "0,1,2,nan\n1,2,3,1\n", "line 2: x_value 'nan' is not a finite number"),
            (head + "0,1,2,1\n1,2,3,inf\n", "line 3: x_value 'inf' is not a finite number"),
            (head + "0,1,2,\n1,2,-3,\n", "line 3: degree '-3' is not an integer >= 0"),
            (head + "0,1,2.5,\n", "line 2: degree '2.5' is not an integer >= 0"),
            (head + "0,a,2,\n", "line 2: node 'a' is not an integer"),
            ("# seed_node=abc\n" + head + "0,1,2,\n",
             "line 1: seed_node 'abc' is not the first record's node 1"),
            ("# seed_node=2\n" + head + "0,1,2,\n1,2,3,\n",
             "line 1: seed_node '2' is not the first record's node 1"),
            ("# technique=ff revivals=abc\n" + head + "0,1,2,\n",
             "line 1: revivals 'abc' is not an integer >= 0"),
            ("# f=abc\n" + head + "0,1,2,\n", "line 1: f 'abc' is not a number in (0, 1]"),
            ("# f=1.5\n" + head + "0,1,2,\n", "line 1: f '1.5' is not a number in (0, 1]"),
            # the prefix correction reads records in order: positions count 0, 1, 2, ...
            (head + "7,1,2,\n3,2,3,\n", "line 2: position '7' is not 0"),
            (head + "0,1,2,\n2,2,3,\n", "line 3: position '2' is not 1"),
            # a crawl lists each node once, and a walk says exactly that it is one
            (head + "0,1,2,\n1,1,2,\n", "node 1 is at positions 0 and 1"),
            ("# with_replacement=false\n" + head + "0,1,2,\n1,2,3,\n2,1,2,\n",
             "node 1 is at positions 0 and 2"),
            ("# with_replacement=True\n" + head + "0,1,2,\n1,1,2,\n",
             "line 1: with_replacement 'True' is not true or false"),
            # a file states each key once, and a key it does not know is a typo
            ("# f=0.5 f=0.9\n" + head + "0,1,2,\n", "line 1: f is '0.9' here and '0.5' on line 1"),
            ("# technique=bfs f=0.5\n" + head + "0,1,2,\n# f=0.5\n",
             "line 4: f is '0.5' here and '0.5' on line 1"),
            ("# tecnique=rw with_replacement=true\n" + head + "0,1,2,\n1,1,2,\n",
             "unknown key(s) in trace line 1: 'tecnique'; known keys: technique, seed_node, "
             "f, with_replacement, revivals, rng_seed"),
            ("# technique=ff revival=1\n" + head + "0,1,2,\n",
             "unknown key(s) in trace line 1: 'revival'"),
            ("# a bfs trace\n# fraction=0.15\n" + head + "0,1,2,\n",
             "unknown key(s) in trace line 2: 'fraction'"),
            ("# rng_seed=abc\n" + head + "0,1,2,\n", "line 1: rng_seed 'abc' is not an integer")):
        with pytest.raises(ValueError, match=re.escape(message)):
            trace_from_csv(io.StringIO(text))
