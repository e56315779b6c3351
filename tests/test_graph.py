"""Graph container, degree accounting, and edge-list loading."""

import io
import math
import random
import tracemalloc

import pytest

from crawlbias import (DegreeDistribution, Graph, GraphFormatError, RAW,
                       assortativity, ball, cli, configuration_model,
                       degree_distribution, degree_sequence_from_distribution, induced_subgraph,
                       largest_component_nodes, load_edge_list, moments, stats_row)
from crawlbias.experiments import ExperimentConfig, GraphSource, TechniqueSpec, _shared_setup


def test_from_edges_counts_self_loop_twice():
    g = Graph.from_edges(2, [(0, 1), (1, 1)])
    assert len(g.adjacency[0]) == 1
    assert len(g.adjacency[1]) == 3
    assert g.edge_count == 2
    assert sum(g.degrees()) == 2 * g.edge_count


def test_parallel_edges_kept():
    g = Graph.from_edges(2, [(0, 1), (0, 1)])
    assert len(g.adjacency[0]) == 2
    assert g.edge_count == 2
    assert g.adjacency[0] == [1, 1]


def test_edges_roundtrip_multigraph():
    edges = [(0, 1), (0, 1), (2, 2), (1, 2)]
    g = Graph.from_edges(3, edges)
    assert sorted(g.edges()) == sorted((min(u, v), max(u, v)) for u, v in edges)


def test_odd_stub_total_rejected():
    with pytest.raises(ValueError):
        Graph([[1], []])  # one-sided entry: odd stub total
    with pytest.raises(ValueError, match="labels length does not match node count"):
        Graph([[1], [0]], labels=[7])


def test_degree_distribution_triangle():
    g = Graph.from_edges(3, [(0, 1), (1, 2), (2, 0)])
    assert degree_distribution(g) == DegreeDistribution({2: 1.0})


def test_degree_distribution_path():
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    d = degree_distribution(g)
    assert d.get(1) == pytest.approx(2 / 3)
    assert d.get(2) == pytest.approx(1 / 3)


def test_distribution_validation():
    with pytest.raises(ValueError):
        DegreeDistribution({1: 0.7, 2: 0.7})
    with pytest.raises(ValueError):
        DegreeDistribution({-1: 1.0})
    with pytest.raises(ValueError):
        DegreeDistribution({0: 1.0})  # no positive-degree mass
    with pytest.raises(ValueError, match="negative fraction for degree 1"):
        DegreeDistribution({1: -0.5, 2: 1.5})
    with pytest.raises(ValueError, match="distribution has no mass"):
        DegreeDistribution({1: 0.0, 2: 0.0})
    d = DegreeDistribution({1: 2.0, 3: 2.0}, normalize=True)
    assert d.get(1) == pytest.approx(0.5)


def test_moments_regular():
    d = DegreeDistribution({4: 1.0})
    mean, ratio = moments(d)
    assert mean == pytest.approx(4.0)
    assert ratio == pytest.approx(4.0)


def test_moments_bimodal():
    d = DegreeDistribution({1: 0.5, 3: 0.5})
    mean, ratio = moments(d)
    assert mean == pytest.approx(2.0)
    assert ratio == pytest.approx(2.5)  # (0.5*1 + 0.5*9) / 2


def test_assortativity_star_is_minus_one():
    g = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    assert assortativity(g) == pytest.approx(-1.0)


def test_assortativity_path4():
    # hand value: degrees along edges (1,2),(2,2),(2,1) -> r = -1/2
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    assert assortativity(g) == pytest.approx(-0.5)


def test_assortativity_regular_undefined():
    g = Graph.from_edges(3, [(0, 1), (1, 2), (2, 0)])
    assert assortativity(g) is None
    assert assortativity(Graph.from_edges(2, [])) is None  # 0-regular: no edge at all


def test_graph_and_distribution_reprs():
    assert repr(Graph.from_edges(3, [(0, 1), (1, 2)])) == "Graph(n=3, m=2)"
    assert repr(DegreeDistribution({2: 0.5, 1: 0.5})) == "DegreeDistribution({1: 0.5, 2: 0.5})"


def test_ball_on_path():
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    assert ball(g, 0, 1) == {0, 1}
    assert ball(g, 1, 1) == {0, 1, 2}
    assert ball(g, 0, 0) == {0}
    assert ball(g, 0, 5) == {0, 1, 2}
    with pytest.raises(ValueError, match="unknown node 3"):
        ball(g, 3, 1)
    with pytest.raises(ValueError, match="radius must be >= 0"):
        ball(g, 0, -1)


def test_components_and_induced_subgraph():
    g = Graph.from_edges(5, [(0, 1), (1, 2), (3, 4)])
    assert [sorted(ball(g, v, g.node_count)) for v in (0, 3)] == [[0, 1, 2], [3, 4]]
    assert largest_component_nodes(g) == [0, 1, 2]
    sub = induced_subgraph(g, [0, 1, 2])
    assert sub.node_count == 3
    assert sub.edge_count == 2


def test_largest_component_ties_to_the_smallest_id_in_dfs_order():
    # components {0, 5}, then two of five nodes from 1 and from 2: the tie goes to
    # the one holding the smaller id, listed as the depth-first search discovers it
    # (breadth-first would give 1, 8, 3, 10, 9)
    edges = [(0, 5), (1, 8), (1, 3), (8, 10), (3, 9), (2, 4), (4, 6), (6, 7), (7, 11)]
    assert largest_component_nodes(Graph.from_edges(12, edges)) == [1, 8, 3, 9, 10]
    # a larger component found later replaces both
    edges += [(17, 12), (12, 13), (12, 14), (14, 15), (15, 16)]
    assert largest_component_nodes(Graph.from_edges(18, edges)) == [12, 17, 13, 14, 15, 16]


def test_load_edge_list_basic():
    text = "0 1\n1 2\n# comment\n\n"
    g = load_edge_list(io.StringIO(text))
    assert g.node_count == 3
    assert sorted(g.degrees()) == [1, 1, 2]


def test_load_edge_list_default_cleanup():
    # duplicate (reversed) collapsed, self-loop dropped
    text = "0 1\n1 0\n0 0\n"
    g = load_edge_list(io.StringIO(text))
    assert g.node_count == 2
    assert g.edge_count == 1


def test_load_edge_list_raw_keeps_everything():
    text = "0 1\n1 0\n0 0\n"
    g = load_edge_list(io.StringIO(text), RAW)
    assert g.node_count == 2
    assert g.edge_count == 3
    assert len(g.adjacency[0]) == 4  # two parallel + self-loop counted twice


def test_load_edge_list_largest_component_only():
    text = "0 1\n1 2\n7 8\n"
    g = load_edge_list(io.StringIO(text))
    assert g.node_count == 3
    assert sorted(g.labels) == [0, 1, 2]
    assert load_edge_list(io.StringIO(text), raw=True).node_count == 5


def test_load_edge_list_remaps_sparse_ids():
    text = "100 7\n7 42\n"
    g = load_edge_list(io.StringIO(text))
    assert g.node_count == 3
    assert g.labels == [100, 7, 42]
    # ids 0..n-1 share the dense ids' int objects; a negative id or one >= n
    # is kept by value, not read as a dense id
    text = "-1 2\n2 1000\n1000 0\n0 -1\n1 2\n"
    assert load_edge_list(io.StringIO(text), RAW).labels == [-1, 2, 1000, 0, 1]
    assert load_edge_list(io.StringIO(text)).labels == [-1, 2, 0, 1000, 1]


def test_load_edge_list_errors():
    with pytest.raises(GraphFormatError) as err:
        load_edge_list(io.StringIO("0 1 2\n"))
    assert "line 1" in str(err.value)
    with pytest.raises(GraphFormatError):
        load_edge_list(io.StringIO("a b\n"))
    with pytest.raises(ValueError):
        load_edge_list(io.StringIO("0 0\n"))  # empty after cleanup
    for options in (None, RAW):  # a file of comments names no node at all
        with pytest.raises(ValueError, match="empty graph after preprocessing"):
            load_edge_list(io.StringIO("# only a comment\n\n"), options)
    # the first bad token of the first bad line wins, as in the reference loader
    for text, message in [
        ("0 1\n1 x\n", "line 2: non-integer node id 'x'"),
        ("0 1\n# note\n\ny 2 3\n1 2 3\n", "line 4: expected two node ids, got 3 tokens"),
        ("0 1\n\ta 2\n1 2 3\n", "line 2: non-integer node id 'a'"),
    ]:
        for options in (None, RAW):
            with pytest.raises(GraphFormatError) as err:
                load_edge_list(io.StringIO(text), options)
            assert str(err.value) == message
            with pytest.raises(GraphFormatError) as ref:
                _reference_load_edge_list(io.StringIO(text), options)
            assert str(ref.value) == message


def _reference_component(g):
    """The largest component by union-find, a tie in size going to the one with
    the smallest id, listed in the order a stack-based depth-first search from
    that id discovers it: each popped node marks and pushes its unseen
    neighbours in adjacency order."""
    parent = list(range(g.node_count))

    def root(v):
        while parent[v] != v:
            v = parent[v]
        return v

    for u, v in g.edges():
        parent[root(u)] = root(v)
    members = {}
    for v in range(g.node_count):
        members.setdefault(root(v), []).append(v)
    start = min(members.values(), key=lambda c: (-len(c), c[0]))[0]
    order, stack = [start], [start]
    while stack:
        for w in g.adjacency[stack.pop()]:
            if w not in order:
                order.append(w)
                stack.append(w)
    return order


def _reference_load_edge_list(source, raw=False):
    """The earlier tuple-based loader: pair tuples, a seen set, then induced_subgraph
    on a component found by _reference_component.

    load_edge_list must give the same adjacency, labels and errors.
    """
    index, labels, pairs = {}, [], []

    def intern(token, lineno):
        try:
            raw = int(token)
        except ValueError:
            raise GraphFormatError(f"line {lineno}: non-integer node id {token!r}") from None
        if raw not in index:
            index[raw] = len(labels)
            labels.append(raw)
        return index[raw]

    for lineno, line in enumerate(source, start=1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        parts = text.split()
        if len(parts) != 2:
            raise GraphFormatError(f"line {lineno}: expected two node ids, got {len(parts)} tokens")
        pairs.append((intern(parts[0], lineno), intern(parts[1], lineno)))
    if not raw:  # drop self-loops, collapse duplicates
        seen, unique = set(), []
        for u, v in pairs:
            key = (u, v) if u <= v else (v, u)
            if u != v and key not in seen:
                seen.add(key)
                unique.append(key)
        pairs = unique
    g = Graph.from_edges(len(labels), pairs, labels)
    if not raw:
        if g.node_count == 0:
            raise ValueError("empty graph after preprocessing")
        g = induced_subgraph(g, _reference_component(g))
    if g.node_count == 0 or g.edge_count == 0:
        raise ValueError("empty graph after preprocessing")
    return g


def _messy_edge_list(rng):
    """Comments, blank lines, tabs, self-loops, reversed duplicates and sparse
    negative and huge labels, over several components."""
    lines = ["# header", ""]
    for _ in range(rng.randint(1, 4)):  # each block is one component or more
        labels = [rng.choice([rng.randint(-10**6, -1), rng.randint(0, 60),
                              rng.randint(10**15, 10**18)]) for _ in range(rng.randint(1, 25))]
        for _ in range(rng.randint(1, 40)):
            u, v = rng.choice(labels), rng.choice(labels)
            pick = rng.random()
            if pick < 0.1:
                lines.append(f"{u}\t{u}")
            elif pick < 0.25:
                lines.append(f" {v}  {u} ")
            elif pick < 0.3:
                lines.append(rng.choice(["", "  \t", f"# {u} {v}", f"  #{u}"]))
            lines.append(f"{u} {v}")
    return "\n".join(lines) + rng.choice(["", "\n"])


def _load_outcome(loader, text, raw):
    try:
        g = loader(io.StringIO(text), raw)
    except ValueError as exc:  # GraphFormatError included
        return type(exc), str(exc)
    return g.adjacency, g.labels, g.edge_count


def test_load_edge_list_matches_reference_loader():
    rng = random.Random(20261018)
    loaded = 0
    for _ in range(300):
        text = _messy_edge_list(rng)
        for raw in (False, True):
            outcome = _load_outcome(load_edge_list, text, raw)
            assert outcome == _load_outcome(_reference_load_edge_list, text, raw)
            loaded += isinstance(outcome[0], list)
    assert loaded > 500  # most inputs load both ways


def test_load_edge_list_peak_memory(tmp_path):
    # the loader's transient memory stays within 1.6x of the graph it returns
    # (a global edge-key dict next to the adjacency lists costs about 1.9x)
    edge_file = tmp_path / "g.txt"
    assert cli.main(["generate", "--pk", "powerlaw:2.5:2:100", "--nodes", "20000",
                     "--rng-seed", "3", "--out", str(edge_file)]) == 0
    for options in (None, RAW):
        tracemalloc.start()
        try:
            g = load_edge_list(str(edge_file), options)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert g.node_count > 15000
        assert peak <= 1.6 * retained, (options, peak, retained)


def test_load_edge_list_one_int_object_per_id(tmp_path):
    # rows, component positions and labels in 0..n-1 refer to the dense ids' own
    # int objects, so each value above CPython's small-int cache is stored once
    edge_file = tmp_path / "g.txt"
    assert cli.main(["generate", "--pk", "powerlaw:2.5:2:100", "--nodes", "2000",
                     "--rng-seed", "1", "--out", str(edge_file)]) == 0
    for options in (None, RAW):
        g = load_edge_list(str(edge_file), options)
        big = [x for row in g.adjacency for x in row if x > 256] + [x for x in g.labels if x > 256]
        assert len({id(x) for x in big}) == len(set(big)) > 1000, options


def test_shared_setup_component_is_the_loaded_graph(tmp_path):
    edge_file = tmp_path / "g.txt"
    edge_file.write_text(_messy_edge_list(random.Random(5)) + "\n900 901\n")
    cfg = ExperimentConfig(source=GraphSource("file", path=str(edge_file)),
                           techniques=[TechniqueSpec("bfs")], f_grid=[0.5], replicas=1,
                           seed=0)
    g, component = _shared_setup(cfg)
    assert component == range(g.node_count)
    assert sorted(largest_component_nodes(g)) == list(component)


def test_stats_row_fields():
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    row = stats_row(g)
    assert row["nodes"] == 3
    assert row["edges"] == 2
    assert row["mean_degree"] == pytest.approx(4 / 3)
    assert row["k2_over_k"] == pytest.approx((2 * 1 + 4) / 4)
    assert isinstance(row["assortativity"], float)
    triangle = Graph.from_edges(3, [(0, 1), (1, 2), (2, 0)])
    assert stats_row(triangle)["assortativity"] == "undefined"


def test_assortativity_matches_direct_pearson():
    # definitional cross-check on an irregular graph: correlate endpoint
    # degrees over both orientations of every edge
    g = Graph.from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (1, 3), (0, 2)])
    pairs = []
    for u, v in g.edges():
        pairs.append((len(g.adjacency[u]), len(g.adjacency[v])))
        pairs.append((len(g.adjacency[v]), len(g.adjacency[u])))
    m = len(pairs)
    mx = sum(a for a, _ in pairs) / m
    my = sum(b for _, b in pairs) / m
    cov = sum((a - mx) * (b - my) for a, b in pairs) / m
    var = sum((a - mx) ** 2 for a, _ in pairs) / m
    assert assortativity(g) == pytest.approx(cov / var)
    assert not math.isnan(assortativity(g))


def test_assortativity_equals_per_edge_definition_on_multigraphs():
    # the per-edge float sums assortativity used to make; its integer row
    # sums must give the identical float, self-loops and parallel edges included
    def per_edge(g):
        deg = g.degrees()
        m = 2 * g.edge_count
        s1 = s2 = s11 = 0.0
        for u, v in g.edges():
            ku, kv = deg[u], deg[v]
            s1 += ku + kv
            s2 += ku * ku + kv * kv
            s11 += 2.0 * ku * kv
        mean = s1 / m
        return (s11 / m - mean * mean) / (s2 / m - mean * mean)

    d = DegreeDistribution({1: 0.4, 2: 0.3, 3: 0.2, 12: 0.1})
    graphs = [Graph.from_edges(4, [(0, 0), (0, 1), (0, 1), (1, 2), (2, 3), (3, 3), (3, 3)])]
    graphs += [configuration_model(degree_sequence_from_distribution(d, n), random.Random(s))
               for n in (50, 1000) for s in range(3)]
    for g in graphs:
        assert assortativity(g) == per_edge(g)
    edges = [list(g.edges()) for g in graphs]
    assert sum(any(u == v for u, v in es) for es in edges) > 1
    assert sum(len(set(es)) < len(es) for es in edges) > 1
