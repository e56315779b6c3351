"""Undirected multigraph over dense integer ids, edge-list loading, and summary statistics."""

from __future__ import annotations

import math
from array import array
from collections import Counter
from typing import IO, Callable, Iterable, Iterator, KeysView, Mapping, Sequence


class GraphFormatError(ValueError):
    """An edge-list source could not be parsed."""


class Graph:
    """Undirected multigraph over node ids 0..n-1.

    Adjacency is one neighbor list per node. A parallel edge repeats its
    endpoint in the list and a self-loop at v lists v twice, so
    len(adjacency[v]) is exactly the degree of v and
    sum(degrees) == 2 * edge_count always holds.

    Instances are frozen by convention once built: nothing in this package
    mutates an existing Graph, so concurrent readers need no locking. The
    constructor takes ownership of the neighbor lists and of labels, the node
    names for reporting (range(n) when none are given), instead of copying
    them; callers hand over freshly built lists and keep no alias.
    """

    __slots__ = ("adjacency", "edge_count", "labels")

    def __init__(self, adjacency: list[list[int]], labels: Sequence[int] | None = None):
        stubs = sum(len(nbrs) for nbrs in adjacency)
        if stubs % 2:
            raise ValueError("adjacency is not symmetric: odd number of stub entries")
        if labels is not None and len(labels) != len(adjacency):
            raise ValueError("labels length does not match node count")
        self.adjacency = adjacency
        self.edge_count = stubs // 2
        self.labels = labels if labels is not None else range(len(adjacency))

    @classmethod
    def from_edges(cls, node_count: int, edges: Iterable[tuple[int, int]],
                   labels: Sequence[int] | None = None) -> "Graph":
        adj: list[list[int]] = [[] for _ in range(node_count)]
        for u, v in edges:
            adj[u].append(v)
            adj[v].append(u)  # u == v appends twice: a self-loop adds 2 to the degree
        return cls(adj, labels)

    @property
    def node_count(self) -> int:
        return len(self.adjacency)

    def degrees(self) -> list[int]:
        return [len(nbrs) for nbrs in self.adjacency]

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield each edge once as (u, v) with u <= v; parallel edges repeat."""
        for u, nbrs in enumerate(self.adjacency):
            loops = 0
            for w in nbrs:
                if w > u:
                    yield (u, w)
                elif w == u:
                    loops += 1
            # each self-loop contributed two entries
            for _ in range(loops // 2):
                yield (u, u)

    def __repr__(self) -> str:
        return f"Graph(n={self.node_count}, m={self.edge_count})"


class DegreeDistribution:
    """Per-degree fractions p_k, validated to sum to one.

    Entries with zero mass are dropped; at least one positive-degree class
    must carry mass (the coverage map t -> f(t) is invertible only then).
    p_0 > 0 is allowed and caps reachable coverage at 1 - p_0.
    """

    __slots__ = ("entries",)

    def __init__(self, entries: Mapping[int, float], *, normalize: bool = False):
        cleaned: dict[int, float] = {}
        for k, p in entries.items():
            kk = int(k)
            if kk != k or kk < 0:
                raise ValueError(f"degree must be a nonnegative integer, got {k!r}")
            if not math.isfinite(p):
                raise ValueError(f"fraction for degree {kk} is not a finite number: {p!r}")
            if p < 0:
                raise ValueError(f"negative fraction for degree {kk}")
            if p > 0:
                cleaned[kk] = cleaned.get(kk, 0.0) + float(p)
        total = sum(cleaned.values())
        if total <= 0:
            raise ValueError("distribution has no mass")
        if total == math.inf:
            raise ValueError("fractions sum past the largest float")
        if normalize:
            cleaned = {k: p / total for k, p in cleaned.items()}
        elif abs(total - 1.0) > 1e-12:
            raise ValueError(f"fractions sum to {total!r}, not 1")
        if not any(k > 0 for k in cleaned):
            raise ValueError("all mass on degree 0")
        self.entries = dict(sorted(cleaned.items()))

    def items(self) -> list[tuple[int, float]]:
        return list(self.entries.items())

    def get(self, k: int) -> float:
        return self.entries.get(k, 0.0)

    def support(self) -> list[int]:
        return list(self.entries)

    def mean(self) -> float:
        return sum(k * p for k, p in self.entries.items())

    def second_moment(self) -> float:
        return sum(k * k * p for k, p in self.entries.items())

    @classmethod
    def from_sequence(cls, degrees: Sequence[int]) -> "DegreeDistribution":
        counts = Counter(degrees)
        return cls({k: c / len(degrees) for k, c in counts.items()})

    def __eq__(self, other: object) -> bool:
        return isinstance(other, DegreeDistribution) and self.entries == other.entries

    def __repr__(self) -> str:
        return f"DegreeDistribution({self.entries})"


def degree_distribution(g: Graph) -> DegreeDistribution:
    """Empirical p_k of a graph."""
    return DegreeDistribution.from_sequence(g.degrees())


def moments(d: DegreeDistribution) -> tuple[float, float]:
    """Mean degree and the ratio second moment / mean.

    The ratio is the expected degree seen by any stationary degree-weighted
    sampler (random walks, early traversal), so it bounds the sampling bias.
    """
    mean = d.mean()
    return mean, d.second_moment() / mean


def assortativity(g: Graph) -> float | None:
    """Pearson correlation of degrees over edge endpoints.

    Every undirected edge contributes both orderings of its endpoint degrees,
    so the two marginals coincide. Returns None when the endpoint-degree
    variance is zero (e.g. regular graphs), where the correlation is undefined.
    """
    pearson = _pearson(g)
    if pearson is None:
        return None
    r_of, s11 = pearson
    return r_of(s11)


def _pearson(g: Graph) -> tuple[Callable[[int], float], int] | None:
    """(r_of, s11): assortativity as a function r_of of the cross sum
    s11 = sum of k_u * k_v over both orientations of every edge, and g's s11;
    None where r is undefined. The marginal sums depend on the degrees alone, so
    r_of serves every graph with g's degrees, such as a degree-preserving rewiring."""
    if g.edge_count == 0:
        return None
    deg = g.degrees()
    m = 2 * g.edge_count
    # sums over adjacency entries, i.e. over both orientations of each edge;
    # integers, so the float results below do not depend on summation order
    s1 = sum(k * k for k in deg)
    s2 = sum(k * k * k for k in deg)
    s11 = sum(k * sum(map(deg.__getitem__, nbrs)) for k, nbrs in zip(deg, g.adjacency))
    mean = s1 / m
    var = s2 / m - mean * mean
    if var <= 1e-15 * max(1.0, mean * mean):
        return None
    return lambda cross: (cross / m - mean * mean) / var, s11


def ball(g: Graph, center: int, radius: int) -> KeysView[int]:
    """All nodes within `radius` hops of `center`, center included, as a
    set-like view in breadth-first discovery order: the ball is the first
    len(ball) nodes of bfs(g, center, ...), in the same order."""
    if not 0 <= center < g.node_count:
        raise ValueError(f"unknown node {center}")
    if radius < 0:
        raise ValueError("radius must be >= 0")
    seen = {center: None}  # a dict keeps discovery order
    frontier = [center]
    adj = g.adjacency
    for _ in range(radius):
        nxt = []
        for u in frontier:
            for w in adj[u]:
                if w not in seen:
                    seen[w] = None
                    nxt.append(w)
        if not nxt:
            break
        frontier = nxt
    return seen.keys()


def largest_component_nodes(g: Graph) -> list[int]:
    """The largest component in depth-first discovery order; components are
    searched in id order, and a tie in size keeps the one found first."""
    adj = g.adjacency
    seen = bytearray(len(adj))
    largest: list[int] = []
    for start in range(len(adj)):
        if seen[start]:
            continue
        seen[start] = 1
        comp = [start]
        stack = [start]
        while stack:
            u = stack.pop()
            for w in adj[u]:
                if not seen[w]:
                    seen[w] = 1
                    comp.append(w)
                    stack.append(w)
        if len(comp) > len(largest):
            largest = comp
    return largest


def induced_subgraph(g: Graph, nodes: Sequence[int]) -> Graph:
    """Subgraph on `nodes`, remapped to dense ids in the given order."""
    index = {v: i for i, v in enumerate(nodes)}
    adj: list[list[int]] = [[] for _ in nodes]
    for v in nodes:
        row = adj[index[v]]
        for w in g.adjacency[v]:
            if w in index:
                row.append(index[w])
    labels = [g.labels[v] for v in nodes]
    return Graph(adj, labels)


#: load_edge_list's raw switch, by name: read the file verbatim as a multigraph
#: (round-trips generated edge lists).
RAW = True


def load_edge_list(source: str | IO[str] | Iterable[str], raw: bool = False) -> Graph:
    """Parse whitespace-separated node-id pairs, one edge per line.

    Blank lines and lines starting with '#' are skipped. Node ids may be
    arbitrary integers; the original ids are kept in Graph.labels. By default
    the usual cleanup for crawled snapshots applies: direction ignored,
    self-loops dropped, duplicate edges collapsed, and the graph restricted to
    its largest connected component. With raw the file is kept verbatim as a
    multigraph.

    Ids are remapped to dense ids 0..n-1: in first-seen order when raw, and
    otherwise in the order largest_component_nodes discovers the component,
    starting from its first-seen node. Each node lists its neighbours in the
    file order of the lines naming its edges; with the cleanup, in the order
    each edge is first seen. Seeded runs on a file depend on this numbering
    and order.

    Each id value is one int object: the rows, and every label x with
    0 <= x < n, refer to the dense ids' own objects. The pair ends are held
    as dense ids in an array("i") while the file is read, so a file may name
    at most 2**31 distinct nodes.
    """
    if isinstance(source, str):
        with open(source, "r", encoding="utf-8") as fh:
            return load_edge_list(fh, raw)

    index: dict[int, int] = {}
    ends = array("i")  # dense ids, two per edge in file order
    intern, put = index.setdefault, ends.append
    for lineno, line in enumerate(source, start=1):
        parts = line.split()
        if not parts or parts[0][0] == "#":
            continue
        if len(parts) != 2:
            raise GraphFormatError(f"line {lineno}: expected two node ids, got {len(parts)} tokens")
        try:  # token ends up naming the first id that fails to parse
            u, v = int(token := parts[0]), int(token := parts[1])
        except ValueError:
            raise GraphFormatError(f"line {lineno}: non-integer node id {token!r}") from None
        put(intern(u, len(index)))
        put(intern(v, len(index)))
    # ids[k] is dense id k's one int object; rows, component positions and
    # in-range labels all refer to it, so a value above 256 is stored once
    ids = list(index.values())
    n = len(ids)
    labels = [ids[x] if 0 <= x < n else x for x in index]
    del index, intern, put  # the bound methods would keep the dict and array alive
    if n == 0:
        raise ValueError("empty graph after preprocessing")

    adj: list[list[int]] = [[] for _ in ids]
    pairs = iter(ends)
    for u, v in zip(pairs, pairs):
        if raw or u != v:
            adj[u].append(ids[v])
            adj[v].append(ids[u])  # u == v appends twice: a self-loop adds 2 to the degree
    del ends, pairs
    if raw:  # every id came from an edge, so the graph has one
        return Graph(adj, labels)

    # the DFS skips a repeated neighbour as seen, so duplicates leave its order
    # unchanged; a component is closed under adjacency, so its rows need no
    # membership test, and they are local to this call, so they are rewritten in place
    kept = largest_component_nodes(Graph(adj))
    pos = [0] * n
    for i, v in zip(ids, kept):
        pos[v] = i
    for v in kept:
        # v's first entry for w comes from the line that first named the edge {v, w},
        # so dict.fromkeys keeps each edge's first-seen order
        adj[v] = [pos[w] for w in dict.fromkeys(adj[v])]
    del ids, pos
    # keep only the component's rows and labels; Graph takes both lists as they are
    adj, labels = [adj[v] for v in kept], [labels[v] for v in kept]
    g = Graph(adj, labels)
    if g.edge_count == 0:
        raise ValueError("empty graph after preprocessing")
    return g


def stats_row(g: Graph) -> dict[str, object]:
    """Summary used by the CLI `stats` command."""
    d = degree_distribution(g)
    mean, ratio = moments(d)
    r = assortativity(g)
    return {
        "nodes": g.node_count,
        "edges": g.edge_count,
        "mean_degree": mean,
        "k2_over_k": ratio,
        "assortativity": "undefined" if r is None else r,
    }
