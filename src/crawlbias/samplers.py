"""Exploration techniques: traversals, random walks, degree-weighted draws,
and the stub-level index-scan process that unifies them.

bfs, forest_fire and snowball run one FIFO crawl, _revivable: bfs is p = 1 with
no referral cap, and the index that revives a dead fire is built at its first
stall. All samplers return a SampleTrace: the ordered node records plus enough
metadata for the estimators to undo the sampling bias later.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from itertools import accumulate, chain
from typing import Callable, Sequence

from .graph import Graph


@dataclass
class SampleTrace:
    """Ordered record of one sampling run.

    coverage is the fraction of distinct sampled nodes over the node count of
    the sampled graph. with_replacement marks walk-style traces whose records
    may repeat; traversal traces never repeat a node. revivals counts the
    times forest fire or snowball restarted a dead fire (0 for the others).
    """

    technique: str
    nodes: list[int]
    degrees: list[int]
    with_replacement: bool
    coverage: float
    x_values: list[float] | None = None
    revivals: int = 0

    def __post_init__(self) -> None:
        # the O(1) shape every estimator relies on; a trace file's value rules are the reader's
        if not self.nodes:
            raise ValueError("empty trace: a trace holds at least one record")
        xs = self.nodes if self.x_values is None else self.x_values
        if not len(self.nodes) == len(self.degrees) == len(xs):
            raise ValueError(f"ragged trace: {len(self.nodes)} nodes, {len(self.degrees)} degrees, "
                             f"{len(xs)} x values; a record has one degree, one x_value or none")

    @property
    def seed_node(self) -> int:
        """The start: every sampler records it first."""
        return self.nodes[0]

    def __len__(self) -> int:
        return len(self.nodes)


@dataclass(frozen=True)
class QueueDiscipline:
    """Scheduling rule for the stub queue.

    fifo explores breadth-first, lifo depth-first, randomized_fifo is fifo
    where each stub is enqueued only with probability p (burned-out edges).
    """

    kind: str
    p: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in ("fifo", "lifo", "randomized_fifo"):
            raise ValueError(f"unknown queue discipline {self.kind!r}")
        if not 0.0 < self.p <= 1.0:
            raise ValueError("stub keep probability must lie in (0, 1]")


FIFO = QueueDiscipline("fifo")
LIFO = QueueDiscipline("lifo")


def randomized_fifo(p: float) -> QueueDiscipline:
    return QueueDiscipline("randomized_fifo", p)


@dataclass(frozen=True)
class StubAssignment:
    """One uniform [0, 1) index per stub, grouped per node."""

    indices: tuple[tuple[float, ...], ...]

    def __post_init__(self) -> None:
        flat = [t for row in self.indices for t in row]
        if any(not 0.0 <= t <= 1.0 for t in flat):
            raise ValueError("stub indices must lie in [0, 1]")
        if len(set(flat)) != len(flat):
            raise ValueError("stub indices must be pairwise distinct")


def assign_stub_indices(degrees: Sequence[int], rng: random.Random) -> StubAssignment:
    """Draw one independent uniform index per stub; all indices distinct."""
    while True:
        rows = tuple(tuple(rng.random() for _ in range(k)) for k in degrees)
        try:
            return StubAssignment(rows)
        except ValueError:
            continue  # collision has probability ~0; redraw if it happens


def _randbelow(getrandbits: Callable[[int], int], n: int) -> int:
    """A uniform int in [0, n), drawn exactly as random.Random.randrange(n)
    draws it: n.bit_length() random bits, redrawn while the value is >= n.

    Taking rng.getrandbits and skipping randrange's two Python-level calls
    halves the cost of a walk step and leaves the RNG stream as it was.
    """
    if n < 1:
        raise ValueError("empty range for _randbelow")  # getrandbits(0) is 0: no end
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


def _check_node(g: Graph, v: int) -> None:
    if not 0 <= v < g.node_count:
        raise ValueError(f"unknown node {v}")


def _check_start(g: Graph, seed: int, budget: int) -> None:
    _check_node(g, seed)
    if budget < 1:
        raise ValueError("budget must be >= 1")


def _check_walk(g: Graph, seed: int, steps: int) -> None:
    _check_node(g, seed)
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if steps > 1 and not g.adjacency[seed]:
        raise ValueError("walk started on an isolated node")


def _make_trace(technique: str, g: Graph, nodes: list[int], with_replacement: bool,
                revivals: int = 0) -> SampleTrace:
    degs = [len(g.adjacency[v]) for v in nodes]
    coverage = (len(set(nodes)) if with_replacement else len(nodes)) / g.node_count
    return SampleTrace(technique, nodes, degs, with_replacement, coverage, revivals=revivals)


def bfs(g: Graph, seed: int, budget: int) -> SampleTrace:
    """Breadth-first trace of min(budget, component size) distinct nodes: the one
    FIFO crawl with every edge spreading (p = 1) and no referral cap."""
    _check_start(g, seed, budget)
    return _revivable(g, seed, budget, None, "bfs")


def dfs(g: Graph, seed: int, budget: int) -> SampleTrace:
    """Depth-first trace: always descend from the latest discovered node."""
    _check_start(g, seed, budget)
    adj = g.adjacency
    seen = bytearray(g.node_count)
    order: list[int] = []
    stack = [seed]
    while stack and len(order) < budget:
        u = stack.pop()
        if seen[u]:
            continue
        seen[u] = 1
        order.append(u)
        stack.extend(adj[u])
    return _make_trace("dfs", g, order, False)


def _revivable(g: Graph, seed: int, budget: int, rng: random.Random | None, technique: str,
               p: float = 1.0, names: int = 0) -> SampleTrace:
    """The one FIFO crawl, behind bfs, forest_fire and snowball: each expanded node
    spreads along each of its adjacency entries, or names uniform ones, with
    probability p. bfs is p = 1 with no referral cap (names = 0), and needs no rng.

    The discovery list order is the queue. A dead fire restarts from a uniform
    sampled node, in discovery order, that still has an unseen neighbor; it is
    expanded first, then the queue resumes at the first node its fire discovers.
    When none has one, the sample is the seed's whole component. The revival
    index, built at the first stall (never for bfs, whose fire dies only with its
    component), is unseen[v], v's adjacency entries at unseen nodes, and a Fenwick
    tree over discovery positions that marks the revivable nodes. Both are updated
    once per stall: O(n + m) in all, plus O(log n) per sampled node and per revival.
    """
    adj = g.adjacency
    n = g.node_count
    seen = bytearray(n)
    seen[seed] = 1
    order = [seed]
    coin, draw = p < 1.0, rng.random if rng else None
    unseen: list[int] = []
    tree: list[int] = []
    live: dict[int, int] = {}  # revivable node -> its position in order
    done = revivals = 0

    def add(i: int, delta: int) -> None:
        i += 1
        while i <= n:
            tree[i] += delta
            i += i & -i

    todo = iter(order)  # order is the FIFO queue: the loop reaches what is appended
    while True:
        for u in todo:
            if len(order) == budget:
                break
            nbrs = adj[u]
            if names and len(nbrs) > names:
                nbrs = rng.sample(nbrs, names)
            for w in nbrs:  # one coin per adjacency entry: parallel edges flip again
                if seen[w] or (coin and draw() >= p):
                    continue
                seen[w] = 1
                order.append(w)
                if len(order) == budget:
                    break
        if len(order) == budget or not (coin or names):
            break  # a fire that reaches every neighbor dies only with its component
        if not tree:  # the first stall
            unseen, tree = list(map(len, adj)), [0] * (n + 1)
        for u in order[done:]:
            for w in adj[u]:
                unseen[w] -= 1
                if not unseen[w] and w in live:
                    add(live.pop(w), -1)
        for i in range(done, len(order)):
            if unseen[order[i]]:
                live[order[i]] = i
                add(i, 1)
        done = len(order)
        if not live:
            break
        k = rng.randrange(len(live))
        i, step = 0, 1 << n.bit_length()
        while step:  # Fenwick descent to the (k+1)-th revivable position
            if i + step <= n and tree[i + step] <= k:
                i += step
                k -= tree[i]
            step >>= 1
        rest = iter(order)
        rest.__setstate__(done)  # resumes at position done in O(1), unlike islice
        todo = chain((order[i],), rest)
        revivals += 1
    return _make_trace(technique, g, order, False, revivals)


def forest_fire(g: Graph, seed: int, budget: int, p: float, rng: random.Random) -> SampleTrace:
    """Burning traversal: each incident edge spreads with probability p.

    The fire is revived from a random already-sampled node whenever it dies
    out before the budget, so the trace always reaches
    min(budget, component size) nodes. With p = 1 this is exactly bfs.
    """
    _check_start(g, seed, budget)
    if not 0.0 < p <= 1.0:
        raise ValueError("spread probability must lie in (0, 1]")
    return _revivable(g, seed, budget, rng, "ff", p=p)


def snowball(g: Graph, seed: int, budget: int, names: int, rng: random.Random) -> SampleTrace:
    """Round-based referral: each visited node schedules min(names, k_v)
    uniformly chosen neighbors; revived like forest_fire when stalled.
    With names >= max degree every neighbor is scheduled, i.e. plain bfs.
    """
    _check_start(g, seed, budget)
    if names < 1:
        raise ValueError("names must be >= 1")
    return _revivable(g, seed, budget, rng, "sbs", names=names)


def random_walk(g: Graph, seed: int, steps: int, rng: random.Random) -> SampleTrace:
    """Simple random walk; records `steps` nodes, the seed first.

    Moves to a uniform incident stub, so parallel edges weight their endpoint
    proportionally and a self-loop is taken with probability 2/k_v.
    """
    _check_walk(g, seed, steps)
    adj = g.adjacency
    getrandbits = rng.getrandbits
    nodes = [seed]
    u = seed
    for _ in range(steps - 1):
        nbrs = adj[u]
        u = nbrs[_randbelow(getrandbits, len(nbrs))]
        nodes.append(u)
    return _make_trace("rw", g, nodes, True)


def mhrw(g: Graph, seed: int, steps: int, rng: random.Random) -> SampleTrace:
    """Degree-corrected walk with uniform stationary law.

    Proposes a uniform neighbor w and accepts with min(1, k_u / k_w); on
    rejection the current node is recorded again. Transition probability to
    each neighbor w is therefore (1/k_u) * min(1, k_u/k_w).
    """
    _check_walk(g, seed, steps)
    adj = g.adjacency
    getrandbits, draw = rng.getrandbits, rng.random
    nodes = [seed]
    u = seed
    ku = len(adj[u])
    for _ in range(steps - 1):
        nbrs = adj[u]
        w = nbrs[_randbelow(getrandbits, ku)]
        kw = len(adj[w])
        if kw <= ku or draw() * kw < ku:
            u = w
            ku = kw
        nodes.append(u)
    return _make_trace("mhrw", g, nodes, True)


def weighted_without_replacement(degrees: Sequence[int], budget: int,
                                 rng: random.Random) -> list[int]:
    """Successive degree-proportional draws without replacement.

    Each draw picks a remaining node with probability proportional to its
    degree. This is the stub traversal's discovery law, run as a race: a
    degree-k node's minimum stub index t has -ln(1 - t) ~ Exp(k), so sorting
    nodes by an Exp(k) key is sorting them by minimum stub index (the
    exponential-race form of weighted sampling without replacement,
    Efraimidis & Spirakis 2006). Returns `budget` node ids, or fewer if only
    zero-degree nodes remain before the budget is met.
    """
    if budget < 0 or budget > len(degrees):
        raise ValueError("budget must lie in [0, len(degrees)]")
    keys = {v: rng.expovariate(k) for v, k in enumerate(degrees) if k > 0}
    return sorted(keys, key=keys.__getitem__)[:budget]


def stub_level_traversal(degrees: Sequence[int], assignment: StubAssignment, seed: int,
                         discipline: QueueDiscipline, budget: int,
                         rng: random.Random | None = None,
                         restart: bool = False) -> tuple[Graph, SampleTrace]:
    """Graph realization and node trace from one queue-driven stub scan.

    The pairing of stubs is decided lazily: following a stub matches it with
    the unmatched stub of smallest index anywhere in the graph (possibly one
    of its own node's stubs, realizing a self-loop). A newly hit node joins
    the trace and its remaining stubs are enqueued; a stub of an already
    visited node is simply removed from the queue, so no edge is walked
    twice. Run to completion this realizes exactly a uniform stub matching,
    and the non-seed trace order is the ascending order of per-node minimum
    stub indices - the same law as weighted_without_replacement - whatever
    the queue discipline.

    The queue can drain while unmatched stubs remain (the scan walled itself
    in). By default the trace ends there. With restart=True the scan
    continues from the smallest unmatched stub, hopping to the next node in
    index order, which keeps the equivalence with degree-weighted sampling
    exact on disconnected realizations.
    """
    n = len(degrees)
    if not 0 <= seed < n:
        raise ValueError(f"unknown node {seed}")
    if budget < 1:
        raise ValueError("budget must be >= 1")
    if sum(degrees) % 2:
        raise ValueError("degree sequence has an odd stub total")
    if len(assignment.indices) != n or any(len(row) != k for row, k in zip(assignment.indices, degrees)):
        raise ValueError("stub assignment does not match the degree sequence")
    randomized = discipline.kind == "randomized_fifo"
    if randomized and rng is None:
        raise ValueError("randomized_fifo needs an rng for the stub-loss coins")

    owner = [v for v, k in enumerate(degrees) for _ in range(k)]
    tvals = [t for row in assignment.indices for t in row]
    start = list(accumulate(degrees, initial=0))  # v's stubs: range(start[v], start[v + 1])
    total = len(owner)

    order = sorted(range(total), key=tvals.__getitem__)  # scan order
    pos = 0
    matched = bytearray(total)
    visited = bytearray(n)
    visited[seed] = 1
    trace = [seed]
    edges: list[tuple[int, int]] = []
    q: deque[int] = deque()
    lifo = discipline.kind == "lifo"

    def enqueue(s: int) -> None:
        if randomized and rng.random() >= discipline.p:
            return  # stub burned out: never followed, stays matchable
        q.append(s)

    def visit(w: int, skip: int) -> None:
        """w joins the trace; below the budget, its stubs but skip are enqueued.
        The loops below stop at the budget, so no stub is enqueued past it."""
        visited[w] = 1
        trace.append(w)
        if len(trace) < budget:
            for s in range(start[w], start[w + 1]):
                if s != skip:
                    enqueue(s)

    # the seed's stubs are enqueued even at budget 1: their randomized_fifo coins are
    # part of the seeded rng stream
    for s in range(start[seed], start[seed + 1]):
        enqueue(s)

    while len(trace) < budget:
        while q and len(trace) < budget:
            a = q.pop() if lifo else q.popleft()
            if matched[a]:
                continue  # was matched as a partner earlier: lazily removed
            while matched[order[pos]] or order[pos] == a:
                pos += 1  # advancing past a is safe: a is matched right below
            b = order[pos]
            matched[a] = 1
            matched[b] = 1
            edges.append((owner[a], owner[b]))
            if not visited[owner[b]]:
                visit(owner[b], b)
        if len(trace) >= budget or not restart:
            break
        while pos < total and matched[order[pos]]:
            pos += 1
        if pos == total:
            break  # every stub matched
        s0 = order[pos]
        if visited[owner[s0]]:
            q.append(s0)  # a burned-out stub resurfaces; follow it directly
        else:
            visit(owner[s0], -1)

    realized = Graph.from_edges(n, edges)
    degs = [degrees[v] for v in trace]
    sample = SampleTrace("stub", trace, degs, False, len(trace) / n)
    return realized, sample
