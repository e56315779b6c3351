"""Degree-sequence realization: stub matching and assortativity-targeted rewiring."""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from itertools import chain, repeat
from typing import Sequence

from .graph import DegreeDistribution, Graph, _pearson, assortativity


def degree_sequence_from_distribution(d: DegreeDistribution, n: int) -> list[int]:
    """n degrees whose class counts follow d by largest-remainder rounding.

    If the resulting stub total is odd, one node from the class with the
    largest remaining rounding deficit gets its degree incremented by one so
    the sequence stays realizable by stub matching.
    """
    if n < 1:
        raise ValueError("need at least one node")
    exact = {k: p * n for k, p in d.items()}
    counts = {k: int(e) for k, e in exact.items()}
    leftover = n - sum(counts.values())
    by_remainder = sorted(exact, key=lambda k: (-(exact[k] - counts[k]), k))
    for k in by_remainder[:leftover]:
        counts[k] += 1

    if sum(k * c for k, c in counts.items()) % 2:
        eligible = [k for k, c in counts.items() if c > 0]
        bump = max(eligible, key=lambda k: (exact[k] - counts[k], -k))
        counts[bump] -= 1
        counts[bump + 1] = counts.get(bump + 1, 0) + 1

    return [k for k in sorted(counts) for _ in range(counts[k])]


def configuration_model(degrees: Sequence[int], rng: random.Random) -> Graph:
    """Uniform stub matching: shuffle the stub list, pair consecutive entries.

    Self-loops and parallel edges are kept, exactly as the matching produces
    them; a self-loop contributes 2 to its node's degree.

    The shuffle makes exactly the rng.getrandbits calls that
    random.Random.shuffle makes, so a seeded graph, and the state rng is
    left in, are the same as with rng.shuffle (checked on Python 3.10-3.13).
    """
    stubs = list(chain.from_iterable(map(repeat, range(len(degrees)), degrees)))
    if len(stubs) % 2:
        raise ValueError("degree sequence has an odd stub total")
    # rng.shuffle's Fisher-Yates loop, with samplers._randbelow(getrandbits,
    # i + 1) inlined: a Python-level call per stub is what rng.shuffle costs
    getrandbits = rng.getrandbits
    for i in range(len(stubs) - 1, 0, -1):
        k = (i + 1).bit_length()
        j = getrandbits(k)
        while j > i:
            j = getrandbits(k)
        stubs[i], stubs[j] = stubs[j], stubs[i]
    pairs = iter(stubs)
    return Graph.from_edges(len(degrees), zip(pairs, pairs))


#: The tolerance every rewired graph in the package meets.
_TOLERANCE = 0.02


@dataclass
class RewireResult:
    graph: Graph
    achieved_r: float
    accepted: int
    proposals: int
    reached: bool                # |achieved_r - target_r| <= tolerance


def rewire_to_assortativity(g: Graph, target_r: float, rng: random.Random,
                            *, tolerance: float = _TOLERANCE,
                            max_steps: int | None = None) -> RewireResult:
    """Drive degree assortativity toward target_r by pairwise edge swaps.

    A proposal picks two random edges {a,b}, {c,d} and rewires them to
    {a,d}, {c,b}; it is rejected if it would create a self-loop or an edge
    that already exists, and accepted only if it moves r strictly closer to
    the target. Degrees never change, so |r - target| is non-increasing.
    Stops at |r - target| <= tolerance, with no proposal if r starts there,
    or after max_steps proposals (default 100 * edge_count); reports the
    achieved r and whether it reached the target. The default tolerance is
    the one every rewired graph in the package meets. Raises ValueError,
    before any proposal, for a target_r outside [-1, 1] or a negative tolerance.
    """
    if not -1.0 <= target_r <= 1.0:
        raise ValueError(f"target_r must lie in [-1, 1], got {target_r!r}")
    if not tolerance >= 0.0:
        raise ValueError(f"tolerance must be >= 0, got {tolerance!r}")
    if g.edge_count < 2:
        raise ValueError("need at least two edges to rewire")
    pearson = _pearson(g)
    if pearson is None:
        raise ValueError("assortativity undefined on this graph (zero degree variance)")
    # only the cross sum s11 moves under degree-preserving swaps
    r_of, s11 = pearson
    r0 = r_of(s11)
    if abs(r0 - target_r) <= tolerance:
        return RewireResult(g, r0, 0, 0, True)
    if max_steps is None:
        max_steps = 100 * g.edge_count

    edges = list(g.edges())
    counts = Counter(edges)
    deg = g.degrees()
    gap = abs(r0 - target_r)
    accepted = 0
    proposals = 0
    ecount = len(edges)

    while gap > tolerance and proposals < max_steps:
        proposals += 1
        i = rng.randrange(ecount)
        j = rng.randrange(ecount)
        if i == j:
            continue
        a, b = edges[i]
        c, d = edges[j]
        # edge endpoints are unordered; flip so both distinct swaps get proposed
        if rng.random() < 0.5:
            a, b = b, a
        if rng.random() < 0.5:
            c, d = d, c
        if a == d or c == b:
            continue
        k1 = (a, d) if a <= d else (d, a)
        k2 = (c, b) if c <= b else (b, c)
        if k1 == k2 or counts.get(k1) or counts.get(k2):
            continue
        delta = 2.0 * (deg[a] * deg[d] + deg[c] * deg[b] - deg[a] * deg[b] - deg[c] * deg[d])
        new_r = r_of(s11 + delta)
        if abs(new_r - target_r) >= gap:
            continue
        counts[(a, b) if a <= b else (b, a)] -= 1
        counts[(c, d) if c <= d else (d, c)] -= 1
        counts[k1] += 1
        counts[k2] += 1
        edges[i] = (a, d)
        edges[j] = (c, b)
        s11 += delta
        gap = abs(new_r - target_r)
        accepted += 1

    if accepted == 0:                # so r0 is still beyond tolerance
        return RewireResult(g, r0, 0, proposals, False)
    out = Graph.from_edges(g.node_count, edges, g.labels)
    achieved = assortativity(out)
    assert achieved is not None
    return RewireResult(out, achieved, accepted, proposals,
                        abs(achieved - target_r) <= tolerance)
