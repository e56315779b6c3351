"""Exact, tolerance-free law tests: every stub matching of a small degree sequence.

On the configuration model, given the crawl so far, the next new node is
degree-proportional among the undiscovered ones, whatever the traversal. Over
every perfect matching of the stubs of a 10-stub degree sequence (945 of them),
each node's adjacency in stub order, and every start node, the law of a trace's
prefix is a finite sum, compared here as Fractions with no tolerance.

Forest fire and snowball also draw coins and referrals. Their stream is held
fixed: a fresh random.Random(s) per graph, so the i-th draw is the same number
on every matching. Their prefix law must then equal bfs's for each stream.
"""

import random
from collections import Counter
from fractions import Fraction
from functools import cache

from crawlbias import Graph
from crawlbias.experiments import TECHNIQUES

SEQUENCES = ((1, 1, 2, 2, 2, 2), (1, 2, 2, 2, 3))
PREFIX = 4          # the trace prefix whose law is compared
STREAMS = (0, 1)    # random.Random seeds for the techniques that draw
#: parameters other than a traversal's default: snowball's default of 2 referrals binds
#: only at degree 3, 1 binds at every node of degree 2 or more
PARAMS = {"sbs": 1}


def _matchings(stubs):
    """Every perfect matching of the stub list, as lists of pairs."""
    if not stubs:
        yield []
        return
    a, rest = stubs[0], stubs[1:]
    for i, b in enumerate(rest):
        for m in _matchings(rest[:i] + rest[i + 1:]):
            yield [(a, b), *m]


@cache
def _graphs(degrees):
    """One Graph per stub matching; node v's adjacency lists its stubs' partners'
    owners in stub order (a self-loop appears twice)."""
    owner = [v for v, k in enumerate(degrees) for _ in range(k)]
    graphs = []
    for m in _matchings(list(range(len(owner)))):
        partner = {}
        for a, b in m:
            partner[a], partner[b] = b, a
        adj = [[] for _ in degrees]
        for s, v in enumerate(owner):
            adj[v].append(owner[partner[s]])
        graphs.append(Graph(adj))
    return tuple(graphs)


def _law(graphs, run):
    """The law of the PREFIX-node trace prefix over every graph and start node."""
    counts = Counter(tuple(run(g, start).nodes)
                     for g in graphs for start in range(g.node_count))
    total = sum(counts.values())
    return {prefix: Fraction(c, total) for prefix, c in counts.items()}


@cache
def _bfs_law(degrees):
    bfs = TECHNIQUES["bfs"].run
    return _law(_graphs(degrees), lambda g, v: bfs(g, v, PREFIX, None, None))


def _settings():
    """(name, parameter) of every traversal but bfs: its PARAMS entry, else its default."""
    for name, tech in TECHNIQUES.items():
        if tech.law == "traversal" and name != "bfs":
            yield name, PARAMS.get(name, tech.param and tech.param.default)


def test_every_traversal_has_the_prefix_law_of_bfs():
    for degrees in SEQUENCES:
        graphs = _graphs(degrees)
        assert len(graphs) == 945
        for name, param in _settings():
            run = TECHNIQUES[name].run
            for s in STREAMS:
                got = _law(graphs, lambda g, v: run(g, v, PREFIX, param, random.Random(s)))
                assert got == _bfs_law(degrees), (degrees, name, param, s)


def test_bfs_next_node_is_degree_proportional_among_the_undiscovered():
    for degrees in SEQUENCES:
        law = _bfs_law(degrees)
        checked = 0
        for length in range(1, PREFIX):
            # P(the first length + 1 nodes), for every trace that gets that far
            longer = Counter()
            for prefix, p in law.items():
                if len(prefix) > length:
                    longer[prefix[:length + 1]] += p
            going = Counter()
            for prefix, p in longer.items():
                going[prefix[:length]] += p
            for prefix, p in longer.items():
                head = prefix[:length]
                left = sum(k for v, k in enumerate(degrees) if v not in head)
                assert p / going[head] == Fraction(degrees[prefix[-1]], left), prefix
                checked += 1
        assert checked > 100
