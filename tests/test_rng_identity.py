"""The generator, the walks and snowball draw exactly as random.Random does.

configuration_model inlines rng.shuffle's loop, the walks draw through
samplers._randbelow instead of rng.randrange, and snowball samples a
neighbour row itself rather than its indices. Each test here compares them
with a reference written with the stdlib calls: same output and same final
rng state, so every seeded graph and trace stays as it was. The tests are
plain functions with plain asserts, so they also run without pytest:

    PYTHONPATH=src:tests python -c "import test_rng_identity as t; t.run_all()"
"""

import random

from crawlbias import (DegreeDistribution, Graph, configuration_model,
                       degree_sequence_from_distribution, mhrw, random_walk)
from crawlbias.samplers import _randbelow

SEEDS = (0, 1, 7, 64, 2**40 + 3)


def _reference_configuration_model(degrees, rng):
    stubs = [v for v, k in enumerate(degrees) for _ in range(k)]
    rng.shuffle(stubs)
    adj = [[] for _ in degrees]
    for a, b in zip(stubs[::2], stubs[1::2]):
        adj[a].append(b)
        adj[b].append(a)
    return adj


def _reference_random_walk(g, seed, steps, rng):
    nodes = [seed]
    u = seed
    for _ in range(steps - 1):
        nbrs = g.adjacency[u]
        u = nbrs[rng.randrange(len(nbrs))]
        nodes.append(u)
    return nodes


def _reference_mhrw(g, seed, steps, rng):
    adj = g.adjacency
    nodes = [seed]
    u = seed
    for _ in range(steps - 1):
        w = adj[u][rng.randrange(len(adj[u]))]
        if len(adj[w]) <= len(adj[u]) or rng.random() * len(adj[w]) < len(adj[u]):
            u = w
        nodes.append(u)
    return nodes


def _degree_sequences():
    yield []
    yield [0]
    yield [1, 1]
    yield [2]
    yield [0, 3, 0, 1]
    yield [1] * 64 + [64]      # stub total 128: the shuffle crosses a power of two
    yield tuple([2] * 99 + [4])
    d = DegreeDistribution({1: 0.3, 2: 0.4, 6: 0.3})
    yield degree_sequence_from_distribution(d, 301)
    rng = random.Random(5)
    for n in (3, 17, 250):
        seq = [rng.randrange(0, 9) for _ in range(n)]
        seq[0] += sum(seq) % 2
        yield seq
    d = DegreeDistribution({k: k ** -2.5 for k in range(2, 101)}, normalize=True)
    yield degree_sequence_from_distribution(d, 3000)


def test_randbelow_matches_randrange():
    sizes = list(range(1, 130)) + [255, 256, 257, 1000, 2**31 - 1, 2**32 + 1, 2**64 - 1]
    for seed in SEEDS:
        ours, ref = random.Random(seed), random.Random(seed)
        for n in sizes:
            assert _randbelow(ours.getrandbits, n) == ref.randrange(n), (seed, n)
        assert ours.getstate() == ref.getstate()


def test_configuration_model_matches_shuffle_reference():
    for degrees in _degree_sequences():
        for seed in SEEDS:
            ours, ref = random.Random(seed), random.Random(seed)
            g = configuration_model(degrees, ours)
            assert g.adjacency == _reference_configuration_model(degrees, ref), (degrees, seed)
            # GraphSource.build goes on to rewire with the same rng
            assert ours.getstate() == ref.getstate(), (degrees, seed)


def _walk_graphs():
    # multigraphs with self-loops and parallel edges, and a hub whose degree
    # needs many bits, so the rejection loop redraws
    d = DegreeDistribution({1: 0.3, 2: 0.3, 3: 0.2, 9: 0.2})
    seq = degree_sequence_from_distribution(d, 400)
    yield configuration_model(seq, random.Random(11))
    yield Graph.from_edges(3, [(0, 0), (0, 1), (0, 1), (1, 2), (2, 2), (2, 0)])
    yield Graph.from_edges(1001, [(0, v) for v in range(1, 1001)] + [(1, 2), (3, 3)])


def test_walks_match_randrange_reference():
    for g in _walk_graphs():
        starts = [v for v in range(g.node_count) if g.adjacency[v]][:4]
        for walk, reference in ((random_walk, _reference_random_walk),
                                (mhrw, _reference_mhrw)):
            for seed in SEEDS:
                for start in starts:
                    ours, ref = random.Random(seed), random.Random(seed)
                    trace = walk(g, start, 3000, ours)
                    assert trace.nodes == reference(g, start, 3000, ref), (walk, seed, start)
                    assert ours.getstate() == ref.getstate(), (walk, seed, start)


def test_sample_of_sequence_matches_sample_of_indices():
    # snowball refers rng.sample(nbrs, names): random.sample draws its indices
    # from len(population) alone, so the picks and the final state are those of
    # a sample of range(n) mapped back; n crosses the 21-entry set-size switch
    sizes = list(range(1, 41)) + [1000]
    for seed in SEEDS:
        ours, ref = random.Random(seed), random.Random(seed)
        for n in sizes:
            seq = list(range(500, 500 + n))
            for k in range(min(n, 10) + 1):
                picks = [seq[i] for i in ref.sample(range(n), k)]
                assert ours.sample(seq, k) == picks, (seed, n, k)
        assert ours.getstate() == ref.getstate(), seed


def run_all():
    """Run every test of this module; for interpreters without pytest."""
    for name, fn in sorted(globals().items()):
        if name.startswith("test_"):
            fn()
            print("ok", name)
