"""Bias-corrected estimation from sample traces and neighborhood samples."""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from operator import mul
from typing import Callable, Sequence

from .analytic import ConvergenceError, _implied_f, _inclusion, _solve_t
from .graph import DegreeDistribution, Graph, ball
from .samplers import SampleTrace, _make_trace


@dataclass
class EstimationReport:
    """Outcome of one correction: point estimate plus solver diagnostics."""

    technique: str
    mean: float
    distribution: DegreeDistribution | None = None
    total: float | None = None
    iterations: int = 0
    t_value: float | None = None
    residual: float | None = None

    @property
    def mean_degree(self) -> float | None:
        """The corrected distribution's mean; None without a distribution."""
        return None if self.distribution is None else self.distribution.mean()


def empirical_q(trace: SampleTrace) -> DegreeDistribution:
    """Observed degree mix of a trace, with multiplicity."""
    return DegreeDistribution.from_sequence(trace.degrees)


def rw_correct(trace: SampleTrace) -> EstimationReport:
    """Undo stationary degree-proportional inclusion (random-walk samples).

    Every record is weighted by 1/k_v:

        x_hat = sum(x(v)/k_v) / sum(1/k_v)

    x is the trace's x_values, else the degree, whose estimate is the mean degree
    |S| / sum(1/k_v). The corrected degree distribution reweights the observed
    mix by 1/k. Being a ratio estimator, the output is invariant under
    duplicating the trace.
    """
    if min(trace.degrees) <= 0:
        raise ValueError("zero-degree record: 1/k weight undefined")
    return _reweight("rw-corrected", trace, empirical_q(trace), lambda k: k)


def _reweight(technique: str, trace: SampleTrace, q: DegreeDistribution,
              inclusion: Callable[[int], float], **diagnostics: object) -> EstimationReport:
    """Hajek ratio under per-degree inclusion weights pi_k = inclusion(k): a
    degree-k record weighs 1/pi_k and p_hat_k is proportional to q_k / pi_k
    (Sarndal, Swensson & Wretman 1992, ch. 5). x is the trace's x_values, else
    its degrees as ints: k * w and sum(k) / n round exactly as with float(k)."""
    pi = {k: inclusion(k) for k in q.support()}
    weight = {k: 1.0 / w for k, w in pi.items()}  # once per degree, not per record
    xs = trace.degrees if trace.x_values is None else trace.x_values
    inv = weight.__getitem__
    est = sum(map(mul, xs, map(inv, trace.degrees))) / sum(map(inv, trace.degrees))
    p_hat = DegreeDistribution({k: qk / pi[k] for k, qk in q.items()}, normalize=True)
    return EstimationReport(technique, est, p_hat, **diagnostics)


def mhrw_correct(trace: SampleTrace) -> EstimationReport:
    """Plain mean: the degree-corrected walk already samples uniformly, so every
    record weighs 1 in the reweighting rw_correct and bfs_correct use too."""
    return _reweight("mhrw", trace, empirical_q(trace), lambda k: 1.0)


def bfs_correct(trace: SampleTrace, f_real: float, *, max_iter: int = 500) -> EstimationReport:
    """Correct an early traversal sample using its known coverage f_real.

    The scan time t is not observable, but it is pinned by consistency: the
    corrected distribution p_hat(t), proportional to q_hat_k / pi_k(t) with
    pi_k(t) = 1 - (1-t)^k, must predict the observed coverage, and fed forward
    it predicts f(p_hat(t), t) = 1 / sum_k q_hat_k / pi_k(t). Its residual
    against f_real is negative near t = 0 and equals 1 - f_real at t = 1, so
    a sign-changing bracket always exists and bisection locates t* to a
    residual of at most 1e-8 (ConvergenceError past max_iter). Records are
    then weighted by 1 / pi_k(t*) and averaged as a ratio estimator.
    """
    if trace.with_replacement:
        raise ValueError("coverage-based correction needs a without-replacement trace")
    if not 0.0 < f_real <= 1.0:
        raise ValueError("f_real must lie in (0, 1]")
    if min(trace.degrees) <= 0:
        raise ValueError("zero-degree record cannot be coverage-corrected")
    q_hat = empirical_q(trace)
    t_star, res_star, iterations = _solve_t(lambda t: _implied_f(q_hat, t) - f_real,
                                            1e-8, max_iter)
    return _reweight("bfs-corrected", trace, q_hat, lambda k: _inclusion(t_star, k),
                     iterations=iterations, t_value=t_star, residual=res_star)


# --- arbitrary-topology unbiased totals ------------------------------------

_VARIANTS = ("trivial", "extreme", "half_radius", "half_radius_extended")


@dataclass(frozen=True)
class NeighborhoodScheme:
    """Maps each possible seed w to an estimation set Q(w) built from balls.

    depth i is the sampling radius: the observed sample around a seed is the
    full ball B_i(seed). Variants:

      trivial               Q(w) = {w}
      extreme               Q(special) = B_i(special), else {w}
      half_radius           Q(w) = B_{i//2}(w)
      half_radius_extended  Q(w) = B_{i//2}(w) union {v : B_i(v) subset B_i(w)}

    seed_probs is the seed-selection law p(w) (uniform when None).
    """

    variant: str
    depth: int
    special: int | None = None
    seed_probs: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if self.variant not in _VARIANTS:
            raise ValueError(f"unknown scheme variant {self.variant!r}")
        if self.depth < 1:
            raise ValueError("depth must be >= 1")
        if self.variant == "extreme" and self.special is None:
            raise ValueError("extreme scheme needs its special node")
        if self.seed_probs is not None:
            if any(p <= 0 for p in self.seed_probs):
                raise ValueError("seed probabilities must be positive")
            if abs(sum(self.seed_probs) - 1.0) > 1e-9:
                raise ValueError("seed probabilities must sum to 1")


def _seed_probs(scheme: NeighborhoodScheme, n: int) -> Sequence[float]:
    if scheme.seed_probs is None:
        return [1.0 / n] * n
    if len(scheme.seed_probs) != n:
        raise ValueError("seed_probs length must equal the node count")
    return scheme.seed_probs


def arbitrary_topology_estimate(g: Graph, x: Sequence[float], seed: int,
                                scheme: NeighborhoodScheme,
                                mode: str = "sample_only") -> EstimationReport:
    """Unbiased total from one neighborhood sample on a known-size graph.

    With inclusion weight pi(v) = sum of p(w) over seeds w whose Q(w)
    contains v, the estimate

        x_hat_tot = sum_{v in Q(seed)} x(v) / pi(v)

    satisfies E[x_hat_tot] = sum_v x(v) exactly, for any scheme. The report
    carries the total and its per-node mean x_hat_tot / |V|.

    mode 'sample_only' refuses the schemes whose weights need balls of
    unsampled nodes: the extended variant, and half_radius under nonuniform
    seed probabilities. Every other read stays inside the observed sample
    B_depth(seed): for v in B_{depth//2}(seed), B_{depth//2}(v) lies in
    B_depth(seed) by the triangle inequality.
    """
    if mode not in ("sample_only", "oracle"):
        raise ValueError(f"unknown mode {mode!r}")
    if len(x) != g.node_count:
        raise ValueError("x must supply one value per node")
    n = g.node_count
    sample_only = mode == "sample_only"
    if sample_only and scheme.variant == "half_radius_extended":
        raise ValueError("extended scheme needs oracle mode: its inclusion sets "
                         "compare balls of unsampled nodes")
    probs = _seed_probs(scheme, n)
    if sample_only and scheme.variant == "half_radius" and scheme.seed_probs is not None:
        if any(abs(p - 1.0 / n) > 1e-15 for p in scheme.seed_probs):
            raise ValueError("half_radius inclusion weights are sample-computable "
                             "only under uniform seed selection")

    # Q(seed), and seeds_of(v): the seeds w whose Q(w) holds v
    half = scheme.depth // 2
    if scheme.variant == "trivial":
        q_set, seeds_of = [seed], lambda v: (v,)
    elif scheme.variant == "extreme":
        v_star = scheme.special
        if not 0 <= v_star < n:
            raise ValueError(f"unknown special node {v_star}")
        sample = ball(g, seed, scheme.depth)
        q_set = sorted(sample) if seed == v_star else [seed]
        # v lies in Q(v*) = B_i(v*) iff v* lies in B_i(v), by ball symmetry; for v in
        # Q(seed) that is v* in the sample, as v is the seed or seed = v*
        seeds_of = lambda v: (v, v_star) if v != v_star and v_star in sample else (v,)
    elif scheme.variant == "half_radius":
        q_set = sorted(ball(g, seed, half))
        seeds_of = lambda v: ball(g, v, half)
    else:  # half_radius_extended, oracle only
        big = [frozenset(ball(g, w, scheme.depth)) for w in range(n)]
        q = [set(ball(g, w, half)).union(v for v in range(n) if big[v] <= big[w])
             for w in range(n)]
        q_set = sorted(q[seed])
        seeds_of = lambda v: [w for w in range(n) if v in q[w]]
    pi = {v: sum(probs[w] for w in seeds_of(v)) for v in q_set}
    total = sum(x[v] / pi[v] for v in q_set)
    return EstimationReport(f"arb-{scheme.variant}", total / n, total=total)


def rmse_compare(g: Graph, x: Sequence[float], replicas: int, rng: random.Random,
                 *, depth: int = 2) -> list[dict[str, object]]:
    """Head-to-head RMSE of the half-radius neighborhood estimator and
    coverage-corrected traversal on equal sample sizes.

    Each replica draws a uniform seed; the half-radius scheme estimates from
    B_depth(seed), and the corrected traversal consumes a breadth-first sample
    of the same size |B_depth(seed)| from the same seed, which is that ball in
    discovery order, so one traversal serves both. Estimates are
    per-node means x_hat_tot / |V|; RMSE is against the true mean of x.
    """
    if replicas < 1:
        raise ValueError("replicas must be >= 1")
    scheme = NeighborhoodScheme("half_radius", depth)
    n = g.node_count
    truth = sum(x) / n
    arb: list[EstimationReport] = []
    corrected: list[EstimationReport] = []
    for _ in range(replicas):
        seed = rng.randrange(n)
        arb.append(arbitrary_topology_estimate(g, x, seed, scheme))
        trace = _make_trace("bfs", g, list(ball(g, seed, depth)), False)
        trace = replace(trace, x_values=[x[v] for v in trace.nodes])
        corrected.append(bfs_correct(trace, trace.coverage))
    return [_rmse_row(arb, truth),
            _rmse_row(corrected, truth, sum(r.iterations for r in corrected) / replicas,
                      max(abs(r.residual) for r in corrected))]


def _rmse_row(reports: list[EstimationReport], truth: float, iterations: float | None = None,
              residual: float | None = None) -> dict[str, object]:
    vals = [r.mean for r in reports]
    return {
        "method": reports[0].technique,
        "mean_estimate": sum(vals) / len(vals),
        "rmse": (sum((v - truth) ** 2 for v in vals) / len(vals)) ** 0.5,
        "replicas": len(vals),
        "diag_iterations": iterations,
        "diag_residual": residual,
    }
