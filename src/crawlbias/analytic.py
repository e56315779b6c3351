"""Closed-form bias curves for degree-weighted exploration.

Model: every stub of every node draws an independent uniform index on [0, 1]
and nodes are discovered in ascending order of their minimum stub index. A
degree-k node is still undiscovered at scan time t with probability
(1 - t)^k, which yields, with p_k the underlying degree fractions:

    f_k(t) = p_k * (1 - (1 - t)^k)        discovered fraction inside class k
    f(t)   = 1 - sum_k p_k * (1 - t)^k    overall discovered fraction
    q_k    = f_k(t) / f(t)                degree mix of the sample at time t

f is strictly increasing on [0, 1], so coverage f maps back to a unique scan
time t(f) (bisection). As f -> 0 the sample degree mix tends to the
stationary degree-weighted law k * p_k / <k>; at f = 1 it equals p_k.
"""

from __future__ import annotations

import json
import math
from typing import Callable, Sequence

from .graph import DegreeDistribution


def _inclusion(t: float, k: int) -> float:
    """1 - (1 - t)^k without cancellation at small t."""
    if k == 0 or t <= 0.0:
        return 0.0
    if t >= 1.0:
        return 1.0
    return -math.expm1(k * math.log1p(-t))


def _check_t(t: float) -> None:
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"scan time t must lie in [0, 1], got {t!r}")


def f_k_of_t(d: DegreeDistribution, t: float) -> dict[int, float]:
    """Per-class discovered fraction f_k(t) = p_k * (1 - (1-t)^k)."""
    _check_t(t)
    return {k: p * _inclusion(t, k) for k, p in d.items()}


def f_of_t(d: DegreeDistribution, t: float) -> float:
    """Overall discovered fraction f(t); equals 1 - p_0 at t = 1."""
    return sum(f_k_of_t(d, t).values())


def reachable_fraction(d: DegreeDistribution) -> float:
    """Coverage ceiling 1 - p_0: zero-degree nodes are never discovered."""
    return 1.0 - d.get(0)


class ConvergenceError(RuntimeError):
    """A scan-time solve did not reach tolerance."""

    def __init__(self, message: str, iterations: int, residual: float):
        super().__init__(message)
        self.iterations = iterations
        self.residual = residual


def _solve_t(excess: Callable[[float], float], tol: float,
             max_iter: int) -> tuple[float, float, int]:
    """Scan time t in (0, 1] with |excess(t)| <= tol, as (t, excess(t), iterations).

    excess must increase in t and be negative as t -> 0+. t = 1 is tried first,
    then (0, 1] is bisected; every evaluation counts as one iteration.
    """
    t, res = 1.0, excess(1.0)
    iterations = 1
    lo, hi = 0.0, 1.0
    while abs(res) > tol:
        if iterations >= max_iter:
            raise ConvergenceError(f"no t with |f residual| <= {tol} after {max_iter} iterations",
                                   iterations, excess(0.5 * (lo + hi)))
        iterations += 1
        t = 0.5 * (lo + hi)
        res = excess(t)
        if res < 0.0:
            lo = t
        else:
            hi = t
    return t, res, iterations


def t_of_f(d: DegreeDistribution, f: float, *, max_iter: int = 200) -> float:
    """Invert f(t) = f to |f(t) - f| <= 1e-10 by _solve_t's bisection, which
    raises ConvergenceError after max_iter evaluations.

    f must lie in [0, 1 - p_0]; the inverse exists because f(t) is strictly
    increasing wherever some positive-degree class has mass.
    """
    fmax = reachable_fraction(d)
    if not 0.0 <= f <= fmax + 1e-12:  # NaN fails too
        raise ValueError(f"coverage {f!r} outside reachable range [0, {fmax}]")
    if f <= 0.0:
        return 0.0
    if f >= fmax:
        return 1.0
    return _solve_t(lambda t: f_of_t(d, t) - f, 1e-10, max_iter)[0]


def _implied_f(q: DegreeDistribution, t: float) -> float:
    """Coverage F(q, t) = 1 / sum_k q_k / pi_k(t) that an observed degree mix q
    implies at scan time t: the q_k / pi_k(t) reweighting of q, fed forward
    through f(., t). Needs t > 0 and no zero-degree mass in q."""
    return 1.0 / sum(qk / _inclusion(t, k) for k, qk in q.items())


def q_k_of_t(d: DegreeDistribution, t: float) -> DegreeDistribution:
    """Sample degree mix at scan time t; t = 0 returns its limit k*p_k/<k>."""
    if t == 0.0:
        return rw_expected(d)[0]
    return DegreeDistribution(f_k_of_t(d, t), normalize=True)


def q_k_of_f(d: DegreeDistribution, f: float) -> DegreeDistribution:
    """Sample degree mix at coverage f; f = 0 returns the k*p_k/<k> limit."""
    return q_k_of_t(d, t_of_f(d, f))


def mean_q_of_f(d: DegreeDistribution, f: float) -> float:
    """Expected sampled degree at coverage f.

    Decreases from <k^2>/<k> at f -> 0 down to <k> at full coverage; strictly
    decreasing whenever d has more than one positive-degree class.
    """
    return q_k_of_f(d, f).mean()


def rw_expected(d: DegreeDistribution) -> tuple[DegreeDistribution, float]:
    """Stationary degree-weighted law q_k = k * p_k / <k> and its mean <k^2>/<k>."""
    mean = d.mean()
    q = DegreeDistribution({k: k * p / mean for k, p in d.items() if k > 0}, normalize=True)
    return q, d.second_moment() / mean


def exact_step_distribution(degrees: Sequence[int], step: int) -> list[float]:
    """Exact law of the `step`-th draw of degree-weighted sampling without replacement.

    With z the stub total and K(S) the stubs of a drawn set S, the first draw
    is degree-proportional and each later draw is degree-proportional among
    the nodes not yet drawn, so the drawn sets carry the whole law:

        P(S + v) = sum over S not holding v of P(S) * k_v / (z - K(S))

    One pass per draw maps each drawn set to its probability and its stubs
    left, and the last pass adds P(S) * k_v / (z - K(S)) to the law of v. Any
    draw is covered; the cost is at most about 2^n * n for n nodes. Each draw
    adds one node, so a step past the number of positive-degree nodes is never
    reached and raises ValueError; every other step's law has mass 1.
    """
    if step < 1:
        raise ValueError(f"step must be >= 1, got {step!r}")
    if any(k < 0 for k in degrees):
        raise ValueError("degrees must be nonnegative")
    z = sum(degrees)
    if z == 0:
        raise ValueError("degree sequence has no stubs")
    if step > (positive := sum(k > 0 for k in degrees)):
        raise ValueError(f"step {step} is not always reachable on this sequence: "
                         f"it has {positive} positive-degree nodes")
    probs = [0.0] * len(degrees)
    drawn = {0: (1.0, z)}  # drawn set, as a bitmask -> (its probability, its stubs left)
    for draw in range(1, step + 1):
        grown: dict[int, tuple[float, int]] = {}
        for s, (p, rest) in drawn.items():
            for v, k in enumerate(degrees):
                if k == 0 or s >> v & 1:
                    continue
                pv = k / rest * p
                if draw == step:
                    probs[v] += pv
                else:
                    grown[s | 1 << v] = (grown.get(s | 1 << v, (0.0, 0))[0] + pv, rest - k)
        drawn = grown
    return probs


def curve_rows(d: DegreeDistribution, f_grid: Sequence[float]) -> list[dict[str, object]]:
    """Rows for the CSV curve export: f, t, mean_q, q_k_json."""
    rows = []
    for f in f_grid:
        t = t_of_f(d, f)
        q = q_k_of_t(d, t)  # q_k_of_f, without a second solve
        rows.append({
            "f": f,
            "t": t,
            "mean_q": q.mean(),
            "q_k_json": json.dumps({str(k): p for k, p in q.items()}),
        })
    return rows
