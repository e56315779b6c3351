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
    _check_t(t)
    return sum(p * _inclusion(t, k) for k, p in d.items())


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


def t_of_f(d: DegreeDistribution, f: float, *, tol: float = 1e-10, max_iter: int = 200) -> float:
    """Invert f(t) = f to |f(t) - f| <= tol by _solve_t's bisection, which
    raises ConvergenceError after max_iter evaluations.

    f must lie in [0, 1 - p_0]; the inverse exists because f(t) is strictly
    increasing wherever some positive-degree class has mass.
    """
    fmax = reachable_fraction(d)
    if f < 0.0 or f > fmax + 1e-12:
        raise ValueError(f"coverage {f!r} outside reachable range [0, {fmax}]")
    if f <= 0.0:
        return 0.0
    if f >= fmax:
        return 1.0
    return _solve_t(lambda t: f_of_t(d, t) - f, tol, max_iter)[0]


def _implied_f(q: DegreeDistribution, t: float) -> float:
    """Coverage F(q, t) = 1 / sum_k q_k / pi_k(t) that an observed degree mix q
    implies at scan time t: the q_k / pi_k(t) reweighting of q, fed forward
    through f(., t). Needs t > 0 and no zero-degree mass in q."""
    return 1.0 / sum(qk / _inclusion(t, k) for k, qk in q.items())


def q_k_of_t(d: DegreeDistribution, t: float) -> DegreeDistribution:
    """Sample degree mix at scan time t (t > 0)."""
    _check_t(t)
    if t <= 0.0:
        raise ValueError("q_k is a 0/0 limit at t = 0; use q_k_of_f with f = 0")
    return DegreeDistribution(f_k_of_t(d, t), normalize=True)


def q_k_of_f(d: DegreeDistribution, f: float) -> DegreeDistribution:
    """Sample degree mix at coverage f; f = 0 returns the k*p_k/<k> limit."""
    if f == 0.0:
        return rw_expected(d)[0]
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

    With z the stub total, the chain starts degree-proportionally and each
    later draw is degree-proportional among the nodes not yet drawn:

        P(X1 = u) = k_u / z
        P(X2 = v) = sum_{u != v} k_v / (z - k_u) * P(X1 = u)
        P(X3 = w) = sum_{v != w} sum_{u != w, v}
                        k_w / (z - k_v - k_u) * k_v / (z - k_u) * P(X1 = u)

    Steps 1..3 are supported; the step-3 nested sum restricts the sequence
    length to 12.
    """
    if step not in (1, 2, 3):
        raise ValueError("only steps 1..3 are supported")
    if step == 3 and len(degrees) > 12:
        raise ValueError("step 3 is limited to sequences of at most 12 nodes")
    if any(k < 0 for k in degrees):
        raise ValueError("degrees must be nonnegative")
    z = sum(degrees)
    if z == 0:
        raise ValueError("degree sequence has no stubs")
    probs = [0.0] * len(degrees)

    def draw(p: float, rest: int, drawn: tuple[int, ...], left: int) -> None:
        """Draw one of the undrawn nodes from the rest stubs, the path so far having
        probability p; at the last draw add each outcome's probability to probs."""
        for v, k in enumerate(degrees):
            if k == 0 or v in drawn:
                continue
            pv = k / rest * p
            if left == 1:
                probs[v] += pv
            elif rest > k:  # else v holds every stub left: no later draw down this path
                draw(pv, rest - k, (*drawn, v), left - 1)

    draw(1.0, z, (), step)
    _check_total(probs, step)
    return probs


def _check_total(probs: list[float], step: int) -> None:
    total = sum(probs)
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"step {step} is not always reachable on this sequence "
                         f"(mass {total:.6f} < 1)")


def curve_rows(d: DegreeDistribution, f_grid: Sequence[float]) -> list[dict[str, object]]:
    """Rows for the CSV curve export: f, t, mean_q, q_k_json."""
    rows = []
    for f in f_grid:
        t = t_of_f(d, f)
        q = q_k_of_t(d, t) if f else rw_expected(d)[0]  # q_k_of_f, without a second solve
        rows.append({
            "f": f,
            "t": t,
            "mean_q": q.mean(),
            "q_k_json": json.dumps({str(k): p for k, p in q.items()}),
        })
    return rows
