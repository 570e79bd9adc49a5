"""The paper's proven bounds as evaluable reference curves.

Each function returns the *shape* of a bound — the asymptotic expression
with all hidden constants set to 1 — so benchmarks can compare measured
round counts against predicted scaling (ratios along a sweep should stay
roughly flat; measured/bound ratios drifting with n, k, Δ or α indicate a
shape mismatch).  Absolute values are meaningless; trends are the point.

================= =============================================  =========
Function          Expression                                     Source
================= =============================================  =========
blindmatch_bound  (1/α)·k·Δ²·log²n                               Thm 4.1
sharedbit_bound   k·n                                            Thm 5.1
simsharedbit      k·n + (1/α)·Δ^{1/τ}·log⁶n                      Thm 5.6
crowdedbin_bound  (k/α)·log⁶n                                    Thm 6.10
epsilon_gossip    n·√(Δ·logΔ) / ((1−ε)·α)                        Thm 7.4
ppush_bound       (1/α)·log⁴n                                    Thm 6.1
doublestar_lower  Δ²/√α                                          §1 / [22]
================= =============================================  =========
"""

from __future__ import annotations

import math

from repro.errors import ConfigurationError

__all__ = [
    "blindmatch_bound",
    "sharedbit_bound",
    "simsharedbit_bound",
    "crowdedbin_bound",
    "epsilon_gossip_bound",
    "ppush_bound",
    "doublestar_lower_bound",
    "BOUND_TEXT",
    "BOUNDS",
]


def _check(n: int | None = None, k: int | None = None,
           alpha: float | None = None, delta: int | None = None,
           tau: float | None = None, epsilon: float | None = None) -> None:
    if n is not None and n < 2:
        raise ConfigurationError(f"n must be >= 2, got {n}")
    if k is not None and k < 1:
        raise ConfigurationError(f"k must be >= 1, got {k}")
    if alpha is not None and alpha <= 0:
        raise ConfigurationError(f"alpha must be > 0, got {alpha}")
    if delta is not None and delta < 1:
        raise ConfigurationError(f"delta must be >= 1, got {delta}")
    if tau is not None and tau < 1:
        raise ConfigurationError(f"tau must be >= 1, got {tau}")
    if epsilon is not None and not 0 < epsilon < 1:
        raise ConfigurationError(f"epsilon must be in (0, 1), got {epsilon}")


def _log2(value: float) -> float:
    return math.log2(max(value, 2.0))


def blindmatch_bound(n: int, k: int, alpha: float, delta: int) -> float:
    """Theorem 4.1: O((1/α)·k·Δ²·log²n) for b = 0, τ ≥ 1."""
    _check(n=n, k=k, alpha=alpha, delta=delta)
    return (1.0 / alpha) * k * delta**2 * _log2(n) ** 2


def sharedbit_bound(n: int, k: int) -> float:
    """Theorem 5.1: O(k·n) for b = 1, τ ≥ 1, shared randomness."""
    _check(n=n, k=k)
    return float(k * n)


def simsharedbit_bound(n: int, k: int, alpha: float, delta: int,
                       tau: float) -> float:
    """Theorem 5.6: O(k·n + (1/α)·Δ^{1/τ}·log⁶n) for b = 1, τ ≥ 1."""
    _check(n=n, k=k, alpha=alpha, delta=delta, tau=tau)
    leader_term = (1.0 / alpha) * float(delta) ** (1.0 / tau) * _log2(n) ** 6
    return k * n + leader_term


def crowdedbin_bound(n: int, k: int, alpha: float) -> float:
    """Theorem 6.10: O((k/α)·log⁶n) for b = 1, τ = ∞."""
    _check(n=n, k=k, alpha=alpha)
    return (k / alpha) * _log2(n) ** 6


def epsilon_gossip_bound(n: int, alpha: float, delta: int,
                         epsilon: float) -> float:
    """Theorem 7.4: O(n·√(Δ·logΔ) / ((1−ε)·α)) for SharedBit, k = n."""
    _check(n=n, alpha=alpha, delta=delta, epsilon=epsilon)
    return n * math.sqrt(delta * _log2(delta)) / ((1.0 - epsilon) * alpha)


def ppush_bound(n: int, alpha: float) -> float:
    """Theorem 6.1 (from [11]): PPUSH spreads a rumor in O(log⁴n / α)."""
    _check(n=n, alpha=alpha)
    return _log2(n) ** 4 / alpha


def doublestar_lower_bound(delta: int, alpha: float = None) -> float:
    """The Ω(Δ²/√α) lower bound for blind strategies ([22], §1 intuition).

    On the double star α = Θ(1/Δ), so the bound is Ω(Δ^2.5) there; passing
    ``alpha=None`` returns the Δ² core term only.
    """
    _check(delta=delta)
    if alpha is None:
        return float(delta**2)
    _check(alpha=alpha)
    return delta**2 / math.sqrt(alpha)


#: Algorithm name -> its Figure 1 bound as text, the column a sweep table
#: prints beside an ``algorithm`` axis (an unlisted name prints ``-``).
BOUND_TEXT = {
    "blindmatch": "O((1/a) k D^2 log^2 n)",
    "sharedbit": "O(kn)",
    "simsharedbit": "O(kn + (1/a) D^(1/tau) log^6 n)",
    "crowdedbin": "O((k/a) log^6 n)",
    "epsilon": "O(n sqrt(D log D) / ((1-eps) a))",
    "ppush": "O(log^4 N / a)",
}

#: Name -> callable, for table generators.
BOUNDS = {
    "blindmatch": blindmatch_bound,
    "sharedbit": sharedbit_bound,
    "simsharedbit": simsharedbit_bound,
    "crowdedbin": crowdedbin_bound,
    "epsilon_gossip": epsilon_gossip_bound,
    "ppush": ppush_bound,
    "doublestar_lower": doublestar_lower_bound,
}
