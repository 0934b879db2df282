"""Scalar functionals of spectral states: Sobolev/Lebesgue norms, the energy
functionals Psi and Phi, the two-solution functional J, the running budget
E_n, and the truncated distances d_0, d_1 (d_0^xi is the "d0xi" ground cost
of ``stats.cost_matrix``).

Conventions.  H is the complexified L^2(0,1) with the sine basis orthonormal,
so ||u||_H^2 = sum_k |a_k|^2 and ||u||_{H^r}^2 = sum_k alpha_k^r |a_k|^2 with
alpha_k = (k pi)^2.  L^p norms are physical-space quadratures evaluated on a
refined grid; for even integer p the trapezoid sum is exact for band-limited
fields (the integrand is a cosine polynomial of degree <= p*M, resolved once
2(K+1) > p*M).

kappa and kappa2 are fixed inputs ([functionals] kappa, kappa2 of a run
configuration), not quantities to estimate: they are constants of Phi and J
that the proofs fix.  kappa is the Gagliardo-Nirenberg constant in

    ||u||_{L^4}^4 <= 1/4 ||u||_{H^1}^2 + 1/2 kappa ||u||_H^6,

and kappa2 weights Phi in J so that

    1/2 kappa2 (Phi(u1)+Phi(u2)) ||u1-u2||_H^2 >= |Re<u1 u2, (conj(u1-u2))^2>_H|,

which makes J >= ||u1-u2||_{H^1}^2.  The default kappa = kappa2 = 1 is
admissible:

- kappa = 1.  Along a ray c u the inequality binds at one amplitude, where
  it needs kappa >= 2 L^2/(G B) with L = ||u||_{L^4}^4, G = ||u||_{H^1}^2,
  B = ||u||_H^6.  For e_1 that is 4.5/pi^2 ~ 0.46, and no direction tried
  at M = 64 (single modes, two-mode mixtures, random fields) needs more
  than 1.
- kappa2 = 1.  On H^1_0(0,1), ||u||_inf <= 1/2 ||u||_{H^1}, so the cross
  term is at most 1/8 (||u1||_{H^1}^2 + ||u2||_{H^1}^2) ||v||_H^2.  Wherever
  the GN inequality holds, Phi >= 7/8 ||u||_{H^1}^2, so kappa2 >= 2/7
  suffices.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .spectral import PhysicalGrid, eigenvalues, to_physical

EXP_CAP = 700.0  # cap on xi*||u||^2 before exponentiation


class ExponentialOverflowError(OverflowError):
    """xi * ||u||_H^2 exceeded the configured exponent cap."""


@dataclass(frozen=True)
class FunctionalConstants:
    """Fixed constants: kappa (Gagliardo-Nirenberg), kappa2 (in J), xi."""

    kappa: float = 1.0
    kappa2: float = 1.0
    xi: float = 0.05

    def __post_init__(self):
        if self.kappa <= 0 or self.kappa2 <= 0:
            raise ValueError("kappa and kappa2 must be positive")
        if self.xi <= 0:
            raise ValueError("xi must be positive")


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------

def norm_h(a: np.ndarray) -> np.ndarray:
    """||u||_H, batched over leading axes."""
    a = np.asarray(a)
    return np.sqrt(np.sum(np.abs(a) ** 2, axis=-1))


def norm_h_sq(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a)
    return np.sum(np.abs(a) ** 2, axis=-1)


@lru_cache(maxsize=16)
def _hr_weights(M: int, r: float) -> np.ndarray:
    """Read-only alpha_k^r for k = 1..M."""
    w = eigenvalues(M) ** r
    w.flags.writeable = False
    return w


def norm_hr(a: np.ndarray, r: float) -> np.ndarray:
    """||u||_{H^r} = (sum_k alpha_k^r |a_k|^2)^(1/2)."""
    return np.sqrt(norm_hr_sq(a, r))


def norm_hr_sq(a: np.ndarray, r: float) -> np.ndarray:
    a = np.asarray(a)
    return np.sum(_hr_weights(a.shape[-1], r) * np.abs(a) ** 2, axis=-1)


def norms_h_h1_sq(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(||u||_H^2, ||u||_{H^1}^2) from one |a|^2: the bits of norm_h_sq(a)
    and norm_hr_sq(a, 1.0), for callers that need both norms of one state."""
    a = np.asarray(a)
    a2 = np.abs(a) ** 2
    return np.sum(a2, axis=-1), np.sum(_hr_weights(a.shape[-1], 1.0) * a2, axis=-1)


def _quad_mean(values_p: np.ndarray) -> np.ndarray:
    # interior rectangle sum == trapezoid, endpoints are Dirichlet zeros
    K = values_p.shape[-1]
    return np.sum(values_p, axis=-1) / (K + 1)


def l4_norm4(a: np.ndarray) -> np.ndarray:
    """||u||_{L^4}^4, exact for band-limited fields (2x refined quadrature)."""
    a = np.asarray(a, dtype=np.complex128)
    v = to_physical(a, PhysicalGrid(2 * a.shape[-1] + 1))
    return _quad_mean(np.abs(v) ** 4)


def l4_norm4_from_density(dens: np.ndarray) -> np.ndarray:
    """||u||_{L^4}^4 from dens = |u|^2 at the K interior nodes of a grid.

    Exact for an M-mode field once K >= 2M, for the reason given in the
    module docstring; on a coarser grid the quadrature aliases.
    """
    return _quad_mean(dens * dens)


# ---------------------------------------------------------------------------
# Psi and Phi
# ---------------------------------------------------------------------------

def psi_phi(h2, h1sq, l4, consts: FunctionalConstants) -> tuple:
    """(Psi, Phi) from ||u||_H^2, ||u||_{H^1}^2 and ||u||_{L^4}^4.

    For callers that hold the three norms already; psi and phi compute them.
    """
    ps = h1sq - 0.5 * l4 + consts.kappa * h2**3
    return ps, ps + consts.kappa * h2**9


def psi(a: np.ndarray, consts: FunctionalConstants) -> np.ndarray:
    """Psi(u) = ||u||_{H^1}^2 - 1/2 ||u||_{L^4}^4 + kappa ||u||_H^6."""
    return psi_phi(*norms_h_h1_sq(a), l4_norm4(a), consts)[0]


def phi(a: np.ndarray, consts: FunctionalConstants) -> np.ndarray:
    """Phi(u) = Psi(u) + kappa ||u||_H^18."""
    return psi_phi(*norms_h_h1_sq(a), l4_norm4(a), consts)[1]


# ---------------------------------------------------------------------------
# J functional
# ---------------------------------------------------------------------------

def _re_cross_term(u1: np.ndarray, u2: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Re integral of u1*u2*conj(v)^2; bandwidth 4M so a 2x grid is exact.

    The H pairing here is the bilinear one, <f,g>_H = int f g dx.
    """
    M = u1.shape[-1]
    grid = PhysicalGrid(2 * M)
    p1 = to_physical(u1, grid)
    p2 = to_physical(u2, grid)
    pv = to_physical(v, grid)
    return np.real(_quad_mean(p1 * p2 * np.conj(pv) ** 2))


def j_functional(u1: np.ndarray, u2: np.ndarray, consts: FunctionalConstants) -> np.ndarray:
    """J = ||v||_{H^1}^2 - Re<u1 u2, conj(v)^2>_H + kappa2 (Phi(u1)+Phi(u2)) ||v||_H^2."""
    u1 = np.asarray(u1, dtype=np.complex128)
    u2 = np.asarray(u2, dtype=np.complex128)
    v = u1 - u2
    return (
        norm_hr_sq(v, 1.0)
        - _re_cross_term(u1, u2, v)
        + consts.kappa2 * (phi(u1, consts) + phi(u2, consts)) * norm_h_sq(v)
    )


# ---------------------------------------------------------------------------
# running energy budget E_n
# ---------------------------------------------------------------------------

@dataclass
class EnAccumulator:
    """Left-endpoint accumulator for E_n(t) = Phi(u(t))^n + n alpha/2 int Phi^n.

    push() is called once per time step with the current Phi value(s); the
    previous value enters the integral (left endpoint), the new one the
    pointwise term.  Values may be batched.
    """

    n: int
    alpha: float
    integral: np.ndarray | float = 0.0
    _prev_phin: np.ndarray | float | None = None

    def reset(self, phi0: np.ndarray | float) -> None:
        self.integral = np.zeros_like(np.asarray(phi0, dtype=float))
        self._prev_phin = np.asarray(phi0, dtype=float) ** self.n

    def push(self, phi_value: np.ndarray | float, dt: float) -> np.ndarray | float:
        if self._prev_phin is None:
            raise RuntimeError("accumulator not initialized; call reset(phi0)")
        self.integral = self.integral + self._prev_phin * dt
        self._prev_phin = np.asarray(phi_value, dtype=float) ** self.n
        return self.value()

    def value(self) -> np.ndarray | float:
        return self._prev_phin + 0.5 * self.n * self.alpha * self.integral


def accumulate_en(
    phi_values: np.ndarray, steps: np.ndarray | list[int], dt: float, n: int, alpha: float
) -> np.ndarray:
    """E_n along a recorded Phi trajectory (axis 0 = time), vectorized.

    steps are the record steps of step length dt, as ``record_schedule``
    gives them.  The left-endpoint integral weighs each record by its gap
    in strides (the longest gap): 1 on a full gap, a fraction on a short
    last one.  The sum is scaled by the stride's length once, so on an even
    grid no gap carries a rounding of its own.
    """
    phin = np.asarray(phi_values, dtype=float) ** n
    gaps = np.diff(steps)
    stride = gaps.max(initial=1)
    w = (gaps / stride).reshape((-1,) + (1,) * (phin.ndim - 1))
    integral = np.concatenate(
        [np.zeros_like(phin[:1]), np.cumsum(phin[:-1] * w, axis=0) * (dt * stride)], axis=0
    )
    return phin + 0.5 * n * alpha * integral


# ---------------------------------------------------------------------------
# distances
# ---------------------------------------------------------------------------

def dist_dk(u1: np.ndarray, u2: np.ndarray, k: int) -> np.ndarray:
    """d_k(u,v) = min(||u-v||_{H^k}, 1)."""
    v = np.asarray(u1) - np.asarray(u2)
    nrm = norm_h(v) if k == 0 else norm_hr(v, float(k))
    return np.minimum(nrm, 1.0)


def dist_d0(u1: np.ndarray, u2: np.ndarray) -> np.ndarray:
    return dist_dk(u1, u2, 0)


def dist_d1(u1: np.ndarray, u2: np.ndarray) -> np.ndarray:
    return dist_dk(u1, u2, 1)


def exp_xi_weight(a: np.ndarray, xi: float, cap: float = EXP_CAP):
    """(exp(xi ||u||_H^2) with capped exponent, number of capped samples)."""
    expo = xi * norm_h_sq(a)
    flagged = int(np.sum(expo > cap))
    return np.exp(np.minimum(expo, cap)), flagged


# ---------------------------------------------------------------------------
# energy record series
# ---------------------------------------------------------------------------

ENERGY_CSV_HEADER = ("t", "H", "H1", "L4", "psi", "phi", "E1", "E4")


@dataclass
class EnergySeries:
    """Per-record scalar functionals along a trajectory (or batch of them).

    Arrays have shape (n_records,) for a single trajectory or
    (n_records, batch) for an ensemble; H is ||u||_H^2, H1 is ||u||_{H^1}^2,
    L4 is ||u||_{L^4}^4.
    """

    t: np.ndarray
    H: np.ndarray
    H1: np.ndarray
    L4: np.ndarray
    psi: np.ndarray
    phi: np.ndarray
    E1: np.ndarray
    E4: np.ndarray
