"""Scalar functionals of spectral states, one function per quantity: the
norms ||u||_{H^r} (r = 0 is H), ||u||_{L^4}^4, Psi and Phi of a synthesised
field, the two-solution functional J, the running budget E_n and the weight
of the d_0^xi cost.  The distances d_k are ``stats.cost_matrix``'s costs.

Conventions.  H is the complexified L^2(0,1) with the sine basis orthonormal,
so ||u||_H^2 = sum_k |a_k|^2 and ||u||_{H^r}^2 = sum_k alpha_k^r |a_k|^2 with
alpha_k = (k pi)^2.  ||u||_{L^4}^4 and J's cross term are physical-space
quadratures on the K = 2M interior points of ``physical_field``, the one grid
the package samples fields on.  The trapezoid sum there is exact for M-mode
fields: the integrand is a cosine polynomial of degree <= 4M, resolved since
2(K+1) = 4M + 2 > 4M.  So ``field_energy`` and ``phi`` give the values the
steppers take from the fields they synthesise, bit for bit.

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

@lru_cache(maxsize=16)
def _hr_weights(M: int, r: float) -> np.ndarray:
    """Read-only alpha_k^r for k = 1..M."""
    w = eigenvalues(M) ** r
    w.flags.writeable = False
    return w


def norm_hr_sq(a: np.ndarray, r: float) -> np.ndarray:
    """||u||_{H^r}^2 = sum_k alpha_k^r |a_k|^2, batched; r = 0 gives ||u||_H^2."""
    a = np.asarray(a)
    return np.sum(_hr_weights(a.shape[-1], r) * np.abs(a) ** 2, axis=-1)


def norms_h_h1_sq(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(||u||_H^2, ||u||_{H^1}^2) from one |a|^2: the bits of norm_hr_sq(a, 0.0)
    and norm_hr_sq(a, 1.0), for callers that need both norms of one state."""
    a = np.asarray(a)
    a2 = np.abs(a) ** 2
    return np.sum(a2, axis=-1), np.sum(_hr_weights(a.shape[-1], 1.0) * a2, axis=-1)


def _quad_mean(values_p: np.ndarray) -> np.ndarray:
    # interior rectangle sum == trapezoid, endpoints are Dirichlet zeros
    K = values_p.shape[-1]
    return np.sum(values_p, axis=-1) / (K + 1)


# ---------------------------------------------------------------------------
# the physical field, L^4, Psi and Phi
# ---------------------------------------------------------------------------

def physical_field(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(v, |v|^2): the M-mode states a synthesised on 2M interior points, and
    their density; the one grid the package samples fields on, for the cubic
    term, the Strang kick, Phi and J."""
    a = np.asarray(a, dtype=np.complex128)
    v = to_physical(a, PhysicalGrid(2 * a.shape[-1]))
    return v, np.abs(v) ** 2


def field_energy(field: tuple, h2, h1sq, consts: FunctionalConstants) -> tuple:
    """(||u||_{L^4}^4, Psi, Phi) of the states with field = physical_field(a)
    and (h2, h1sq) = norms_h_h1_sq(a), for callers that hold both already."""
    dens = field[1]
    l4 = _quad_mean(dens * dens)
    ps = h1sq - 0.5 * l4 + consts.kappa * h2**3
    return l4, ps, ps + consts.kappa * h2**9


def phi(a: np.ndarray, consts: FunctionalConstants) -> np.ndarray:
    """Phi(u) = Psi(u) + kappa ||u||_H^18, with
    Psi(u) = ||u||_{H^1}^2 - 1/2 ||u||_{L^4}^4 + kappa ||u||_H^6."""
    return field_energy(physical_field(a), *norms_h_h1_sq(a), consts)[2]


# ---------------------------------------------------------------------------
# J functional
# ---------------------------------------------------------------------------

def _re_cross_term(v1: np.ndarray, v2: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Re integral of u1*u2*conj(v)^2 from the fields v1, v2 of u1, u2 and the
    coefficients v; bandwidth 4M, so the 2M-point grid is exact.

    The H pairing here is the bilinear one, <f,g>_H = int f g dx.
    """
    pv = physical_field(v)[0]
    return np.real(_quad_mean(v1 * v2 * np.conj(pv) ** 2))


def j_functional(u1: np.ndarray, u2: np.ndarray, consts: FunctionalConstants) -> np.ndarray:
    """J = ||v||_{H^1}^2 - Re<u1 u2, conj(v)^2>_H + kappa2 (Phi(u1)+Phi(u2)) ||v||_H^2.

    One synthesis of u1 and one of u2 serve both their Phi and the cross term.
    """
    u1 = np.asarray(u1, dtype=np.complex128)
    u2 = np.asarray(u2, dtype=np.complex128)
    v = u1 - u2
    f1, f2 = physical_field(u1), physical_field(u2)
    phi1 = field_energy(f1, *norms_h_h1_sq(u1), consts)[2]
    phi2 = field_energy(f2, *norms_h_h1_sq(u2), consts)[2]
    h2v, h1v = norms_h_h1_sq(v)
    return h1v - _re_cross_term(f1[0], f2[0], v) + consts.kappa2 * (phi1 + phi2) * h2v


# ---------------------------------------------------------------------------
# running energy budget E_n
# ---------------------------------------------------------------------------

@dataclass
class EnAccumulator:
    """Left-endpoint accumulator for E_n(t) = Phi(u(t))^n + n alpha/2 int Phi^n.

    push(phi, dt) is called once per time step, or once per record with the
    record's gap as dt, with the current Phi value(s); the previous value
    enters the integral (left endpoint), the new one the pointwise term.
    Values may be batched.
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


# ---------------------------------------------------------------------------
# the d_0^xi weight
# ---------------------------------------------------------------------------

def exp_xi_weight(a: np.ndarray, xi: float):
    """(exp(xi ||u||_H^2) with its exponent capped at EXP_CAP, number of capped samples)."""
    expo = xi * norm_hr_sq(a, 0.0)
    flagged = int(np.sum(expo > EXP_CAP))
    return np.exp(np.minimum(expo, EXP_CAP)), flagged


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
