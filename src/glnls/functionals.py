"""Scalar functionals of spectral states: Sobolev/Lebesgue norms, the energy
functionals Psi and Phi, the two-solution functional J, the running budget
E_n, and the truncated distances d_0, d_1, d_0^xi.

Conventions.  H is the complexified L^2(0,1) with the sine basis orthonormal,
so ||u||_H^2 = sum_k |a_k|^2 and ||u||_{H^r}^2 = sum_k alpha_k^r |a_k|^2 with
alpha_k = (k pi)^2.  L^p norms are physical-space quadratures evaluated on a
refined grid; for even integer p the trapezoid sum is exact for band-limited
fields (the integrand is a cosine polynomial of degree <= p*M, resolved once
2(K+1) > p*M).

The Gagliardo-Nirenberg constant kappa in

    ||u||_{L^4}^4 <= 1/4 ||u||_{H^1}^2 + 1/2 kappa ||u||_H^6

is calibrated empirically: per direction u the binding amplitude has a closed
form, so the smallest admissible kappa over a direction set is computed
directly and then validated by bisection.  kappa2 is calibrated on an
operating ball so that

    1/2 kappa2 (Phi(u1)+Phi(u2)) ||u1-u2||_H^2 >= |Re<u1 u2, (conj(u1-u2))^2>_H|

holds there, which makes J >= ||u1-u2||_{H^1}^2.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from .spectral import (
    PhysicalGrid,
    basis_mode,
    eigenvalues,
    to_physical,
)

logger = logging.getLogger(__name__)

EXP_CAP = 700.0  # cap on xi*||u||^2 before exponentiation


class ExponentialOverflowError(OverflowError):
    """xi * ||u||_H^2 exceeded the configured exponent cap."""


@dataclass(frozen=True)
class FunctionalConstants:
    """Calibrated constants: kappa (Gagliardo-Nirenberg), kappa2 (in J), xi."""

    kappa: float = 1.0
    kappa2: float = 1.0
    xi: float = 0.05

    def __post_init__(self):
        if self.kappa <= 0 or self.kappa2 <= 0:
            raise ValueError("kappa and kappa2 must be positive")
        if self.xi <= 0:
            raise ValueError("xi must be positive")

    def check_xi(self, alpha: float, tr_qq: float) -> None:
        """Sufficient smallness of xi for the exponential moment bound."""
        if tr_qq > 0 and not self.xi < alpha / (2.0 * tr_qq):
            raise ValueError(
                f"xi={self.xi} violates xi < alpha/(2 Tr(QQ*)) = "
                f"{alpha / (2.0 * tr_qq)}"
            )

    def with_xi(self, xi: float) -> "FunctionalConstants":
        return replace(self, xi=xi)


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


def _quad_mean(values_p: np.ndarray) -> np.ndarray:
    # interior rectangle sum == trapezoid, endpoints are Dirichlet zeros
    K = values_p.shape[-1]
    return np.sum(values_p, axis=-1) / (K + 1)


def quad_points_for(p: float, M: int) -> int:
    """Grid size making the L^p trapezoid exact for even integer p."""
    return max(M, int(np.ceil(p * M / 2.0)) + 1)


def norm_lp(a: np.ndarray, p: float, grid: PhysicalGrid | None = None) -> np.ndarray:
    """||u||_{L^p} by quadrature on a refined physical grid.

    Exact for band-limited u when p is an even integer and the grid is at
    least quad_points_for(p, M); non-even p is approximate at the same grid.
    """
    if p < 1:
        raise ValueError("need p >= 1")
    a = np.asarray(a, dtype=np.complex128)
    M = a.shape[-1]
    K = grid.M if grid is not None else quad_points_for(p, M)
    v = to_physical(a, PhysicalGrid(max(K, M)))
    return _quad_mean(np.abs(v) ** p) ** (1.0 / p)


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
# Psi, Phi and their inequality structure
# ---------------------------------------------------------------------------

def psi_phi(h2, h1sq, l4, consts: FunctionalConstants) -> tuple:
    """(Psi, Phi) from ||u||_H^2, ||u||_{H^1}^2 and ||u||_{L^4}^4.

    For callers that hold the three norms already; psi and phi compute them.
    """
    ps = h1sq - 0.5 * l4 + consts.kappa * h2**3
    return ps, ps + consts.kappa * h2**9


def psi(a: np.ndarray, consts: FunctionalConstants) -> np.ndarray:
    """Psi(u) = ||u||_{H^1}^2 - 1/2 ||u||_{L^4}^4 + kappa ||u||_H^6."""
    return psi_phi(norm_h_sq(a), norm_hr_sq(a, 1.0), l4_norm4(a), consts)[0]


def phi(a: np.ndarray, consts: FunctionalConstants) -> np.ndarray:
    """Phi(u) = Psi(u) + kappa ||u||_H^18."""
    return psi_phi(norm_h_sq(a), norm_hr_sq(a, 1.0), l4_norm4(a), consts)[1]


def phi_lower_bound(a: np.ndarray, consts: FunctionalConstants) -> np.ndarray:
    """3/4 ||u||_{H^1}^2 + 1/2 ||u||_{L^4}^4 + kappa/2 ||u||_H^6 + kappa ||u||_H^18.

    Phi dominates this whenever the calibrated kappa satisfies the
    Gagliardo-Nirenberg inequality on the field.
    """
    h2 = norm_h_sq(a)
    return (
        0.75 * norm_hr_sq(a, 1.0)
        + 0.5 * l4_norm4(a)
        + 0.5 * consts.kappa * h2**3
        + consts.kappa * h2**9
    )


def psi_cube_threshold(kappa: float) -> float:
    """Smallest Psi level at which Psi^3 >= Phi is provable for this kappa.

    Since Psi >= (kappa/2)||u||_H^6, one has kappa ||u||^18 <= 8 Psi^3 /
    kappa^2, so Psi^3 >= Phi = Psi + kappa||u||^18 follows once
    Psi^2 (1 - 8/kappa^2) >= 1.  That needs kappa > 2 sqrt(2); below it the
    cube bound has no valid regime (u = c e_1 with c large violates it at
    arbitrarily large Psi).
    """
    if kappa <= 2.0 * np.sqrt(2.0):
        return np.inf
    return float(1.0 / np.sqrt(1.0 - 8.0 / kappa**2))


def check_phi_chain(a: np.ndarray, consts: FunctionalConstants) -> bool:
    """Assert Phi >= Psi everywhere; check Psi^3 >= Phi on its provable range.

    Below psi_cube_threshold(kappa) the cube bound can fail (it does fail
    for any kappa <= 2 sqrt(2)); such fields are logged as counterexamples
    rather than treated as violations.
    """
    ps = np.atleast_1d(psi(a, consts))
    ph = np.atleast_1d(phi(a, consts))
    ok = np.all(ph >= ps - 1e-12)
    cut = psi_cube_threshold(consts.kappa)
    big = ps >= cut
    if np.any(big):
        bad = ps[big] ** 3 < ph[big] * (1 - 1e-12)
        if np.any(bad):
            logger.warning(
                "Psi^3 >= Phi failed on %d fields above the provable "
                "threshold %.3g", int(bad.sum()), cut,
            )
            ok = False
    outside = (~big) & (ps >= 1.0) & (ps**3 < ph * (1 - 1e-12))
    if np.any(outside):
        logger.info(
            "Psi^3 >= Phi counterexamples on %d fields with Psi >= 1 below "
            "the kappa threshold (kappa=%.3g needs kappa > 2 sqrt(2))",
            int(outside.sum()), consts.kappa,
        )
    return bool(ok)


# ---------------------------------------------------------------------------
# kappa calibration
# ---------------------------------------------------------------------------

def kappa_required(a: np.ndarray) -> np.ndarray:
    """Smallest kappa making the GN inequality hold along the ray c*u, c > 0.

    For a direction with L = ||u||_{L^4}^4, G = ||u||_{H^1}^2, B = ||u||_H^6
    the binding amplitude satisfies 1/c^2 = 2L/G, giving kappa = 2 L^2/(G B).
    """
    L = l4_norm4(a)
    G = norm_hr_sq(a, 1.0)
    B = norm_h_sq(a) ** 3
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(B > 0, 2.0 * L**2 / (G * B), 0.0)
    return out


def gn_violations(a: np.ndarray, kappa: float) -> int:
    """Count fields violating ||u||_{L^4}^4 <= 1/4||u||_{H^1}^2 + kappa/2 ||u||_H^6."""
    lhs = l4_norm4(a)
    rhs = 0.25 * norm_hr_sq(a, 1.0) + 0.5 * kappa * norm_h_sq(a) ** 3
    return int(np.sum(lhs > rhs * (1 + 1e-12) + 1e-15))


def _direction_set(sample_count: int, M: int, rng: np.random.Generator) -> np.ndarray:
    dirs = [basis_mode(M, k) for k in range(1, M + 1)]
    # two-mode sweeps, including relative phases
    ks = sorted(set([1, 2, 3, min(4, M), min(8, M), M]))
    mix = np.linspace(0.1, 0.9, 5)
    phases = [0.0, np.pi / 4, np.pi / 2, np.pi]
    for j in ks:
        for k in ks:
            if k <= j:
                continue
            for m in mix:
                for ph in phases:
                    dirs.append(
                        np.cos(m * np.pi / 2) * basis_mode(M, j)
                        + np.sin(m * np.pi / 2) * np.exp(1j * ph) * basis_mode(M, k)
                    )
    dirs = np.stack(dirs)
    if sample_count > 0:
        decay = np.arange(1, M + 1)[None, :].astype(float)
        z = rng.standard_normal((sample_count, M)) + 1j * rng.standard_normal(
            (sample_count, M)
        )
        rough = z / decay
        smooth = z / decay**2
        flat = z.copy()
        dirs = np.concatenate([dirs, rough, smooth, flat])
    return dirs


def calibrate_kappa(
    sample_count: int, M: int, rng: np.random.Generator, bisect_steps: int = 30
) -> float:
    """Smallest admissible Gagliardo-Nirenberg kappa over an adversarial set.

    The direction-wise closed form gives the candidate directly; a factor-2
    bisection pass then confirms the candidate passes and half of it fails,
    guarding the closed form against quadrature slips.
    """
    if sample_count < 1:
        raise ValueError("need sample_count >= 1")
    dirs = _direction_set(sample_count, M, rng)
    kap = float(np.max(kappa_required(dirs)))
    if kap <= 0:
        return 1e-12
    # validation bisection between kap/2 (should fail) and kap (should hold)
    binding = dirs[int(np.argmax(kappa_required(dirs)))]
    c = 1.0 / np.sqrt(2.0 * l4_norm4(binding) / norm_hr_sq(binding, 1.0))
    worst = np.stack([dirs[int(np.argmax(kappa_required(dirs)))] * c, binding])
    lo, hi = 0.5 * kap, kap * (1 + 1e-9)
    if gn_violations(worst, lo) == 0:
        logger.warning("factor-2 bisection floor already admissible; kappa slack")
    for _ in range(bisect_steps):
        mid = 0.5 * (lo + hi)
        if gn_violations(worst, mid) == 0 and gn_violations(dirs, mid) == 0:
            hi = mid
        else:
            lo = mid
    return float(hi)


def measure_embedding_constant(M: int, rng: np.random.Generator, samples: int = 512) -> float:
    """Discrete H^1 -> L^inf embedding constant max ||u||_inf / ||u||_{H^1}."""
    z = rng.standard_normal((samples, M)) + 1j * rng.standard_normal((samples, M))
    fields = np.concatenate(
        [z / np.arange(1, M + 1) ** 1.0, np.eye(M, dtype=complex)]
    )
    vals = to_physical(fields, PhysicalGrid(4 * M))
    sup = np.max(np.abs(vals), axis=-1)
    h1 = norm_hr(fields, 1.0)
    return float(np.max(sup / h1))


def calibrate_kappa2(
    consts: FunctionalConstants,
    rho_max: float,
    sample_count: int,
    M: int,
    rng: np.random.Generator,
    safety: float = 2.0,
) -> float:
    """kappa2 making cond:J hold on the ball ||u||_{H^1} <= rho_max.

    Combines the measured embedding route (4/3 C_emb^2, which is
    ball-independent) with the empirical worst ratio over sampled pairs.
    """
    c_emb = measure_embedding_constant(M, rng)
    analytic = (4.0 / 3.0) * c_emb**2
    z = rng.standard_normal((sample_count, 2, M)) + 1j * rng.standard_normal(
        (sample_count, 2, M)
    )
    z = z / np.arange(1, M + 1) ** 1.0
    scale = rho_max * rng.uniform(0.05, 1.0, size=(sample_count, 2, 1))
    pairs = z * scale / norm_hr(z, 1.0)[..., None]
    u1, u2 = pairs[:, 0], pairs[:, 1]
    v = u1 - u2
    cross = np.abs(_re_cross_term(u1, u2, v))
    denom = (phi(u1, consts) + phi(u2, consts)) * norm_h_sq(v)
    ratio = np.where(denom > 0, cross / np.maximum(denom, 1e-300), 0.0)
    return float(max(analytic, 2.0 * np.max(ratio)) * safety)


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
    return np.real(_quad_mean_complex(p1 * p2 * np.conj(pv) ** 2))


def _quad_mean_complex(values: np.ndarray) -> np.ndarray:
    K = values.shape[-1]
    return np.sum(values, axis=-1) / (K + 1)


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


def cond_j_holds(u1: np.ndarray, u2: np.ndarray, consts: FunctionalConstants) -> np.ndarray:
    """Whether 1/2 kappa2 (Phi1+Phi2)||v||_H^2 dominates the cross term."""
    v = np.asarray(u1) - np.asarray(u2)
    lhs = 0.5 * consts.kappa2 * (phi(u1, consts) + phi(u2, consts)) * norm_h_sq(v)
    return lhs >= np.abs(_re_cross_term(u1, u2, v)) - 1e-12


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
    phi_values: np.ndarray, dt: float, n: int, alpha: float
) -> np.ndarray:
    """E_n along a recorded Phi trajectory (axis 0 = time), vectorized."""
    phin = np.asarray(phi_values, dtype=float) ** n
    integral = np.concatenate(
        [np.zeros_like(phin[:1]), np.cumsum(phin[:-1], axis=0) * dt], axis=0
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


def dist_d0xi(
    u1: np.ndarray, u2: np.ndarray, xi: float, cap: float = EXP_CAP
) -> np.ndarray:
    """d_0^xi = sqrt(d_0 (1 + e^{xi||u1||^2} + e^{xi||u2||^2})).

    Raises ExponentialOverflowError when either exponent exceeds the cap.
    """
    e1 = xi * norm_h_sq(u1)
    e2 = xi * norm_h_sq(u2)
    if np.any(e1 > cap) or np.any(e2 > cap):
        raise ExponentialOverflowError(
            f"xi*||u||^2 exceeds cap {cap}; largest "
            f"{float(np.max(np.maximum(e1, e2)))}"
        )
    return np.sqrt(dist_d0(u1, u2) * (1.0 + np.exp(e1) + np.exp(e2)))


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

    def rows(self):
        if self.H.ndim != 1:
            raise ValueError("CSV rows are only defined for single trajectories")
        for i in range(len(self.t)):
            yield (
                self.t[i], self.H[i], self.H1[i], self.L4[i],
                self.psi[i], self.phi[i], self.E1[i], self.E4[i],
            )
