"""Diagonal additive noise: the operator Q, cylindrical Wiener increments,
and exact per-mode sampling of the stochastic convolution.

Q acts diagonally on the sine basis, Q e_k = lambda_k e_k for k <= N and
Q e_k = 0 beyond, with all lambda_k > 0.  The driving process is
W(t) = sum_k e_k (B^1_k(t) + i B^2_k(t)) with i.i.d. real Brownian pairs, so
the per-mode complex increment over dt has independent N(0, dt) real and
imaginary parts and E|lambda_k dW_k|^2 = 2 lambda_k^2 dt.

For the linear dynamics da_k = -((gamma+i) alpha_k + alpha) a_k dt
+ lambda_k dW_k the noise contribution over one step is exactly Gaussian:

    xi_k ~ CN with independent components of variance
           lambda_k^2 (1 - e^{-2 c_k dt}) / (2 c_k),   c_k = gamma alpha_k + alpha,

a plain Ito-isometry computation; sampling xi_k directly removes any
stiffness restriction from the linear part.

Randomness is organized as counter-based Philox streams keyed by
(master seed, trajectory id): a trajectory's increments depend only on its
key and the order in which it consumes blocks, never on how an ensemble is
batched or scheduled.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .spectral import eigenvalues


class Traces(NamedTuple):
    tr_qq: float        # Tr(QQ*)        = sum lambda_k^2
    tr_a32qq: float     # Tr(A^{3/2}QQ*) = sum alpha_k^{3/2} lambda_k^2


@dataclass(frozen=True)
class NoiseSpec:
    """Forced-mode amplitudes lambda_1..lambda_N (zero beyond N)."""

    lambdas: np.ndarray

    def __post_init__(self):
        lam = np.atleast_1d(np.asarray(self.lambdas, dtype=float))
        if lam.ndim != 1:
            raise ValueError("lambdas must be one-dimensional")
        if lam.size and np.any(lam <= 0):
            raise ValueError("all forced-mode amplitudes lambda_k must be positive")
        object.__setattr__(self, "lambdas", lam)

    @property
    def N(self) -> int:
        return int(self.lambdas.size)

    @classmethod
    def power_profile(cls, N: int, lambda0: float, s: float) -> "NoiseSpec":
        """lambda_k = lambda0 * k^-s, the default H^3-regular profile."""
        if N == 0:
            return cls(np.zeros(0))
        k = np.arange(1, N + 1, dtype=float)
        return cls(lambda0 * k ** (-s))

    def lambdas_padded(self, M: int) -> np.ndarray:
        out = np.zeros(M)
        n = min(self.N, M)
        out[:n] = self.lambdas[:n]
        return out


def traces(spec: NoiseSpec) -> Traces:
    lam2 = spec.lambdas**2  # empty with no forced mode, so both sums are 0.0
    return Traces(float(np.sum(lam2)), float(np.sum(eigenvalues(spec.N) ** 1.5 * lam2)))


# ---------------------------------------------------------------------------
# reproducible streams
# ---------------------------------------------------------------------------

def trajectory_rng(seed: int, traj_id: int) -> np.random.Generator:
    """Philox stream keyed by (master seed, trajectory id).

    Streams for distinct keys are independent; a stream's output depends
    only on its key and consumption order, so ensembles are reproducible
    under any batching or parallel schedule.
    """
    key = np.array([np.uint64(seed & 0xFFFFFFFFFFFFFFFF),
                    np.uint64(traj_id & 0xFFFFFFFFFFFFFFFF)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def derive_seed(seed: int, tag: str) -> int:
    """Stable sub-seed for a named experiment stage."""
    h = np.uint64(seed & 0xFFFFFFFFFFFFFFFF)
    for ch in tag.encode():
        h = np.uint64((int(h) * 1099511628211 + ch) & 0xFFFFFFFFFFFFFFFF)
    return int(h)


@dataclass
class EnsembleNoise:
    """Sequential per-trajectory Gaussian block source for batched stepping.

    Each trajectory consumes 2N standard normals per step (real and
    imaginary parts of the forced modes).  Blocks are drawn per trajectory
    from its own Philox stream, so the sequence for trajectory i is
    bit-identical no matter how the ensemble is chunked.
    """

    seed: int
    traj_ids: np.ndarray
    n_forced: int
    _rngs: list = field(init=False, repr=False)

    def __post_init__(self):
        self.traj_ids = np.asarray(self.traj_ids, dtype=np.int64)
        self._rngs = [trajectory_rng(self.seed, int(t)) for t in self.traj_ids]

    def next_block(self, n_steps: int) -> np.ndarray:
        """Standard normals of shape (batch, n_steps, 2, N)."""
        out = np.empty((len(self._rngs), n_steps, 2, self.n_forced))
        for i, rng in enumerate(self._rngs):
            out[i] = rng.standard_normal((n_steps, 2, self.n_forced))
        return out


def increments_from_normals(z: np.ndarray, dt: float) -> np.ndarray:
    """Complex Wiener increments dW_k = dB1 + i dB2 from N(0,1) pairs.

    z has shape (..., 2, N); the result (..., N) has independent N(0, dt)
    real and imaginary parts.
    """
    s = np.sqrt(dt)
    return s * z[..., 0, :] + 1j * s * z[..., 1, :]


# ---------------------------------------------------------------------------
# exact stochastic convolution
# ---------------------------------------------------------------------------

def convolution_std(
    spec: NoiseSpec, gamma: float, alpha: float, dt: float, M: int | None = None
) -> np.ndarray:
    """Per-component standard deviation of the one-step stochastic convolution.

    For mode k with c_k = gamma alpha_k + alpha, each of Re xi_k and Im xi_k
    is N(0, lambda_k^2 (1 - e^{-2 c_k dt}) / (2 c_k)); modes beyond N get 0.
    """
    if alpha < 0 or gamma < 0 or dt <= 0:
        raise ValueError("need alpha >= 0, gamma >= 0, dt > 0")
    M = spec.N if M is None else M
    lam = spec.lambdas_padded(M)
    c = gamma * eigenvalues(M) + alpha
    with np.errstate(divide="ignore", invalid="ignore"):
        var = np.where(
            c > 0, lam**2 * (-np.expm1(-2.0 * c * dt)) / (2.0 * np.maximum(c, 1e-300)),
            lam**2 * dt,  # c -> 0 limit of the Ito isometry
        )
    return np.sqrt(var)


def convolution_from_normals(z: np.ndarray, std: np.ndarray) -> np.ndarray:
    """Scale N(0,1) pairs (..., 2, N) into exact convolution samples (..., N)."""
    return std * z[..., 0, :] + 1j * std * z[..., 1, :]


def ou_mode_variance(spec: NoiseSpec, alpha: float, t: float) -> np.ndarray:
    """E|<eta(t), e_k>|^2 = lambda_k^2 (1 - e^{-2 alpha t})/alpha for the linear process."""
    return spec.lambdas**2 * (-np.expm1(-2.0 * alpha * t)) / alpha
