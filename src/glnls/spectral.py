"""Sine eigenbasis of the Dirichlet Laplacian on [0,1] and the transforms built on it.

The basis is e_k(x) = sqrt(2) sin(k pi x) with eigenvalues alpha_k = (k pi)^2,
k = 1..M.  A state is a complex coefficient vector a_k against this basis,
stored as a numpy complex128 array of shape (..., M); every routine here
broadcasts over leading axes so single fields and whole ensembles share one
code path.

to_physical (synthesis onto a grid of K >= M points) and to_spectral
(analysis of K samples, optionally truncated to the first M modes) are the
transform entry points.  Each picks its route from the grid size:

* K <= DENSE_MAX_POINTS: a real matrix product per field with cached,
  read-only sine matrices, (K, M) for synthesis and (M, K) scaled by
  1/(K+1) for analysis, applied to the interleaved real and imaginary
  parts.  Only the M modes actually present take part, so the padding
  costs nothing.
* K > DENSE_MAX_POINTS: scipy's DST-I (one worker) on the zero-padded
  coefficients, O(K log K) per field.  A complex batch is one pocketfft
  call: its interleaved float view (..., K, 2) is transformed along axis
  -2, real and imaginary parts side by side, and normalised in place.
  Handed the complex array, scipy.fft.dst makes two strided real
  transforms and adds them into a third array; the one call gives the same
  bits, since each part meets the same real transform, in less time
  (benchmarks/transform_bench.py times both).  scipy.fft is imported by
  the first call of this route and kept: a process whose grids all stay at
  or below DENSE_MAX_POINTS never loads it (the import takes about half a
  CPU-second and 25 MB on a 2-vCPU Xeon).

The crossover constant is measured with benchmarks/transform_bench.py.  On
a 2-vCPU Xeon (2.1 GHz) the dense route is 3-10x faster than the DST up to
K = 256 and about even with it at K = 512 (where K+1 = 513 suits the FFT;
for K+1 with a large prime factor the dense route is far ahead); from
K = 1024 it is 6x or more slower, for one field as for 64.  Both routes
give every field bit-identical results whatever batch it arrives in, which
the ensemble reproducibility guarantee relies on.  to_physical_direct and
to_spectral_direct are O(MK) complex summations, independent of both routes
except for the integer-reduced sine table, kept as the tests' correctness
oracles.

The physical grid is uniform with K interior nodes x_j = j/(K+1); the
Dirichlet endpoints carry implied zeros, which is what makes DST-I the
natural transform.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np


class DimensionMismatchError(ValueError):
    """Field length does not match the grid / configured mode count."""


@dataclass(frozen=True)
class PhysicalGrid:
    """Uniform collocation grid of M interior points of (0,1)."""

    M: int

    def __post_init__(self):
        if self.M < 1:
            raise ValueError(f"grid needs M >= 1, got {self.M}")

    # built on first use: the hot paths build a grid per transform call and need only M
    @cached_property
    def nodes(self) -> np.ndarray:
        return np.arange(1, self.M + 1) / (self.M + 1)


def eigenvalues(M: int) -> np.ndarray:
    """alpha_k = (k pi)^2 for k = 1..M."""
    k = np.arange(1, M + 1, dtype=float)
    return (k * np.pi) ** 2


def validate_field(a: np.ndarray, M: int | None = None) -> np.ndarray:
    """Check the SpectralField invariants: right length, all entries finite."""
    a = np.asarray(a)
    if a.ndim < 1 or a.shape[-1] < 1:
        raise DimensionMismatchError("field must have at least one mode")
    if M is not None and a.shape[-1] != M:
        raise DimensionMismatchError(
            f"field has {a.shape[-1]} modes, expected {M}"
        )
    if not np.all(np.isfinite(a.view(float) if np.iscomplexobj(a) else a)):
        raise ValueError("field contains non-finite entries")
    return a


def basis_mode(M: int, k: int, amplitude: complex = 1.0) -> np.ndarray:
    """Coefficient vector of amplitude * e_k in an M-mode truncation."""
    if not 1 <= k <= M:
        raise DimensionMismatchError(f"mode {k} outside 1..{M}")
    a = np.zeros(M, dtype=np.complex128)
    a[k - 1] = amplitude
    return a


# ---------------------------------------------------------------------------
# transforms
# ---------------------------------------------------------------------------

# Grids of at most this many points use the dense sine matrices, larger ones
# the DST (see the module docstring for the measurement behind it).
DENSE_MAX_POINTS = 512


def _sin_pi_ratio(j: np.ndarray, k: np.ndarray, K: int) -> np.ndarray:
    """sin(pi j k / (K+1)) with j*k reduced modulo the period 2(K+1) in integers.

    Rounding pi j k / (K+1) unreduced errs in proportion to the angle, up to
    pi M: at M = 1024, K = 2048 that put 2.3e-11 into the direct oracles.
    """
    return np.sin(np.pi * (np.outer(j, k) % (2 * (K + 1))) / (K + 1))


@lru_cache(maxsize=16)
def _sine_matrices(M: int, K: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only synthesis (K, M) and analysis (M, K) matrices of the sine basis.

    synthesis[j, k] = sqrt(2) sin(k pi x_j) with x_j = j/(K+1), and
    analysis = synthesis.T / (K+1), for k = 1..M and j = 1..K.
    """
    synthesis = np.sqrt(2.0) * _sin_pi_ratio(np.arange(1, K + 1), np.arange(1, M + 1), K)
    analysis = np.ascontiguousarray(synthesis.T) / (K + 1)
    synthesis.flags.writeable = False
    analysis.flags.writeable = False
    return synthesis, analysis


def _real_matmul(S: np.ndarray, x: np.ndarray) -> np.ndarray:
    """S @ x along the last axis: real S of shape (m, n), complex x of shape (..., n).

    Every field is its own (m, n) @ (n, 2) BLAS product on its interleaved
    real and imaginary parts, so each field meets the same GEMM call
    whatever batch it arrives in.  One product over all rows of a batch is
    not bit-identical across batch sizes (BLAS picks kernels and threads by
    the row count), and a one-row product goes through GEMV.
    """
    x = np.ascontiguousarray(x)
    m, n = S.shape
    lead = x.shape[:-1]
    out = np.empty(lead + (m,), dtype=np.complex128)
    np.matmul(S, x.view(np.float64).reshape(lead + (n, 2)),
              out=out.view(np.float64).reshape(lead + (m, 2)))
    return out


def _synthesis_dense(a: np.ndarray, K: int) -> np.ndarray:
    return _real_matmul(_sine_matrices(a.shape[-1], K)[0], a)


_dst = None  # scipy.fft.dst, imported by the first DST-route call


def _dst_complex(x: np.ndarray) -> np.ndarray:
    """DST-I of complex x along its last axis, as the float array (..., K, 2)
    of the real and imaginary parts: one real transform of the interleaved view.

    The callers normalise by multiplying with a reciprocal, which is what
    numpy's complex division by a real scalar does, so the result has the
    bits of scipy's complex route divided by the same scalar.
    """
    global _dst
    if _dst is None:
        from scipy.fft import dst as _dst
    x = np.ascontiguousarray(x)
    return _dst(x.view(np.float64).reshape(x.shape + (2,)), type=1, axis=-2)


def _synthesis_dst(a: np.ndarray, K: int) -> np.ndarray:
    # DST-I is an involution up to 2(K+1), which fixes the normalization
    y = _dst_complex(pad_modes(a, K))
    y *= 1.0 / np.sqrt(2.0)
    return y.view(np.complex128)[..., 0]


def _analysis_dense(values: np.ndarray, M: int) -> np.ndarray:
    return _real_matmul(_sine_matrices(M, values.shape[-1])[1], values)


def _analysis_dst(values: np.ndarray, M: int) -> np.ndarray:
    K = values.shape[-1]
    y = np.multiply(_dst_complex(values)[..., :M, :], 1.0 / (np.sqrt(2.0) * (K + 1)))
    return y.view(np.complex128)[..., 0]


def to_physical(a: np.ndarray, grid: PhysicalGrid | None = None) -> np.ndarray:
    """Evaluate u(x_j) = sum_k a_k sqrt(2) sin(k pi x_j) on the interior grid.

    With K grid points and M coefficients, K >= M is allowed (the modes
    above M are zero); K < M raises.
    """
    a = np.asarray(a, dtype=np.complex128)
    M = a.shape[-1]
    K = M if grid is None else grid.M
    if K < M:
        raise DimensionMismatchError(f"grid with {K} nodes cannot hold {M} modes")
    if K <= DENSE_MAX_POINTS:
        return _synthesis_dense(a, K)
    return _synthesis_dst(a, K)


def to_spectral(values: np.ndarray, M: int | None = None) -> np.ndarray:
    """Sine analysis of interior samples; exact inverse of to_physical.

    a_k = (2/(K+1)) sum_j u(x_j) sin(k pi x_j) / sqrt(2).  Returns all K
    coefficients unless M is given, in which case only the first M modes
    are computed.
    """
    values = np.asarray(values, dtype=np.complex128)
    K = values.shape[-1]
    if M is None:
        M = K
    elif M > K:
        raise DimensionMismatchError(f"{K} samples cannot resolve {M} modes")
    if K <= DENSE_MAX_POINTS:
        return _analysis_dense(values, M)
    return _analysis_dst(values, M)


def to_physical_direct(a: np.ndarray, grid: PhysicalGrid | None = None) -> np.ndarray:
    """O(M^2) summation oracle for to_physical."""
    a = np.asarray(a, dtype=np.complex128)
    M = a.shape[-1]
    K = M if grid is None else grid.M
    if K < M:
        raise DimensionMismatchError(f"grid with {K} nodes cannot hold {M} modes")
    S = np.sqrt(2.0) * _sin_pi_ratio(np.arange(1, K + 1), np.arange(1, M + 1), K)
    return a @ S.T


def to_spectral_direct(values: np.ndarray, M: int | None = None) -> np.ndarray:
    """O(M^2) summation oracle for to_spectral."""
    values = np.asarray(values, dtype=np.complex128)
    K = values.shape[-1]
    M = K if M is None else M
    S = np.sqrt(2.0) * _sin_pi_ratio(np.arange(1, M + 1), np.arange(1, K + 1), K)
    return (values @ S.T) / (K + 1)


# ---------------------------------------------------------------------------
# projections and padding
# ---------------------------------------------------------------------------

def _check_cutoff(M: int, N: int):
    if not 1 <= N <= M:
        raise DimensionMismatchError(f"projection cutoff N={N} outside 1..{M}")


def project_low(a: np.ndarray, N: int) -> np.ndarray:
    """P_N: keep modes k <= N, zero the rest."""
    a = np.asarray(a)
    _check_cutoff(a.shape[-1], N)
    out = a.copy()
    out[..., N:] = 0.0
    return out


def project_high(a: np.ndarray, N: int) -> np.ndarray:
    """Q_N = I - P_N: keep modes k > N."""
    a = np.asarray(a)
    _check_cutoff(a.shape[-1], N)
    out = a.copy()
    out[..., :N] = 0.0
    return out


def pad_modes(a: np.ndarray, K: int) -> np.ndarray:
    """Extend the coefficient vector with zeros up to K modes."""
    a = np.asarray(a)
    M = a.shape[-1]
    if K < M:
        raise DimensionMismatchError(f"cannot pad {M} modes down to {K}")
    if K == M:
        return a
    out = np.zeros(a.shape[:-1] + (K,), dtype=a.dtype)
    out[..., :M] = a
    return out
