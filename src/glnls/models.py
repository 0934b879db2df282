"""Time integrators for the stochastic Ginzburg-Landau / Schrodinger family.

The dynamics in coefficient form, for modes k = 1..M,

    da_k = -((gamma + i) alpha_k + alpha) a_k dt + NL_k(u) dt + lambda_k dW_k,

where NL is the spectral truncation of i|u|^2 u (optionally damped by the
cut-off phi_R(|u|^2)).  gamma = 0 selects the Schrodinger path exactly; the
linear-plus-noise part is always integrated exactly in law, so there is no
stability limit from (gamma + i) alpha_k.

Two one-step schemes are provided:

``strang``
    Exponential Strang splitting.  The nonlinear substep du/dt = i|u|^2 u
    (or its truncated version) preserves |u| pointwise and is solved exactly
    as a phase rotation on the padded physical grid; the linear substep uses
    the exact per-mode decay and the exact stochastic convolution.  Second
    order in dt deterministically, and mass-exact up to spectral truncation,
    which is what the conservation-law checks below rely on.

``expeuler``
    Exponential Euler-Maruyama, a_k <- e^{-((gamma+i)alpha_k+alpha) dt}
    (a_k + dt NL_k(u)) + xi_k.  First order; exact for linear dynamics.
    Used by the coupling machinery, whose drift-shift bookkeeping wants the
    noise to enter linearly.

The cubic term is evaluated pseudo-spectrally on a refined grid.  In the
sine basis a cubic of an M-mode field has modes up to 3M, and a padded grid
of 2M interior points already reflects every alias above mode M, so the 2x
pad is alias-free for the retained modes; a 3x pad is available for oracle
runs.

The Strang kick is the exception to "any grid of at least 2M points will
do": exp(i tau |u|^2) u is not band-limited, so its projection onto the M
modes depends on the grid it was sampled on.  The kick therefore always
uses exactly ``pad_points`` nodes.  At M = 64, for order-one fields
(a_k ~ 1/k) and tau = 2.5e-3, a kick on 134 nodes (the next FFT-friendly
size) differs from one on 128 nodes by 3.0e-9 relative, far above the 1e-10
agreement with the direct-sum one-step oracle that the benchmark checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import functionals as fn
from .functionals import EnergySeries, FunctionalConstants
from .noise import (
    EnsembleNoise,
    NoiseSpec,
    convolution_from_normals,
    convolution_std,
    increments_from_normals,
)
from .spectral import PhysicalGrid, eigenvalues, to_physical, to_spectral, validate_field

SCHEMES = ("strang", "expeuler")
NOISE_MODES = ("exact", "em")


class BlowUpError(RuntimeError):
    """Trajectory exceeded the H^1 guard and was rejected."""


@dataclass(frozen=True)
class ModelParams:
    """Equation selector: viscosity, damping, Galerkin dimension, truncation."""

    gamma: float
    alpha: float
    M: int
    truncation: float | None = None  # cut-off radius R; None = full dynamics
    dealias: bool = True
    pad_factor: int = 2              # 3 enables the oracle padding
    nonlinear: bool = True           # False = linear test dynamics

    def __post_init__(self):
        # alpha = 0 is admitted here for the deterministic conservation
        # checks; configuration loading enforces the positive damping the
        # stochastic theory needs.
        if self.alpha < 0:
            raise ValueError("damping alpha must be nonnegative")
        if not 0.0 <= self.gamma < 1.0:
            raise ValueError("viscosity gamma must lie in [0, 1)")
        if self.M < 1:
            raise ValueError("need at least one Galerkin mode")
        if self.truncation is not None and self.truncation <= 0:
            raise ValueError("truncation radius R must be positive")
        if self.pad_factor < 2:
            raise ValueError("pad_factor >= 2 required for alias-free cubics")

    @property
    def pad_points(self) -> int:
        return self.pad_factor * self.M if self.dealias else self.M


@dataclass(frozen=True)
class IntegratorConfig:
    dt: float
    scheme: str = "strang"
    record_every: int = 1
    noise_mode: str = "exact"
    blowup_guard: float = 1e6  # on ||u||_{H^1}

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}; options {SCHEMES}")
        if self.noise_mode not in NOISE_MODES:
            raise ValueError(f"unknown noise mode {self.noise_mode!r}")
        if self.record_every < 1:
            raise ValueError("record_every >= 1 required")


# ---------------------------------------------------------------------------
# nonlinearity
# ---------------------------------------------------------------------------

def cutoff_smoothstep(x: np.ndarray, R: float) -> np.ndarray:
    """C^1 cut-off: 1 on [0,R], cubic smoothstep down on [R,R+1], 0 beyond."""
    x = np.asarray(x)
    s = np.clip(x - R, 0.0, 1.0)
    return 1.0 - 3.0 * s**2 + 2.0 * s**3


def nonlinearity(a: np.ndarray, params: ModelParams) -> np.ndarray:
    """Spectral coefficients of i|u|^2 u, dealiased by zero padding."""
    a = np.asarray(a, dtype=np.complex128)
    M = a.shape[-1]
    v = to_physical(a, PhysicalGrid(params.pad_points))
    w = 1j * np.abs(v) ** 2 * v
    return to_spectral(w, M)


def truncated_nonlinearity(a: np.ndarray, R: float, params: ModelParams) -> np.ndarray:
    """Coefficients of i|u|^2 u phi_R(|u|^2) with the smoothstep cut-off."""
    if R <= 0:
        raise ValueError("truncation radius R must be positive")
    a = np.asarray(a, dtype=np.complex128)
    M = a.shape[-1]
    v = to_physical(a, PhysicalGrid(params.pad_points))
    dens = np.abs(v) ** 2
    w = 1j * dens * v * cutoff_smoothstep(dens, R)
    return to_spectral(w, M)


def nl_coeffs(a: np.ndarray, params: ModelParams) -> np.ndarray:
    """The active nonlinearity for these params (cubic, truncated or none)."""
    if not params.nonlinear:
        return np.zeros_like(np.asarray(a, dtype=np.complex128))
    if params.truncation is not None:
        return truncated_nonlinearity(a, params.truncation, params)
    return nonlinearity(a, params)


def _kick(a: np.ndarray, tau: float, params: ModelParams) -> np.ndarray:
    """Exact flow of du/dt = i|u|^2 u (phi_R) over tau: a pointwise phase."""
    if not params.nonlinear or tau == 0.0:
        return a
    M = a.shape[-1]
    v = to_physical(a, PhysicalGrid(params.pad_points))
    dens = np.abs(v) ** 2
    if params.truncation is not None:
        dens = dens * cutoff_smoothstep(dens, params.truncation)
    # Not v * np.exp(...): from 256 KiB numpy reuses the temporary exp array
    # for the product, and that in-place complex multiply rounds differently,
    # which would make a trajectory depend on the size of its batch.
    return to_spectral(np.multiply(v, np.exp(1j * tau * dens)), M)


# ---------------------------------------------------------------------------
# one-step maps
# ---------------------------------------------------------------------------

def decay_factors(params: ModelParams, dt: float) -> np.ndarray:
    """e^{-((gamma+i) alpha_k + alpha) dt} for k = 1..M."""
    al = eigenvalues(params.M)
    return np.exp(-((params.gamma + 1j) * al + params.alpha) * dt)


class Stepper:
    """Precompiled one-step map for fixed (params, integ, noise_spec).

    step(a, z) advances states of shape (..., M) using standard normals z of
    shape (..., 2, N); every call consumes the same normal count, which is
    what keeps trajectories bit-reproducible across batching choices.
    """

    def __init__(self, params: ModelParams, integ: IntegratorConfig, spec: NoiseSpec):
        self.params = params
        self.integ = integ
        self.spec = spec
        self.decay = decay_factors(params, integ.dt)
        if integ.noise_mode == "exact":
            self.noise_scale = convolution_std(
                spec, params.gamma, params.alpha, integ.dt, params.M
            )
        else:
            self.noise_scale = spec.lambdas_padded(params.M)  # times dW

    def _noise_term(self, z: np.ndarray) -> np.ndarray:
        n = min(self.spec.N, self.params.M)
        zpair = np.zeros(z.shape[:-2] + (2, self.params.M))
        zpair[..., :n] = z[..., :n]
        if self.integ.noise_mode == "exact":
            return convolution_from_normals(zpair, self.noise_scale)
        dw = increments_from_normals(zpair, self.integ.dt)
        return self.noise_scale * dw

    def step(self, a: np.ndarray, z: np.ndarray) -> np.ndarray:
        if self.integ.scheme == "strang":
            h = 0.5 * self.integ.dt
            a = _kick(a, h, self.params)
            a = self.decay * a + self._noise_term(z)
            return _kick(a, h, self.params)
        nl = nl_coeffs(a, self.params)
        return self.decay * (a + self.integ.dt * nl) + self._noise_term(z)


# ---------------------------------------------------------------------------
# trajectory records
# ---------------------------------------------------------------------------

@dataclass
class TrajectoryRecord:
    times: np.ndarray
    energy: EnergySeries
    states: np.ndarray | None = None  # (n_rec, M) at the record stride
    excluded: bool = False
    rng_normals: int = 0


@dataclass
class EnsembleRecord:
    """Strided functional records for a batch of trajectories.

    Energy arrays have shape (n_records, batch).  ``excluded`` marks
    trajectories frozen by the blow-up guard; they stay in the arrays and
    are never silently dropped.
    """

    times: np.ndarray
    energy: EnergySeries
    final: np.ndarray
    excluded: np.ndarray
    rng_normals: int = 0
    states: np.ndarray | None = None          # (n_rec, B, M) if requested
    mass_int_h: np.ndarray | None = None      # (n_rec, B) int ||u||_H^2 ds
    mass_int_h1: np.ndarray | None = None     # (n_rec, B) int ||u||_H1^2 ds

    def single(self) -> TrajectoryRecord:
        e = self.energy
        squeeze = lambda x: x[:, 0]
        es = EnergySeries(
            t=e.t, H=squeeze(e.H), H1=squeeze(e.H1), L4=squeeze(e.L4),
            psi=squeeze(e.psi), phi=squeeze(e.phi),
            E1=squeeze(e.E1), E4=squeeze(e.E4),
        )
        return TrajectoryRecord(
            times=self.times,
            energy=es,
            states=None if self.states is None else self.states[:, 0],
            excluded=bool(self.excluded[0]),
            rng_normals=self.rng_normals,
        )


def simulate_ensemble(
    u0: np.ndarray,
    params: ModelParams,
    integ: IntegratorConfig,
    spec: NoiseSpec,
    T: float,
    seed: int,
    traj_ids: np.ndarray | None = None,
    consts: FunctionalConstants | None = None,
    record_states: bool = False,
    track_mass_integrals: bool = False,
    track_phi_every_step: bool = False,
    chunk_steps: int = 256,
) -> EnsembleRecord:
    """Advance a batch of trajectories to time T with per-trajectory streams.

    u0 broadcasts: a single field is shared by every trajectory.  Identical
    (seed, traj_id) pairs reproduce bit-identical trajectories regardless of
    batch composition.
    """
    consts = consts or FunctionalConstants()
    u0 = np.asarray(u0, dtype=np.complex128)
    if u0.ndim == 1:
        if traj_ids is None:
            traj_ids = np.array([0])
        u0 = np.broadcast_to(u0, (len(traj_ids), params.M)).copy()
    elif traj_ids is None:
        traj_ids = np.arange(u0.shape[0])
    validate_field(u0, params.M)
    B = u0.shape[0]

    n_steps = int(round(T / integ.dt)) if T > 0 else 0
    stride = integ.record_every
    rec_idx = list(range(0, n_steps + 1, stride))
    if rec_idx[-1] != n_steps:
        rec_idx.append(n_steps)
    n_rec = len(rec_idx)

    stepper = Stepper(params, integ, spec)
    source = EnsembleNoise(seed, traj_ids, spec.N)
    guard_sq = integ.blowup_guard**2

    e1 = fn.EnAccumulator(1, params.alpha)
    e4 = fn.EnAccumulator(4, params.alpha)
    phi0 = fn.phi(u0, consts)
    e1.reset(phi0)
    e4.reset(phi0)

    cols = {
        name: np.empty((n_rec, B))
        for name in ("H", "H1", "L4", "psi", "phi", "E1", "E4")
    }
    times = np.array(rec_idx, dtype=float) * integ.dt
    states = np.empty((n_rec, B, params.M), dtype=np.complex128) if record_states else None
    mass_h = np.zeros((n_rec, B)) if track_mass_integrals else None
    mass_h1 = np.zeros((n_rec, B)) if track_mass_integrals else None
    int_h = np.zeros(B)
    int_h1 = np.zeros(B)

    excluded = np.zeros(B, dtype=bool)
    a = u0.copy()
    prev_h = fn.norm_h_sq(a)
    prev_h1 = fn.norm_hr_sq(a, 1.0)

    def record(i_rec: int):
        cols["H"][i_rec] = fn.norm_h_sq(a)
        cols["H1"][i_rec] = prev_h1  # the guard's norm of the current state
        cols["L4"][i_rec] = fn.l4_norm4(a)
        ps = fn.psi(a, consts)
        cols["psi"][i_rec] = ps
        cols["phi"][i_rec] = ps + consts.kappa * cols["H"][i_rec] ** 9
        cols["E1"][i_rec] = e1.value()
        cols["E4"][i_rec] = e4.value()
        if states is not None:
            states[i_rec] = a
        if mass_h is not None:
            mass_h[i_rec] = int_h
            mass_h1[i_rec] = int_h1

    record(0)
    next_rec = 1
    step_count = 0
    while step_count < n_steps:
        m = min(chunk_steps, n_steps - step_count)
        zs = source.next_block(m)
        for s in range(m):
            a_new = stepper.step(a, zs[:, s])
            h1sq = fn.norm_hr_sq(a_new, 1.0)
            bad = (h1sq > guard_sq) | ~np.isfinite(h1sq)
            newly = bad & ~excluded
            if np.any(newly):
                excluded |= newly
            if np.any(excluded):
                live = ~excluded
                a[live] = a_new[live]
                # frozen rows keep the H^1 norm of their frozen state
                h1sq = np.where(excluded, prev_h1, h1sq)
            else:
                a = a_new
            step_count += 1
            # left-endpoint E_n pushes and trapezoid mass integrals
            if track_phi_every_step:
                ph = fn.phi(a, consts)
                e1.push(ph, integ.dt)
                e4.push(ph, integ.dt)
            if track_mass_integrals:
                cur_h = fn.norm_h_sq(a)
                int_h += 0.5 * (prev_h + cur_h) * integ.dt
                int_h1 += 0.5 * (prev_h1 + h1sq) * integ.dt
                prev_h = cur_h
            prev_h1 = h1sq
            if next_rec < n_rec and step_count == rec_idx[next_rec]:
                if not track_phi_every_step:
                    ph = fn.phi(a, consts)
                    # stride-resolution E_n when per-step Phi is off
                    gap = integ.dt * (rec_idx[next_rec] - rec_idx[next_rec - 1])
                    e1.push(ph, gap)
                    e4.push(ph, gap)
                record(next_rec)
                next_rec += 1

    energy = EnergySeries(t=times, **cols)
    return EnsembleRecord(
        times=times,
        energy=energy,
        final=a,
        excluded=excluded,
        rng_normals=source.draws,
        states=states,
        mass_int_h=mass_h,
        mass_int_h1=mass_h1,
    )


def simulate(
    u0: np.ndarray,
    params: ModelParams,
    integ: IntegratorConfig,
    spec: NoiseSpec,
    T: float,
    seed: int,
    traj_id: int = 0,
    consts: FunctionalConstants | None = None,
    record_states: bool = False,
) -> TrajectoryRecord:
    """Single trajectory; raises BlowUpError if the guard trips."""
    rec = simulate_ensemble(
        np.asarray(u0, dtype=np.complex128)[None, :],
        params, integ, spec, T, seed,
        traj_ids=np.array([traj_id]),
        consts=consts,
        record_states=record_states,
    )
    if rec.excluded[0]:
        raise BlowUpError(
            f"||u||_H1 exceeded the guard {integ.blowup_guard:g}; trajectory rejected"
        )
    return rec.single()


def step(
    u: np.ndarray,
    params: ModelParams,
    integ: IntegratorConfig,
    spec: NoiseSpec,
    rng: np.random.Generator,
) -> np.ndarray:
    """One public step of the configured scheme, drawing noise from rng."""
    u = validate_field(np.asarray(u, dtype=np.complex128), params.M)
    stepper = Stepper(params, integ, spec)
    z = rng.standard_normal(u.shape[:-1] + (2, spec.N))
    out = stepper.step(u, z)
    h1 = fn.norm_hr(out, 1.0)
    if np.any(h1 > integ.blowup_guard) or not np.all(np.isfinite(h1)):
        raise BlowUpError(
            f"||u||_H1 = {float(np.max(h1)):g} exceeded the guard "
            f"{integ.blowup_guard:g}"
        )
    return out


# ---------------------------------------------------------------------------
# the linear process eta
# ---------------------------------------------------------------------------

def simulate_eta(
    spec: NoiseSpec,
    alpha: float,
    T: float,
    dt: float,
    seed: int,
    n_traj: int = 1,
    record_every: int = 1,
) -> tuple[np.ndarray, np.ndarray]:
    """Exact-in-law trajectories of the linear process (gamma = 0, zero data).

    Returns (times, states) with states of shape (n_rec, n_traj, N): each
    step applies the exact per-mode decay e^{-(alpha + i alpha_k) dt} and
    adds the exact stochastic convolution sample.
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    N = spec.N
    n_steps = int(round(T / dt)) if T > 0 else 0
    rec_idx = list(range(0, n_steps + 1, record_every))
    if rec_idx[-1] != n_steps:
        rec_idx.append(n_steps)
    times = np.array(rec_idx, dtype=float) * dt
    decay = np.exp(-(alpha + 1j * eigenvalues(N)) * dt) if N else np.zeros(0)
    std = convolution_std(spec, 0.0, alpha, dt) if N else np.zeros(0)
    source = EnsembleNoise(seed, np.arange(n_traj), N)

    eta = np.zeros((n_traj, N), dtype=np.complex128)
    out = np.zeros((len(rec_idx), n_traj, N), dtype=np.complex128)
    next_rec, done = 1, 0
    while done < n_steps:
        m = min(512, n_steps - done)
        zs = source.next_block(m)
        for s in range(m):
            eta = decay * eta + convolution_from_normals(zs[:, s], std)
            done += 1
            if next_rec < len(rec_idx) and done == rec_idx[next_rec]:
                out[next_rec] = eta
                next_rec += 1
    return times, out
