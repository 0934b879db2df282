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

    The stepping drivers run it first-same-as-last (FSAL; Strang 1968,
    Hairer-Lubich-Wanner, Geometric Numerical Integration, II.5): step n's
    closing half-kick and step n+1's opening one are merged into one full
    kick, so a step makes one synthesis, two analyses and one phase
    (a cosine and a sine of |v|^2 written into one complex array) instead
    of two of each.  Each driver carries the
    half-kicked state c next to the Strang state a; records, the blow-up
    guard, the mass integrals and the final state all read a, which is the
    exact Strang state of the step from c.  A step whose a nothing reads
    skips its analysis (``Stepper.advance(..., strang_state=False)``):
    ``simulate_ensemble`` forms a only on record steps unless it tracks the
    mass integrals or per-step Phi, and ``mixing_curve`` only on its
    record steps, which spares one of the step's three transforms.  The
    merged kick drops the
    projection between the two half-kicks, so a trajectory differs from
    repeated ``Stepper.step`` calls by that projection alone: 2e-14
    relative after 200 steps at M = 64, dt = 5e-3 for fields of size 0.08,
    2e-13 for fields of size 1.3.  Batch bit-identity is kept, since every
    operation is elementwise or one product per field.
    ``pinned_contraction_run`` stays on ``step``, because its pinning
    rewrites the low modes after every step.

``expeuler``
    Exponential Euler-Maruyama, a_k <- e^{-((gamma+i)alpha_k+alpha) dt}
    (a_k + dt NL_k(u)) + xi_k.  First order; exact for linear dynamics.
    Used by the coupling machinery, whose drift-shift bookkeeping wants the
    noise to enter linearly.

    Its drivers synthesise each admitted state once per step.
    ``physical_field`` gives (v, |v|^2) on the ``pad_points`` grid; that
    one field feeds the state's Phi, through ||u||_{L^4}^4 =
    sum |v|^4/(K+1) (``field_energy``), and the next step's drift
    (``Stepper.drift(a, field)``).  The guard's squared H and H^1 norms of
    the admitted state (``BlowUpGuard.h2`` and ``.h1sq``, from one |a|^2)
    are Phi's other two terms.  Under FSAL Strang the kick synthesises
    decay c + noise, not the Strang state a, so Phi and records there make
    a synthesis of their own.

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

Every stepping loop of the package leaves three decisions to this module.
Noise blocks: ``steps`` alone calls ``EnsembleNoise.next_block``, for
``BLOCK_STEPS`` steps at a time (a Philox stream continues across blocks,
so the block size never changes a result).  The record schedule:
``record_schedule`` gives step 0, the multiples of the stride and the last
step, always.  The blow-up guard: ``BlowUpGuard`` alone reads
``blowup_guard``.  A row whose H^1 norm after a step is above the guard or
not finite is excluded for the rest of the run: it stays at its last
admitted state, is left out of means and is reported in an ``excluded``
output, never dropped.  A caller may link rows (the members of a pair, a
pair and its reference) so that they are excluded together.

On an FSAL step that forms no Strang state the guard reads c_next: a row
whose c_next has an H^1 norm above the guard or not finite is excluded at
that step.  Its c stays at its last admitted value and its a at the last
Strang state formed for it, which is what it is recorded and returned as,
with that a's H^1 norm.  Rows that never cross are bit-identical to a run
that forms a on every step, since the c chain is the same.
"""

from __future__ import annotations

from collections.abc import Iterator
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

BLOCK_STEPS = 256  # steps of normals per EnsembleNoise.next_block call

SCHEMES = ("strang", "expeuler")
NOISE_MODES = ("exact", "em")


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


def _cutoff(dens: np.ndarray, R: float):
    """phi_R(dens), or the scalar 1.0 when no density exceeds R.

    phi_R is exactly 1 on [0, R] and multiplying by 1.0 is exact, so the
    skip changes no result.  The test is per element, not dens.max(), so a
    NaN row cannot hide another row's excess.
    """
    return cutoff_smoothstep(dens, R) if np.any(dens > R) else 1.0


def physical_field(a: np.ndarray, params: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """(v, |v|^2): the states a synthesised on the pad_points grid, and their
    density; what the cubic term, the kick and ``field_energy`` read."""
    v = to_physical(a, PhysicalGrid(params.pad_points))
    return v, np.abs(v) ** 2


def _phase(dens: np.ndarray, tau: float, params: ModelParams) -> np.ndarray:
    """exp(i tau dens phi_R(dens)) at the nodes: the kick's pointwise phase.

    cos and sin written into one complex array, the angle staged in its
    imaginary part: the values of np.exp(1j ...) at half its cost, and no
    array besides the result.
    """
    if params.truncation is not None:
        dens = dens * _cutoff(dens, params.truncation)
    e = np.empty(dens.shape, dtype=np.complex128)
    theta = np.multiply(dens, tau, out=e.imag)
    np.cos(theta, out=e.real)
    np.sin(theta, out=theta)
    return e


def _cubic(field: tuple, R: float | None, M: int) -> np.ndarray:
    """Coefficients of i|u|^2 u (times phi_R(|u|^2) when R is set) from the field."""
    v, dens = field
    w = 1j * dens * v
    if R is not None:
        w = w * _cutoff(dens, R)
    return to_spectral(w, M)


def nl_coeffs(a: np.ndarray, params: ModelParams, field: tuple | None = None) -> np.ndarray:
    """The active nonlinearity for these params (cubic, truncated or none).

    field, when given, is physical_field(a, params) and spares the synthesis.
    """
    a = np.asarray(a, dtype=np.complex128)
    if not params.nonlinear:
        return np.zeros_like(a)
    if field is None:
        field = physical_field(a, params)
    return _cubic(field, params.truncation, a.shape[-1])


def _kick_field(a: np.ndarray, tau: float, params: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """(v, e): the field of a and the phase of a kick over tau at its nodes.

    The density is dropped here, before the caller's products are formed.
    """
    v, dens = physical_field(a, params)
    return v, _phase(dens, tau, params)


def _kick(a: np.ndarray, tau: float, params: ModelParams) -> np.ndarray:
    """Exact flow of du/dt = i|u|^2 u (phi_R) over tau: a pointwise phase."""
    if not params.nonlinear or tau == 0.0:
        return a
    v, e = _kick_field(a, tau, params)
    # Never v * (a temporary phase): from 256 KiB numpy reuses a temporary
    # operand for the product, and that in-place complex multiply rounds
    # differently, which would make a trajectory depend on the size of its
    # batch.
    return to_spectral(np.multiply(v, e), a.shape[-1])


def field_energy(a: np.ndarray, field: tuple, h2, h1sq, params: ModelParams,
                 consts: FunctionalConstants) -> tuple:
    """(||u||_{L^4}^4, Psi, Phi) of the states a, from field =
    physical_field(a, params) and (h2, h1sq) = fn.norms_h_h1_sq(a).

    The values of fn.psi and fn.phi, without a synthesis of their own.
    |u|^4 has cosine modes up to 4M, so the L^4 quadrature on the pad_points
    grid is exact once that grid has 2M points.  With dealias=False it has
    M, and l4_norm4's own 2M+1-point grid is used instead.
    """
    if params.pad_points >= 2 * params.M:
        l4 = fn.l4_norm4_from_density(field[1])
    else:
        l4 = fn.l4_norm4(a)
    return (l4, *fn.psi_phi(h2, h1sq, l4, consts))


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
    what keeps trajectories bit-reproducible across batching choices.  The
    exponential-Euler step is drift(a) + noise(z).

    The stepping drivers run the FSAL form instead: c = open(a), then
    a, c = advance(c, z) per step, where a is the Strang state and c the
    carried, half-kicked one (see the module docstring).
    advance(open(a), z)[0] equals step(a, z) bit for bit.
    """

    def __init__(self, params: ModelParams, integ: IntegratorConfig, spec: NoiseSpec):
        self.params = params
        self.integ = integ
        self.spec = spec
        self.decay = decay_factors(params, integ.dt)
        self.n_forced = min(spec.N, params.M)
        if integ.noise_mode == "exact":
            self.noise_scale = convolution_std(
                spec, params.gamma, params.alpha, integ.dt, self.n_forced
            )
        else:
            self.noise_scale = spec.lambdas_padded(self.n_forced)  # times dW

    def add_noise(self, b: np.ndarray, z: np.ndarray) -> np.ndarray:
        """b plus the step's additive noise from normals z (..., 2, N), in place.

        The noise lives on the forced modes alone, so only b[..., :N] moves;
        the modes above N would have gained an exact 0.0.
        """
        n = self.n_forced
        z = z[..., :n]
        if self.integ.noise_mode == "exact":
            b[..., :n] += convolution_from_normals(z, self.noise_scale)
        else:
            b[..., :n] += self.noise_scale * increments_from_normals(z, self.integ.dt)
        return b

    def drift(self, a: np.ndarray, field: tuple | None = None) -> np.ndarray:
        """Deterministic part of the exponential-Euler step, e^{-L dt} (a + dt NL(a)).

        field, when given, is physical_field(a, params) (see nl_coeffs).
        """
        return self.decay * (a + self.integ.dt * nl_coeffs(a, self.params, field))

    def step(self, a: np.ndarray, z: np.ndarray) -> np.ndarray:
        """One step from a; the single-step reference for advance."""
        if self.integ.scheme == "strang":
            h = 0.5 * self.integ.dt
            a = _kick(a, h, self.params)
            a = self.add_noise(self.decay * a, z)
            return _kick(a, h, self.params)
        return self.add_noise(self.drift(a), z)

    def _fsal(self) -> bool:
        return self.integ.scheme == "strang" and self.params.nonlinear

    def open(self, a: np.ndarray) -> np.ndarray:
        """The carried state of a: its opening half-kick K(dt/2) under Strang
        with a nonlinearity, a itself otherwise."""
        return _kick(a, 0.5 * self.integ.dt, self.params) if self._fsal() else a

    def advance(self, c: np.ndarray, z: np.ndarray, field: tuple | None = None,
                strang_state: bool = True) -> tuple[np.ndarray | None, np.ndarray]:
        """One step from the carried state c: (a, c_next).

        a = P K(dt/2) (decay c + noise) is the Strang state after the step;
        c_next = P K(dt) (decay c + noise) merges its closing half-kick with
        the next step's opening one.  Both come from one synthesis v and one
        phase e: a = analysis(v e), c_next = analysis(v e e).  With
        strang_state=False the FSAL step skips the analysis of a and returns
        (None, c_next), c_next bit for bit as before.

        Under exponential Euler c is the state itself, and field, when
        given, is physical_field(c, params): the drift then makes no
        synthesis of its own.  The FSAL step synthesises decay c + noise,
        not c, and does not read it.  Without FSAL a is c_next, and it is
        always returned.
        """
        if not self._fsal():
            if self.integ.scheme == "expeuler":
                a = self.add_noise(self.drift(c, field), z)
            else:
                a = self.step(c, z)
            return a, a
        b = self.add_noise(self.decay * c, z)
        v, e = _kick_field(b, 0.5 * self.integ.dt, self.params)
        w = np.multiply(v, e)
        M = self.params.M
        a = to_spectral(w, M) if strang_state else None
        return a, to_spectral(np.multiply(w, e), M)


# ---------------------------------------------------------------------------
# the stepping engine: noise blocks, record schedule, blow-up guard
# ---------------------------------------------------------------------------

def record_schedule(n_steps: int, stride: int) -> list[int]:
    """Record steps 0, stride, 2 stride, ... and n_steps, always."""
    rec = list(range(0, n_steps + 1, stride))
    if rec[-1] != n_steps:
        rec.append(n_steps)
    return rec


def steps(source: EnsembleNoise, n_steps: int, record_steps=()) -> Iterator[tuple]:
    """For steps 1..n_steps, yield the step's normals (batch, 2, N) and
    whether the step is in record_steps."""
    recorded = set(record_steps)
    done = 0
    while done < n_steps:
        zs = source.next_block(min(BLOCK_STEPS, n_steps - done))
        for s in range(zs.shape[1]):
            done += 1
            yield zs[:, s], done in recorded


class BlowUpGuard:
    """The exclusion rule for the rows (fields) of a stepped batch.

    check(a) excludes every row of a past the guard; hold(old, new) keeps
    the excluded rows of new at old.  Rows are linked by or-ing into
    ``excluded`` between the two calls.  admit does both and keeps ``h2``
    and ``h1sq``, the squared H and H^1 norms of the admitted rows from one
    |a|^2, which a frozen row holds at its frozen state's.
    """

    def __init__(self, integ: IntegratorConfig, a: np.ndarray):
        self.limit = integ.blowup_guard**2
        self.excluded = np.zeros(np.shape(a)[:-1], dtype=bool)
        self.h2, self.h1sq = fn.norms_h_h1_sq(a)

    def check(self, a: np.ndarray) -> None:
        self._exclude(fn.norm_hr_sq(a, 1.0))

    def _exclude(self, h1sq: np.ndarray) -> None:
        self.excluded |= ~(h1sq <= self.limit)

    def hold(self, old, new):
        """new, with every excluded row kept at old (per-row arrays or scalars)."""
        if not self.excluded.any():
            return new
        extra = (1,) * (np.ndim(new) - self.excluded.ndim)
        return np.where(self.excluded.reshape(self.excluded.shape + extra), old, new)

    def admit(self, old: tuple, new: tuple) -> tuple:
        """Exclude the rows of new[0] past the guard, then hold every array of
        the tuple new, and the norms, at old."""
        h2, h1sq = fn.norms_h_h1_sq(new[0])
        self._exclude(h1sq)
        self.h2, self.h1sq = self.hold(self.h2, h2), self.hold(self.h1sq, h1sq)
        return tuple(self.hold(o, n) for o, n in zip(old, new))


# ---------------------------------------------------------------------------
# trajectory records
# ---------------------------------------------------------------------------

@dataclass
class TrajectoryRecord:
    times: np.ndarray
    energy: EnergySeries
    states: np.ndarray | None = None  # (n_rec, M) at the record stride
    excluded: bool = False


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
    rec_idx = record_schedule(n_steps, integ.record_every)
    n_rec = len(rec_idx)

    stepper = Stepper(params, integ, spec)
    source = EnsembleNoise(seed, traj_ids, spec.N)

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

    a = u0.copy()
    c = stepper.open(a)
    guard = BlowUpGuard(integ, a)

    def measure(a):
        """(field, ||u||_{L^4}^4, Psi, Phi) of the admitted states a.

        The next exponential-Euler drift reads the field, so that scheme
        keeps it and synthesises a once per step; under Strang it is None.
        """
        field = physical_field(a, params)
        return (field if integ.scheme == "expeuler" else None,
                *field_energy(a, field, guard.h2, guard.h1sq, params, consts))

    field, l4, ps, ph = measure(a)
    e1 = fn.EnAccumulator(1, params.alpha)
    e4 = fn.EnAccumulator(4, params.alpha)
    e1.reset(ph)
    e4.reset(ph)

    def record(i_rec: int):
        cols["H"][i_rec] = guard.h2
        cols["H1"][i_rec] = guard.h1sq
        cols["L4"][i_rec] = l4
        cols["psi"][i_rec] = ps
        cols["phi"][i_rec] = ph
        cols["E1"][i_rec] = e1.value()
        cols["E4"][i_rec] = e4.value()
        if states is not None:
            states[i_rec] = a
        if mass_h is not None:
            mass_h[i_rec] = int_h
            mass_h1[i_rec] = int_h1

    record(0)
    i_rec = 0
    every_step = track_phi_every_step or track_mass_integrals
    for z, recorded in steps(source, n_steps, rec_idx):
        prev_h, prev_h1 = guard.h2, guard.h1sq
        new, c_new = stepper.advance(c, z, field, strang_state=recorded or every_step)
        if new is None:  # no Strang state formed: the guard reads c_next
            guard.check(c_new)
            c = guard.hold(c, c_new)
        else:
            a, c = guard.admit((a, c), (new, c_new))
        field = None
        if track_phi_every_step or recorded:
            field, l4, ps, ph = measure(a)
        # left-endpoint E_n pushes and trapezoid mass integrals
        if track_phi_every_step:
            e1.push(ph, integ.dt)
            e4.push(ph, integ.dt)
        if track_mass_integrals:
            int_h += 0.5 * (prev_h + guard.h2) * integ.dt
            int_h1 += 0.5 * (prev_h1 + guard.h1sq) * integ.dt
        if recorded:
            i_rec += 1
            if not track_phi_every_step:
                # stride-resolution E_n when per-step Phi is off
                gap = integ.dt * (rec_idx[i_rec] - rec_idx[i_rec - 1])
                e1.push(ph, gap)
                e4.push(ph, gap)
            record(i_rec)

    energy = EnergySeries(t=times, **cols)
    return EnsembleRecord(
        times=times,
        energy=energy,
        final=a,
        excluded=guard.excluded,
        states=states,
        mass_int_h=mass_h,
        mass_int_h1=mass_h1,
    )


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

    Returns (times, states) with states of shape (n_rec, n_traj, N): the
    linear exact-noise step applies the exact per-mode decay
    e^{-(alpha + i alpha_k) dt} and adds the exact stochastic convolution
    sample.
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    # with N = 0 one unforced mode stands in; it stays exactly zero
    params = ModelParams(gamma=0.0, alpha=alpha, M=max(spec.N, 1), nonlinear=False)
    rec = simulate_ensemble(
        np.zeros(params.M, complex), params,
        IntegratorConfig(dt=dt, record_every=record_every), spec, T, seed,
        traj_ids=np.arange(n_traj), record_states=True,
    )
    return rec.times, rec.states[..., : spec.N]
