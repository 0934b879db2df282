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
    as a phase rotation on the 2M-point physical grid; the linear substep uses
    the exact per-mode decay and the exact stochastic convolution.  Second
    order in dt deterministically, and mass-exact up to spectral truncation,
    which is what the conservation-law checks below rely on.

    The stepping engine ``run`` steps it first-same-as-last (FSAL; Strang
    1968, Hairer-Lubich-Wanner, Geometric Numerical Integration, II.5):
    step n's closing half-kick and step n+1's opening one are merged into
    one full kick, so a step makes one synthesis, two analyses and one phase
    (a cosine and a sine of |v|^2 written into one complex array) instead
    of two of each.  The engine carries the half-kicked state c next to the
    Strang state a, the exact Strang state of the step from c, which is
    what callers read.  The merged kick drops the projection between the
    two half-kicks, so a trajectory differs from repeated ``Stepper.step``
    calls by that projection alone: 2e-14 relative after 200 steps at
    M = 64, dt = 5e-3 for fields of size 0.08, 2e-13 for fields of size 1.3.  Batch bit-identity is kept, since every
    operation is elementwise or one product per field.
    ``pinned_contraction_run`` stays on ``step``, because its pinning
    rewrites the low modes after every step.

``expeuler``
    Exponential Euler-Maruyama, a_k <- e^{-((gamma+i)alpha_k+alpha) dt}
    (a_k + dt NL_k(u)) + xi_k.  First order; exact for linear dynamics.
    Used by the coupling machinery, whose drift-shift bookkeeping wants the
    noise to enter linearly.

    The engine synthesises each admitted state once per step.
    ``functionals.physical_field`` gives (v, |v|^2) on 2M points; that
    one field feeds the next step's drift (``Stepper.drift(a, field)``)
    and the caller's Phi, through ||u||_{L^4}^4 = sum |v|^4/(K+1)
    (``functionals.field_energy``).  The guard's squared H and H^1 norms of
    the admitted state (``BlowUpGuard.h2`` and ``.h1sq``, from one |a|^2)
    are Phi's other two terms.  Under FSAL Strang the kick synthesises
    decay c + noise, not the Strang state a, so Phi and records there make
    a synthesis of their own.  The weighted pairs of ``coupling`` step the
    same way in a loop of their own, since their second member's step is
    not the one-step map.

The cubic term is evaluated pseudo-spectrally on the 2M interior points of
``functionals.physical_field``, the one grid the package samples fields on.
In the sine basis a cubic of an M-mode field has modes up to 3M, and that
grid already reflects every alias above mode M, so it is alias-free for the
retained modes.

The Strang kick is the exception to "any grid of at least 2M points will
do": exp(i tau |u|^2) u is not band-limited, so its projection onto the M
modes depends on the grid it was sampled on.  The kick therefore always
uses exactly 2M nodes.  At M = 64, for order-one fields
(a_k ~ 1/k) and tau = 2.5e-3, a kick on 134 nodes (the next FFT-friendly
size) differs from one on 128 nodes by 3.0e-9 relative, far above the 1e-10
agreement with the direct-sum one-step oracle that the benchmark checks.

The step decision lives in this module.  ``run`` alone opens the carried
state, advances it, chooses when to form the Strang state and applies the
blow-up guard; ``simulate_ensemble``, ``stats.mixing_curve`` and
``stats.inviscid_curve`` read what it yields.  Noise blocks: ``steps``
alone calls ``EnsembleNoise.next_block``, for ``BLOCK_STEPS`` steps at a
time (a Philox stream continues across blocks, so the block size never
changes a result).  The record schedule: ``record_schedule`` gives step 0,
the multiples of the stride and the last step, always.  The blow-up guard:
``BlowUpGuard`` alone reads ``blowup_guard``.  A row whose H^1 norm after a
step is above the guard or not finite is excluded for the rest of the run:
it stays at its last admitted state, is left out of means and is reported
in an ``excluded`` output, never dropped.  The guard's row-link rule
``link`` excludes linked rows together: the two members of a mixing or
coupling pair (``either_member``), a viscous row and its gamma = 0
reference row.

The gamma block axis.  For a tuple of G viscosities in ``ModelParams.gamma``
the ``Stepper``'s ``decay`` and, under exact noise, ``noise_scale`` have
shape (G, 1, .): states (..., G, E, M) take normals (E, 2, N), row i of
every block trajectory i's, and each block is bit for bit a run with its
gamma alone.  Only ``stats.mixing_curve`` and ``stats.inviscid_curve`` step
it; the other drivers take one gamma (``require_one_gamma``).

The engine forms the Strang state a on record steps, or on every step when
the caller reads every step (per-step Phi, the mass integrals, the
inviscid sup); a step whose a nothing reads skips that analysis
(``Stepper.advance(..., strang_state=False)``), one of the step's three
transforms.  There the guard reads c_next: a row whose c_next has an H^1
norm above the guard or not finite is excluded at that step.  Its c stays
at its last admitted value and its a at the last Strang state formed for
it, which is what it is recorded and returned as, with that a's H^1 norm.
Rows that never cross are bit-identical to a run that forms a on every
step, since the c chain is the same.
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
from .spectral import eigenvalues, to_spectral, validate_field

BLOCK_STEPS = 256  # steps of normals per EnsembleNoise.next_block call

SCHEMES = ("strang", "expeuler")
NOISE_MODES = ("exact", "em")


@dataclass(frozen=True)
class ModelParams:
    """Equation selector: viscosity, damping, Galerkin dimension, truncation."""

    gamma: float | tuple[float, ...]  # a tuple: the gamma block axis (module docstring)
    alpha: float
    M: int
    truncation: float | None = None  # cut-off radius R; None = full dynamics
    nonlinear: bool = True           # False = linear test dynamics

    def __post_init__(self):
        # alpha = 0 is admitted here for the deterministic conservation
        # checks; configuration loading enforces the positive damping the
        # stochastic theory needs.
        if self.alpha < 0:
            raise ValueError("damping alpha must be nonnegative")
        if not self.gammas or not all(0.0 <= g < 1.0 for g in self.gammas):
            raise ValueError("viscosity gamma must lie in [0, 1), one value or a nonempty tuple")
        if self.M < 1:
            raise ValueError("need at least one Galerkin mode")
        if self.truncation is not None and self.truncation <= 0:
            raise ValueError("truncation radius R must be positive")

    @property
    def gammas(self) -> tuple[float, ...]:
        """The viscosities: the tuple gamma, or (gamma,) for one."""
        return self.gamma if isinstance(self.gamma, tuple) else (self.gamma,)


def require_one_gamma(params: ModelParams, caller: str) -> None:
    """Raise unless params carries one gamma: caller steps no block axis."""
    if isinstance(params.gamma, tuple):
        raise ValueError(f"{caller} steps one gamma, not the tuple {params.gamma}")


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

    field, when given, is fn.physical_field(a) and spares the synthesis.
    """
    a = np.asarray(a, dtype=np.complex128)
    if not params.nonlinear:
        return np.zeros_like(a)
    if field is None:
        field = fn.physical_field(a)
    return _cubic(field, params.truncation, a.shape[-1])


def _kick_field(a: np.ndarray, tau: float, params: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """(v, e): the field of a and the phase of a kick over tau at its nodes.

    The density is dropped here, before the caller's products are formed.
    """
    v, dens = fn.physical_field(a)
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


# ---------------------------------------------------------------------------
# one-step maps
# ---------------------------------------------------------------------------

def _blocks(params: ModelParams, f) -> np.ndarray:
    """f(gamma), or for a gamma tuple its f(g) stacked on a block axis (G, 1, ...)."""
    if isinstance(params.gamma, tuple):
        return np.stack([f(g) for g in params.gamma])[:, None]
    return f(params.gamma)


class Stepper:
    """Precompiled one-step map for fixed (params, integ, noise_spec).

    step(a, z) advances states of shape (..., M) using standard normals z of
    shape (..., 2, N); every call consumes the same normal count, which is
    what keeps trajectories bit-reproducible across batching choices.  The
    exponential-Euler step is drift(a) + noise(z).

    The engine ``run`` steps the FSAL form instead: c = open(a), then
    a, c = advance(c, z) per step, where a is the Strang state and c the
    carried, half-kicked one (see the module docstring).
    advance(open(a), z)[0] equals step(a, z) bit for bit.
    A gamma tuple adds the block axis of the module docstring.
    """

    def __init__(self, params: ModelParams, integ: IntegratorConfig, spec: NoiseSpec):
        self.params = params
        self.integ = integ
        self.spec = spec
        al, dt = eigenvalues(params.M), integ.dt
        self.decay = _blocks(params, lambda g: np.exp(-((g + 1j) * al + params.alpha) * dt))
        self.n_forced = min(spec.N, params.M)
        if integ.noise_mode == "exact":
            self.noise_scale = _blocks(params, lambda g: convolution_std(
                spec, g, params.alpha, integ.dt, self.n_forced))
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

        field, when given, is fn.physical_field(a) (see nl_coeffs).
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
        given, is fn.physical_field(c): the drift then makes no
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

    check(a) excludes every row of a past the guard, and every row that the
    row-link rule ``link`` (excluded -> excluded) ties to one; hold(old, new)
    keeps the excluded rows of new at old.  admit does both and keeps ``h2``
    and ``h1sq``, the squared H and H^1 norms of the admitted rows from one
    |a|^2, which a frozen row holds at its frozen state's.  ``excluded``
    starts as the rows already frozen, none by default.
    """

    def __init__(self, integ: IntegratorConfig, a: np.ndarray, link=None, excluded=None):
        self.limit = integ.blowup_guard**2
        self.link = link
        self.excluded = np.zeros(np.shape(a)[:-1], dtype=bool)
        if excluded is not None:
            self.excluded |= excluded
        self.h2, self.h1sq = fn.norms_h_h1_sq(a)

    def check(self, a: np.ndarray) -> None:
        self._exclude(fn.norm_hr_sq(a, 1.0))

    def _exclude(self, h1sq: np.ndarray) -> None:
        self.excluded |= ~(h1sq <= self.limit)
        if self.link is not None:
            self.excluded = self.link(self.excluded)

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


def either_member(excluded: np.ndarray) -> np.ndarray:
    """Row-link rule of a stacked pair (2, ...): a pair falls with either member."""
    return excluded | excluded.any(axis=0)


def run(stepper: Stepper, guard: BlowUpGuard, a: np.ndarray, source: EnsembleNoise,
        n_steps: int, record_steps=(), every_step: bool = False,
        field: tuple | None = None) -> Iterator[tuple]:
    """Step the batch a n_steps times; after each step yield (recorded, a, field).

    a is the admitted Strang state after the step, recorded whether the
    step is in record_steps.  The FSAL Strang step forms a only on record
    steps, or on every step with every_step; on the others the guard reads
    c_next and a stays at the last state formed (see the module docstring).
    Under exponential Euler field is fn.physical_field(a), which the next
    step's drift reads too, so a is synthesised once per step; otherwise it
    is None.  field, when given, is fn.physical_field(a) of the initial a.
    """
    expeuler = stepper.integ.scheme == "expeuler"
    if expeuler and field is None:
        field = fn.physical_field(a)
    c = stepper.open(a)
    for z, recorded in steps(source, n_steps, record_steps):
        new, c_new = stepper.advance(c, z, field, strang_state=recorded or every_step)
        if new is None:  # no Strang state formed: the guard reads c_next
            guard.check(c_new)
            c = guard.hold(c, c_new)
        else:
            a, c = guard.admit((a, c), (new, c_new))
        field = fn.physical_field(a) if expeuler else None
        yield recorded, a, field


# ---------------------------------------------------------------------------
# trajectory records
# ---------------------------------------------------------------------------

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
    require_one_gamma(params, "simulate_ensemble")
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
    guard = BlowUpGuard(integ, a)
    field = fn.physical_field(a)
    l4, ps, ph = fn.field_energy(field, guard.h2, guard.h1sq, consts)
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
    prev_h, prev_h1 = guard.h2, guard.h1sq
    for recorded, a, field in run(stepper, guard, a, source, n_steps, rec_idx,
                                  track_phi_every_step or track_mass_integrals, field):
        if track_phi_every_step or recorded:
            # under Strang the engine hands over no field: Phi synthesises a
            l4, ps, ph = fn.field_energy(fn.physical_field(a) if field is None else field,
                                         guard.h2, guard.h1sq, consts)
        # left-endpoint E_n pushes and trapezoid mass integrals
        if track_phi_every_step:
            e1.push(ph, integ.dt)
            e4.push(ph, integ.dt)
        if track_mass_integrals:
            int_h += 0.5 * (prev_h + guard.h2) * integ.dt
            int_h1 += 0.5 * (prev_h1 + guard.h1sq) * integ.dt
            prev_h, prev_h1 = guard.h2, guard.h1sq
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
