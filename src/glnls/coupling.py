"""Executable coupling machinery: the Foias-Prodi pinned pair, the low-mode
Girsanov coupling on [0, t1], and drift-corrected coupled segments with
decoupling bookkeeping.

Pinning.  A pair is stored as two whole states (u1, u2).  While it is
coupled, u2's first N modes are assigned from u1's after every step, so
P_N u1 = P_N u2 holds bit for bit, not to tolerance.  One pinned step
advances u1 and u2 by the same one-step map with the same noise, as one
stacked batch, and then makes that assignment.

Weights.  Where the construction distorts the second member's law (the
interpolation bridge on [0, t1], the pinned low modes over a segment), the
distortion is realized as a per-step mean shift of the driving Gaussian
increments, chosen so the low-mode identity holds exactly on the grid, and
accounted by the exact discrete Radon-Nikodym factor

    log w += -<m, dW>/dt - |m|^2/(2 dt)       (per forced real component),

whose continuum limit is -int <Q^{-1}F, dW> - 1/2 int ||Q^{-1}F||^2 dt with
F the drift mismatch (the bridge drift F1 on [0,t1], the nonlinearity
mismatch F2 while pinned).  Weighted averages over these paths are exactly
unbiased for the discrete dynamics; weight dispersion is the measurable
footprint of the total-variation cost.  Coupling runs therefore use the
exponential-Euler scheme with raw increments, where the noise enters
linearly.

A coupled pair decouples when either member's running
budget E_4 leaves theta + beta^4 + C4*(t - lT), or when the accumulated
Girsanov budget integral int (1 + Phi_1^4 + Phi_2^4)||u1-u2||_{H^1}^2 passes
rho2 e^{-alpha k T / 4}.

Cost.  The budgets need Phi of both members at every step.  Each admitted
member is synthesised once per step (``functionals.physical_field``): the field
gives its ||u||_{L^4}^4 for Phi and, at once, its drift for the next step.
Phi's squared H and H^1 norms come from one |a|^2 per member
(``functionals.norms_h_h1_sq``), u1's by way of the blow-up guard.  A
pair-step thus makes two syntheses and two analyses, and the loop carries
the drifts, not the larger fields.

Exclusion.  A pair whose u1 crosses the blow-up guard (see ``models``) is
excluded from the step that crossed on: its members, log weight, E_4
budgets and budget integral all keep their values from before that step.
Its frozen weight is therefore the likelihood ratio of a path that
stopped, not of the continued dynamics, so weighted means are taken over
the live pairs; an excluded bridge attempt is never a success.
"""

from __future__ import annotations

import copy
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import functionals as fn
from .functionals import FunctionalConstants
from .models import (BlowUpGuard, IntegratorConfig, ModelParams, Stepper, record_schedule,
                     require_one_gamma, simulate_ensemble, steps)
from .noise import EnsembleNoise, NoiseSpec, increments_from_normals
from .stats import tail_fit


@dataclass(frozen=True)
class CouplingConfig:
    """Parameters of the coupling construction.

    t1, r1 default to beta^10; rho1 to 8 K41 (r1^4 + 1); rho2 to sqrt(beta).
    c4_hat and k41_hat are pilot estimates of the tail-bound constants (the
    linear growth rate of the E_4 budget and the Markov envelope constant);
    neither is knowable in closed form, so both come from pilot ensembles.
    """

    N: int
    theta: float
    beta: float
    T: float
    c4_hat: float
    k41_hat: float = 1.0
    t1: float | None = None
    r1: float | None = None
    rho1: float | None = None
    rho2: float | None = None
    consts: FunctionalConstants = field(default_factory=FunctionalConstants)

    def __post_init__(self):
        if not 0.0 < self.beta < 1.0:
            raise ValueError("beta must lie in (0,1)")
        if self.N < 1 or self.theta <= 0 or self.T <= 0:
            raise ValueError("need N >= 1, theta > 0, T > 0")
        if self.t1 is None:
            object.__setattr__(self, "t1", self.beta**10)
        if self.r1 is None:
            object.__setattr__(self, "r1", self.beta**10)
        if not (0 < self.t1 < 1 and 0 < self.r1 < 1):
            raise ValueError("t1 and r1 must lie in (0,1)")
        if self.rho1 is None:
            object.__setattr__(self, "rho1", 8.0 * self.k41_hat * (self.r1**4 + 1.0))
        if self.rho2 is None:
            object.__setattr__(self, "rho2", np.sqrt(self.beta))

    def e4_budget(self, elapsed: float | np.ndarray) -> float | np.ndarray:
        """theta + beta^4 + C4_hat * (t - lT) with elapsed measured from coupling."""
        return self.theta + self.beta**4 + self.c4_hat * elapsed


UNCOUPLED = -1  # sentinel for ell = infinity (never / no longer coupled)


@dataclass
class CoupledState:
    """Batch of coupled pairs, both members whole; u2's first N modes equal
    u1's bit for bit.

    ``ell`` is the coupling epoch index of the decoupling bookkeeping
    (UNCOUPLED when the pair has decoupled), ``k`` the number of segments
    run, ``log_weight`` the running Girsanov log density, ``excluded`` the
    pairs frozen by the blow-up guard.
    """

    u1: np.ndarray
    u2: np.ndarray
    ell: np.ndarray
    k: int
    log_weight: np.ndarray
    e4_1: fn.EnAccumulator
    e4_2: fn.EnAccumulator
    e4_crossed: np.ndarray
    budget_crossed: np.ndarray
    budget_integral: np.ndarray
    excluded: np.ndarray


def make_coupled_state(
    u1: np.ndarray, u2: np.ndarray, cfg: CouplingConfig, consts: FunctionalConstants
) -> CoupledState:
    """Pair entering the coupled regime now: copies of u1 and u2, with u2's
    first N modes assigned from u1's; the caller's arrays are left as they are."""
    u1, u2 = (np.atleast_2d(np.array(u, dtype=np.complex128)) for u in (u1, u2))
    u2[..., :cfg.N] = u1[..., :cfg.N]
    B = u1.shape[0]
    e4_1 = fn.EnAccumulator(4, alpha=np.nan)  # alpha set by the evolver
    e4_2 = fn.EnAccumulator(4, alpha=np.nan)
    e4_1.reset(fn.phi(u1, consts))
    e4_2.reset(fn.phi(u2, consts))
    return CoupledState(u1=u1, u2=u2, ell=np.zeros(B, dtype=int), k=0, log_weight=np.zeros(B),
                        e4_1=e4_1, e4_2=e4_2, e4_crossed=np.zeros(B, dtype=bool),
                        budget_crossed=np.zeros(B, dtype=bool), budget_integral=np.zeros(B),
                        excluded=np.zeros(B, dtype=bool))


# ---------------------------------------------------------------------------
# pinned evolution (Foias-Prodi dynamics, no weights)
# ---------------------------------------------------------------------------

def _pinned_step(stepper: Stepper, u1: np.ndarray, u2: np.ndarray, z: np.ndarray, N: int):
    """One pinned step: u1 and u2 take the same step as one stacked batch,
    then u2's first N modes are assigned from u1's."""
    u1, u2 = stepper.step(np.stack([u1, u2]), z)
    u2[..., :N] = u1[..., :N]
    return u1, u2


def pinned_contraction_run(
    u1_0: np.ndarray,
    u2_0: np.ndarray,
    params: ModelParams,
    integ: IntegratorConfig,
    spec: NoiseSpec,
    N: int,
    T: float,
    seed: int,
    n_pairs: int,
    consts: FunctionalConstants | None = None,
):
    """Ensemble of pinned pairs; returns (times, J values (n_rec, n_pairs),
    excluded (n_pairs,)), J recorded every ``integ.record_every`` steps.

    u2_0's low modes are snapped to u1_0's on entry (exact pinning).  A pair
    whose u1 crosses the blow-up guard is frozen, so its J stays at the
    value of its last admitted state.
    """
    require_one_gamma(params, "pinned_contraction_run")
    consts = consts or FunctionalConstants()
    stepper = Stepper(params, integ, spec)
    rec_idx = record_schedule(int(round(T / integ.dt)), integ.record_every)
    u1 = np.broadcast_to(np.asarray(u1_0, complex), (n_pairs, params.M)).copy()
    u2 = np.broadcast_to(np.asarray(u2_0, complex), (n_pairs, params.M)).copy()
    u2[:, :N] = u1[:, :N]
    source = EnsembleNoise(seed, np.arange(n_pairs), spec.N)
    guard = BlowUpGuard(integ, u1)
    times = np.array(rec_idx, dtype=float) * integ.dt
    J = np.empty((len(rec_idx), n_pairs))
    J[0] = fn.j_functional(u1, u2, consts)
    nxt = 1
    for z, recorded in steps(source, rec_idx[-1], rec_idx):
        u1, u2 = guard.admit((u1, u2), _pinned_step(stepper, u1, u2, z, N))
        if recorded:
            J[nxt] = fn.j_functional(u1, u2, consts)
            nxt += 1
    return times, J, guard.excluded


# ---------------------------------------------------------------------------
# discrete Girsanov machinery
# ---------------------------------------------------------------------------

def _shift_logweight(delta: np.ndarray, dw: np.ndarray, lam: np.ndarray, dt: float):
    """Log RN factor for shifting lambda*dW by complex delta (low modes).

    The shift on dW itself is m = delta/lambda; each real component of dW is
    N(0, dt).  Returns the log-weight increment -<m, dW>/dt - |m|^2/(2 dt).
    """
    m = delta / lam
    quad = np.sum(np.abs(m) ** 2, axis=-1)
    inner = np.sum(m.real * dw.real + m.imag * dw.imag, axis=-1)
    return -inner / dt - quad / (2.0 * dt)


def _weighted_stepper(
    params: ModelParams, integ: IntegratorConfig, spec: NoiseSpec, N: int
) -> Stepper:
    """The exponential-Euler, em-noise Stepper the weighted couplings need."""
    require_one_gamma(params, "a weighted coupling run")
    if integ.scheme != "expeuler" or integ.noise_mode != "em":
        raise ValueError(
            "weighted coupling runs require scheme='expeuler', noise_mode='em'"
        )
    if spec.N != N:
        raise ValueError(
            "the pinned mode count must equal the number of forced modes "
            f"(got N={N}, forced={spec.N}); the Girsanov weights invert Q, "
            "lambda_k > 0, on exactly the pinned modes"
        )
    return Stepper(params, integ, spec)


def _weighted_step(stepper: Stepper, lin1, linw, logw, z, offset):
    """One step of a weighted pair from its drifts; returns the new (u1, w, logw).

    u1 takes the exponential-Euler step, its drift lin1 plus the noise; w
    takes it with the same noise, except that its low modes land exactly on
    u1's plus ``offset`` (the bridge's interpolation term, 0 on a coupled
    segment).  The noise moves the N forced modes alone, so w's other modes
    are its drift's.  The Gaussian shift of w's low-mode increments that
    does this is charged to the log weight.
    """
    N, dt = stepper.spec.N, stepper.integ.dt
    u1n, wn = stepper.add_noise(lin1.copy(), z), linw.copy()
    wn[..., :N] = u1n[..., :N] + offset
    delta = lin1[..., :N] - linw[..., :N] + offset
    dlw = _shift_logweight(delta, increments_from_normals(z, dt), stepper.spec.lambdas, dt)
    return u1n, wn, logw + dlw


def _admit_member(stepper: Stepper, a, h2, h1sq, consts: FunctionalConstants, more=True):
    """(Phi, drift) of an admitted pair member from one synthesis of it.

    (h2, h1sq) are fn.norms_h_h1_sq(a); the drift is the next step's
    Stepper.drift(a), None when no step follows (more=False).
    """
    field = fn.physical_field(a)
    return (fn.field_energy(field, h2, h1sq, consts)[-1],
            stepper.drift(a, field) if more else None)


def _weighted_run(stepper: Stepper, guard: BlowUpGuard, pair: tuple, drifts: tuple, e4: tuple,
                  offset, source: EnsembleNoise, n_steps: int, consts: FunctionalConstants,
                  record_steps=()):
    """The weighted pair-step loop of the bridge and the coupled segments.

    pair is (u1, w, log weight) and drifts the members' drifts.  Step
    `done` is _weighted_step with w's low modes offset(done) off u1's; the
    guard admits the new pair on u1; each admitted member is synthesised once
    for its Phi and its next drift (_admit_member), and the E_4 accumulators
    e4 take the two Phis, over dt or, for an excluded pair, over 0.  After
    each step yields (done, recorded, pair, ph1, ph2, dt_live).
    """
    dt = stepper.integ.dt
    for done, (z, recorded) in enumerate(steps(source, n_steps, record_steps), start=1):
        pair = guard.admit(pair, _weighted_step(stepper, *drifts, pair[2], z, offset(done)))
        del drifts  # spent; freed before the next drifts are built
        more = done < n_steps
        phis, drifts = zip(
            _admit_member(stepper, pair[0], guard.h2, guard.h1sq, consts, more),
            _admit_member(stepper, pair[1], *fn.norms_h_h1_sq(pair[1]), consts, more))
        dt_live = guard.hold(0.0, dt)  # an excluded pair's budgets stop integrating
        for acc, ph in zip(e4, phis):
            acc.push(ph, dt_live)
        yield done, recorded, pair, *phis, dt_live


@dataclass
class GirsanovReport:
    state: CoupledState
    success: np.ndarray
    log_weight: np.ndarray


def girsanov_attempt(
    u1: np.ndarray,
    u2: np.ndarray,
    cfg: CouplingConfig,
    params: ModelParams,
    integ: IntegratorConfig,
    spec: NoiseSpec,
    seed: int,
    n_attempts: int = 1,
    traj_ids: np.ndarray | None = None,
) -> GirsanovReport:
    """Low-mode coupling over [0, t1] via the interpolation bridge.

    The candidate second path follows X_hat(t) = P_N u1(t) + ((t1-t)/t1)
    P_N(u2-u1) exactly on the grid, its high modes slaved to X_hat, and the
    per-step Gaussian shift making that the true u2 dynamics is accumulated
    into the log weight.  Success = both running budgets E_4(t1) - C4 t1 <=
    Phi(u_i(0))^4 + rho1 sqrt(t1); the low modes agree at t1 by construction.
    """
    consts = cfg.consts
    stepper = _weighted_stepper(params, integ, spec, cfg.N)
    dt = integ.dt
    n_steps = max(1, int(round(cfg.t1 / dt)))
    if abs(n_steps * dt - cfg.t1) > 1e-12 * max(1.0, cfg.t1):
        raise ValueError("dt must divide t1 for the bridge to close exactly")

    u1 = np.broadcast_to(np.asarray(u1, complex), (n_attempts, params.M)).copy()
    # the candidate second path starts at u2 exactly
    w = np.broadcast_to(np.asarray(u2, complex), (n_attempts, params.M)).copy()
    delta0 = (w - u1)[..., : cfg.N]
    ids = traj_ids if traj_ids is not None else np.arange(n_attempts)
    source = EnsembleNoise(seed, ids, spec.N)

    guard = BlowUpGuard(integ, u1)
    phi1_0, lin1 = _admit_member(stepper, u1, guard.h2, guard.h1sq, consts)
    phi2_0, linw = _admit_member(stepper, w, *fn.norms_h_h1_sq(w), consts)
    e4_1 = fn.EnAccumulator(4, params.alpha)
    e4_2 = fn.EnAccumulator(4, params.alpha)
    e4_1.reset(phi1_0)
    e4_2.reset(phi2_0)

    pair = (u1, w, np.zeros(n_attempts))
    # exact bridge: X_hat(done) = P_N u1(done) + zeta(done) * delta0
    loop = _weighted_run(stepper, guard, pair, (lin1, linw), (e4_1, e4_2),
                         lambda done: (cfg.t1 - done * dt) / cfg.t1 * delta0,
                         source, n_steps, consts)
    del u1, w, lin1, linw  # the loop frees each once it is spent
    for _, _, pair, *_ in loop:
        pass
    u1, w, logw = pair

    allow_1 = phi1_0**4 + cfg.rho1 * np.sqrt(cfg.t1) + cfg.c4_hat * cfg.t1
    allow_2 = phi2_0**4 + cfg.rho1 * np.sqrt(cfg.t1) + cfg.c4_hat * cfg.t1
    success = (e4_1.value() <= allow_1) & (e4_2.value() <= allow_2) & ~guard.excluded

    state = make_coupled_state(u1, w, cfg, consts)
    state.e4_1.alpha = state.e4_2.alpha = params.alpha
    state.log_weight = logw
    state.excluded = guard.excluded
    return GirsanovReport(state=state, success=success, log_weight=logw)


@dataclass
class SegmentRecord:
    """Strided series recorded over one coupled segment (per pair): what
    ``recompute_decoupling`` replays."""

    times: np.ndarray
    e4_1: np.ndarray
    e4_2: np.ndarray
    budget_integral: np.ndarray


def coupled_segment(
    state: CoupledState,
    cfg: CouplingConfig,
    params: ModelParams,
    integ: IntegratorConfig,
    spec: NoiseSpec,
    seed: int,
    traj_ids: np.ndarray | None = None,
    record_every: int | None = None,
) -> tuple[CoupledState, SegmentRecord]:
    """Advance a coupled batch one segment of length T with the F2 correction.

    u2's low modes are assigned from u1's after every step; the per-step shift
    (the nonlinearity mismatch) accumulates into the log weight.  At the end
    the epoch conditions are evaluated: pairs whose E_4 left
    theta + beta^4 + C4(t - lT), or whose Girsanov budget integral passed
    rho2 e^{-alpha k T/4}, decouple (ell -> UNCOUPLED); the rest keep ell.
    Pairs excluded by the blow-up guard, in this segment or an earlier one,
    stay frozen and are marked in the returned state's ``excluded``.
    """
    consts = cfg.consts
    stepper = _weighted_stepper(params, integ, spec, cfg.N)
    dt = integ.dt
    n_steps = int(round(cfg.T / dt))
    B = state.u1.shape[0]
    ids = traj_ids if traj_ids is not None else np.arange(B)
    source = EnsembleNoise(seed, ids, spec.N)
    rec_idx = record_schedule(n_steps, record_every or max(1, n_steps // 64))

    out = copy.deepcopy(state)  # the input state, accumulators included, stays as it is
    out.e4_1.alpha = out.e4_2.alpha = params.alpha
    elapsed0 = state.k * cfg.T
    budget_cap = cfg.rho2 * np.exp(-0.25 * params.alpha * state.k * cfg.T)
    pair = (out.u1, out.u2, out.log_weight)
    guard = BlowUpGuard(integ, out.u1, excluded=out.excluded)

    n_rec = len(rec_idx)
    rec = SegmentRecord(
        times=state.k * cfg.T + np.array(rec_idx, dtype=float) * dt,
        e4_1=np.empty((n_rec, B)),
        e4_2=np.empty((n_rec, B)),
        budget_integral=np.empty((n_rec, B)),
    )

    def snap(i):
        rec.e4_1[i] = out.e4_1.value()
        rec.e4_2[i] = out.e4_2.value()
        rec.budget_integral[i] = out.budget_integral

    snap(0)
    nxt = 1
    for done, recorded, pair, ph1, ph2, dt_live in _weighted_run(
            stepper, guard, pair, (stepper.drift(pair[0]), stepper.drift(pair[1])),
            (out.e4_1, out.e4_2), lambda done: 0.0, source, n_steps, consts, rec_idx):
        out.budget_integral += ((1.0 + ph1**4 + ph2**4) * fn.norm_hr_sq(pair[0] - pair[1], 1.0)
                                * dt_live)
        cap = cfg.e4_budget(elapsed0 + done * dt)
        out.e4_crossed |= (out.e4_1.value() > cap) | (out.e4_2.value() > cap)
        out.budget_crossed |= out.budget_integral > budget_cap
        if recorded:
            snap(nxt)
            nxt += 1
    out.u1, out.u2, out.log_weight = pair
    out.ell[out.e4_crossed | out.budget_crossed] = UNCOUPLED
    out.k += 1
    out.excluded = guard.excluded
    if np.any(out.log_weight < -30.0):
        warnings.warn(
            f"{int(np.sum(out.log_weight < -30.0))} pair(s) below log-weight -30; "
            "importance weights are collapsing",
            RuntimeWarning,
        )
    return out, rec


def recompute_decoupling(
    rec: SegmentRecord,
    cfg: CouplingConfig,
    alpha: float,
    segment_k: int,
) -> np.ndarray:
    """Replay the decoupling decision from a saved record.

    With the record taken at full step resolution this reproduces the live
    flags exactly; the bookkeeping is a deterministic function of the
    trajectory.
    """
    cap = cfg.e4_budget(rec.times[1:])[:, None]  # live checks run post-step only
    e4_bad = np.any((rec.e4_1[1:] > cap) | (rec.e4_2[1:] > cap), axis=0)
    budget_cap = cfg.rho2 * np.exp(-0.25 * alpha * segment_k * cfg.T)
    bud_bad = np.any(rec.budget_integral[1:] > budget_cap, axis=0)
    return e4_bad | bud_bad


# ---------------------------------------------------------------------------
# pilot estimation of C4 and K41
# ---------------------------------------------------------------------------

@dataclass
class PilotConstants:
    c4_hat: float
    k41_hat: float


def estimate_pilot_constants(
    params: ModelParams,
    spec: NoiseSpec,
    consts: FunctionalConstants,
    seed: int,
    u0: np.ndarray | None = None,
    n_traj: int = 200,
    T: float = 20.0,
    dt: float = 2e-3,
    record_every: int = 25,
) -> PilotConstants:
    """Pilot ensemble estimates of the tail-bound constants, by
    ``stats.tail_fit`` of the per-step-Phi E_4 of the live trajectories.

    C4_hat is the fit's c_n_hat, the 99th percentile over trajectories and
    t in [1, T] of (E_4(t) - Phi(u0)^4)/t; K41_hat is its envelope over
    Phi(u0)^4 + 1, the smallest K making
    P(sup (E_4 - (C4-1)t) >= Phi(u0)^4 + rho sqrt(T)) <= K (Phi(u0)^4+1)/rho
    hold on the rho grid (1 when no frequency is positive).  Trajectories
    frozen by the blow-up guard are left out; with none live it raises.
    """
    u0 = np.zeros(params.M, complex) if u0 is None else np.asarray(u0, complex)
    integ = IntegratorConfig(dt=dt, scheme="expeuler", noise_mode="em",
                             record_every=record_every)
    rec = simulate_ensemble(
        u0, params, integ, spec, T, seed,
        traj_ids=np.arange(n_traj), consts=consts, track_phi_every_step=True,
    )
    if rec.excluded.all():
        raise ValueError(f"the blow-up guard froze all {n_traj} pilot trajectories")
    base = float(fn.phi(u0, consts)) ** 4
    fit = tail_fit(rec.energy.E4[:, ~rec.excluded], rec.times, base, T)
    k41 = fit.envelope_k / (base + 1.0) if fit.envelope_k > 0 else 1.0
    return PilotConstants(c4_hat=fit.c_n_hat, k41_hat=max(k41, 1e-6))
