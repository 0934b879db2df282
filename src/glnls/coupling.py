"""Executable coupling machinery: the Foias-Prodi pinned pair, the low-mode
Girsanov coupling on [0, t1], and drift-corrected coupled segments with
decoupling bookkeeping.

Pairs.  Every coupling run stores its pairs as one array ``pair`` of shape
(2, B, M), members u1 and u2 (the bridge's candidate path w), and steps,
synthesises and guards it as one batch, as ``stats.mixing_curve`` does;
each member keeps the bits of a call on it alone.  While a pair is coupled,
u2's first N modes are assigned from u1's after every step (``_pin``), so
P_N u1 = P_N u2 holds bit for bit, not to tolerance.

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
pair is synthesised once per step (``functionals.physical_field`` of the
stack): the field gives both members' ||u||_{L^4}^4 for Phi and, at once,
their drift for the next step, whose cubic term is one analysis of the
stack.  Phi's squared H and H^1 norms are the blow-up guard's, from one
|a|^2 of the stack.  A pair-step thus makes one synthesis and one analysis
call, and the loop carries the drift, not the larger field.

Exclusion.  One ``BlowUpGuard`` watches the stacked pair, and a pair falls
when either member crosses it (``models.either_member``).  It is excluded
from the step that crossed on: its members, log weight, E_4 budgets and
budget integral all keep their values from before that step.  Its frozen
weight is therefore the likelihood ratio of a path that stopped, not of
the continued dynamics, so weighted means are taken over the live pairs;
an excluded bridge attempt is never a success.
"""

from __future__ import annotations

import copy
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import functionals as fn
from .functionals import FunctionalConstants
from .models import (BlowUpGuard, IntegratorConfig, ModelParams, Stepper, either_member,
                     record_schedule, require_one_gamma, simulate_ensemble, steps)
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
    """Batch of coupled pairs, stacked: ``pair`` has shape (2, B, M), and
    member 1's first N modes equal member 0's bit for bit.

    ``ell`` is the coupling epoch index of the decoupling bookkeeping
    (UNCOUPLED when the pair has decoupled), ``k`` the number of segments
    run, ``log_weight`` the running Girsanov log density, ``e4`` both
    members' E_4 budgets over (2, B), ``excluded`` the pairs frozen by the
    blow-up guard.
    """

    pair: np.ndarray
    ell: np.ndarray
    k: int
    log_weight: np.ndarray
    e4: fn.EnAccumulator
    e4_crossed: np.ndarray
    budget_crossed: np.ndarray
    budget_integral: np.ndarray
    excluded: np.ndarray


def _pin(pair: np.ndarray, N: int, offset=0.0) -> None:
    """Assign member 1's first N modes from member 0's plus offset, in place."""
    pair[1, ..., :N] = pair[0, ..., :N] + offset


def make_coupled_state(
    u1: np.ndarray, u2: np.ndarray, cfg: CouplingConfig, consts: FunctionalConstants
) -> CoupledState:
    """Pair entering the coupled regime now: the stacked copies of u1 and u2,
    with u2's first N modes assigned from u1's; the caller's arrays are left
    as they are."""
    pair = np.stack([np.atleast_2d(np.asarray(u, dtype=np.complex128)) for u in (u1, u2)])
    _pin(pair, cfg.N)
    B = pair.shape[1]
    e4 = fn.EnAccumulator(4, alpha=np.nan)  # alpha set by the evolver
    e4.reset(fn.phi(pair, consts))
    return CoupledState(pair=pair, ell=np.zeros(B, dtype=int), k=0, log_weight=np.zeros(B),
                        e4=e4, e4_crossed=np.zeros(B, dtype=bool),
                        budget_crossed=np.zeros(B, dtype=bool), budget_integral=np.zeros(B),
                        excluded=np.zeros(B, dtype=bool))


# ---------------------------------------------------------------------------
# pinned evolution (Foias-Prodi dynamics, no weights)
# ---------------------------------------------------------------------------

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

    u2_0's low modes are snapped to u1_0's on entry (exact pinning).  Both
    members take the same Stepper.step as one stacked batch, then u2's low
    modes are assigned from u1's.  A pair whose u1 or u2 crosses the blow-up
    guard is frozen, so its J stays at the value of its last admitted state.
    """
    require_one_gamma(params, "pinned_contraction_run")
    consts = consts or FunctionalConstants()
    stepper = Stepper(params, integ, spec)
    rec_idx = record_schedule(int(round(T / integ.dt)), integ.record_every)
    pair = np.stack([np.broadcast_to(np.asarray(u, complex), (n_pairs, params.M))
                     for u in (u1_0, u2_0)])
    _pin(pair, N)
    source = EnsembleNoise(seed, np.arange(n_pairs), spec.N)
    guard = BlowUpGuard(integ, pair, link=either_member)
    times = np.array(rec_idx, dtype=float) * integ.dt
    J = np.empty((len(rec_idx), n_pairs))
    J[0] = fn.j_functional(*pair, consts)
    nxt = 1
    for z, recorded in steps(source, rec_idx[-1], rec_idx):
        new = stepper.step(pair, z)
        _pin(new, N)
        (pair,) = guard.admit((pair,), (new,))
        if recorded:
            J[nxt] = fn.j_functional(*pair, consts)
            nxt += 1
    return times, J, guard.excluded[0]


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


def _weighted_step(stepper: Stepper, drift: np.ndarray, z, offset):
    """One step of a weighted pair from its drift (2, B, M); returns the new
    pair and its log-weight increment.

    Both members take the exponential-Euler step, their drift plus the same
    noise, and then member 1's low modes land exactly on member 0's plus
    ``offset`` (the bridge's interpolation term, 0 on a coupled segment).
    The noise moves the N forced modes alone, so member 1's other modes are
    its drift's.  The Gaussian shift of member 1's low-mode increments that
    does this is charged to the log weight.
    """
    N, dt = stepper.spec.N, stepper.integ.dt
    pair = stepper.add_noise(drift.copy(), z)
    _pin(pair, N, offset)
    delta = drift[0, ..., :N] - drift[1, ..., :N] + offset
    return pair, _shift_logweight(delta, increments_from_normals(z, dt), stepper.spec.lambdas, dt)


def _weighted_run(stepper: Stepper, guard: BlowUpGuard, pair: np.ndarray, logw: np.ndarray,
                  drift: np.ndarray, e4: fn.EnAccumulator, offset, source: EnsembleNoise,
                  n_steps: int, consts: FunctionalConstants, record_steps=()):
    """The weighted pair-step loop of the bridge and the coupled segments.

    pair (2, B, M) has log weight logw (B,) and drift stepper.drift(pair).
    Step `done` is _weighted_step with member 1's low modes offset(done) off
    member 0's; the guard admits the new pair unless either member crosses.
    Each admitted pair is synthesised once for both Phis and its next drift,
    and the E_4 accumulator e4 (2, B) takes the Phis.  An excluded pair's
    log weight and E_4 integral hold by assignment, not by a zero step, which
    an overflowed Phi^4 would turn into NaN.  After each step yields (done,
    recorded, pair, logw, phis (2, B), live (B,)).
    """
    dt = stepper.integ.dt
    for done, (z, recorded) in enumerate(steps(source, n_steps, record_steps), start=1):
        new, dlw = _weighted_step(stepper, drift, z, offset(done))
        del drift  # spent; freed before the next drift is built
        (pair,) = guard.admit((pair,), (new,))
        live = ~guard.excluded[0]
        logw = np.where(live, logw + dlw, logw)
        field = fn.physical_field(pair)
        phis = fn.field_energy(field, guard.h2, guard.h1sq, consts)[-1]
        drift = stepper.drift(pair, field) if done < n_steps else None
        del field
        integral = e4.integral
        e4.push(phis, dt)  # a frozen pair's Phi, so its Phi^4 term, is unchanged
        e4.integral = np.where(live, e4.integral, integral)
        yield done, recorded, pair, logw, phis, live


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

    # the candidate second path starts at u2 exactly
    pair = np.stack([np.broadcast_to(np.asarray(u, complex), (n_attempts, params.M))
                     for u in (u1, u2)])
    delta0 = (pair[1] - pair[0])[..., : cfg.N]
    ids = traj_ids if traj_ids is not None else np.arange(n_attempts)
    source = EnsembleNoise(seed, ids, spec.N)

    guard = BlowUpGuard(integ, pair, link=either_member)
    field = fn.physical_field(pair)
    phi0 = fn.field_energy(field, guard.h2, guard.h1sq, consts)[-1]
    e4 = fn.EnAccumulator(4, params.alpha)
    e4.reset(phi0)

    # exact bridge: X_hat(done) = P_N u1(done) + zeta(done) * delta0
    loop = _weighted_run(stepper, guard, pair, np.zeros(n_attempts),
                         stepper.drift(pair, field), e4,
                         lambda done: (cfg.t1 - done * dt) / cfg.t1 * delta0,
                         source, n_steps, consts)
    del field  # the loop carries drifts, not fields
    for _, _, pair, logw, *_ in loop:
        pass

    allow = phi0**4 + cfg.rho1 * np.sqrt(cfg.t1) + cfg.c4_hat * cfg.t1
    success = (e4.value() <= allow).all(axis=0) & ~guard.excluded[0]

    state = make_coupled_state(pair[0], pair[1], cfg, consts)
    state.e4.alpha = params.alpha
    state.log_weight = logw
    state.excluded = guard.excluded[0]
    return GirsanovReport(state=state, success=success, log_weight=logw)


@dataclass
class SegmentRecord:
    """Strided series recorded over one coupled segment (per pair): what
    ``recompute_decoupling`` replays.  ``e4`` has shape (n_rec, 2, B), both
    members' E_4."""

    times: np.ndarray
    e4: np.ndarray
    budget_integral: np.ndarray


def coupled_segment(
    state: CoupledState,
    cfg: CouplingConfig,
    params: ModelParams,
    integ: IntegratorConfig,
    spec: NoiseSpec,
    seed: int,
    traj_ids: np.ndarray | None = None,
) -> tuple[CoupledState, SegmentRecord]:
    """Advance a coupled batch one segment of length T with the F2 correction.

    u2's low modes are assigned from u1's after every step; the per-step shift
    (the nonlinearity mismatch) accumulates into the log weight.  At the end
    the epoch conditions are evaluated: pairs whose E_4 left
    theta + beta^4 + C4(t - lT), or whose Girsanov budget integral passed
    rho2 e^{-alpha k T/4}, decouple (ell -> UNCOUPLED); the rest keep ell.
    Pairs excluded by the blow-up guard, in this segment or an earlier one,
    stay frozen and are marked in the returned state's ``excluded``.  The
    record is taken every ``integ.record_every`` steps.
    """
    consts = cfg.consts
    stepper = _weighted_stepper(params, integ, spec, cfg.N)
    dt = integ.dt
    n_steps = int(round(cfg.T / dt))
    B = state.pair.shape[1]
    ids = traj_ids if traj_ids is not None else np.arange(B)
    source = EnsembleNoise(seed, ids, spec.N)
    rec_idx = record_schedule(n_steps, integ.record_every)

    out = copy.deepcopy(state)  # the input state, accumulator included, stays as it is
    out.e4.alpha = params.alpha
    elapsed0 = state.k * cfg.T
    budget_cap = cfg.rho2 * np.exp(-0.25 * params.alpha * state.k * cfg.T)
    guard = BlowUpGuard(integ, out.pair, link=either_member, excluded=out.excluded)

    n_rec = len(rec_idx)
    rec = SegmentRecord(
        times=state.k * cfg.T + np.array(rec_idx, dtype=float) * dt,
        e4=np.empty((n_rec, 2, B)),
        budget_integral=np.empty((n_rec, B)),
    )

    def snap(i):
        rec.e4[i] = out.e4.value()
        rec.budget_integral[i] = out.budget_integral

    snap(0)
    nxt = 1
    loop = _weighted_run(stepper, guard, out.pair, out.log_weight, stepper.drift(out.pair),
                         out.e4, lambda done: 0.0, source, n_steps, consts, rec_idx)
    for done, recorded, out.pair, out.log_weight, phis, live in loop:
        integrand = ((1.0 + phis[0]**4 + phis[1]**4)
                     * fn.norm_hr_sq(out.pair[0] - out.pair[1], 1.0))
        out.budget_integral = np.where(live, out.budget_integral + integrand * dt,
                                       out.budget_integral)
        out.e4_crossed |= (out.e4.value() > cfg.e4_budget(elapsed0 + done * dt)).any(axis=0)
        out.budget_crossed |= out.budget_integral > budget_cap
        if recorded:
            snap(nxt)
            nxt += 1
    out.ell[out.e4_crossed | out.budget_crossed] = UNCOUPLED
    out.k += 1
    out.excluded = guard.excluded[0]
    collapsed = (out.log_weight < -30.0) & ~out.excluded  # frozen pairs weigh nothing
    if collapsed.any():
        warnings.warn(
            f"{int(collapsed.sum())} live pair(s) below log-weight -30; "
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
    cap = cfg.e4_budget(rec.times[1:])[:, None, None]  # live checks run post-step only
    e4_bad = np.any(rec.e4[1:] > cap, axis=(0, 1))
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
