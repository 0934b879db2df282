"""Ensemble statistics: empirical measures, exact optimal transport under the
truncated ground costs, dual Kantorovich lower bounds, and the experiment
drivers (mixing curves, inviscid curves, the tail experiment,
invariant-measure sampling) with least-squares rate fits.  The Ito energy
balance and the exponential moments have no driver here: acceptance
checks 4 and 9 form them from ``models.simulate_ensemble``'s records.

Optimal transport is solved exactly at every sample size, and every value
carries a primal-dual certificate gap.  A uniform pair of equal size is an
assignment problem (Birkhoff), solved at any size by the assignment solver;
its dual potentials come from shortest paths on the reduced costs of the
optimal permutation (``_assignment_duals``).  A weighted or unequal pair is
handed to HiGHS as the transport LP, whose equality-constraint marginals give
the row potentials.  Both take the column potentials v_j = min_i (C_ij - u_i),
so the potentials are dual-feasible and the gap is at least the value's
excess over the optimum.  scipy.optimize (HiGHS and the assignment solver)
and scipy.sparse are imported by the call that solves, so the drivers that
solve no transport problem never load them.

The costs come from the differences a_i - b_j themselves (``pairwise_hk``),
with no BLAS call: a measure is at distance exactly 0 from itself in every
ground cost, a small cost keeps its full relative precision, and an entry is
the same whichever other samples share its matrix.

Dual bounds use observable families with certified Lipschitz constants under
the chosen ground cost: distance caps u -> min(||u - v_j||_{H^k}, 1) around
reference points, one ``pairwise_hk`` block per measure, and clipped
spectral coordinates, all 1-Lipschitz for d_k (and 3^{-1/2}-Lipschitz for
d_0^xi since 1 + e^x + e^y >= 3).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

import numpy as np

from . import functionals as fn
from .functionals import FunctionalConstants
from .models import (BlowUpGuard, IntegratorConfig, ModelParams, Stepper, either_member,
                     record_schedule, run, simulate_ensemble)
from .noise import EnsembleNoise, NoiseSpec
from .spectral import eigenvalues

GROUND_COSTS = ("d0", "d1", "d0xi")


@dataclass
class EmpiricalMeasure:
    """Weighted finite sample of spectral fields."""

    samples: np.ndarray
    weights: np.ndarray | None = None

    def __post_init__(self):
        self.samples = np.atleast_2d(np.asarray(self.samples, dtype=np.complex128))
        n = self.samples.shape[0]
        if self.weights is None:
            self.weights = np.full(n, 1.0 / n)
        else:
            self.weights = np.asarray(self.weights, dtype=float)
            if self.weights.shape != (n,):
                raise ValueError("one weight per sample required")
            if np.any(self.weights < 0):
                raise ValueError("weights must be nonnegative")
            if abs(self.weights.sum() - 1.0) > 1e-12:
                raise ValueError("weights must sum to 1 within 1e-12")

    @property
    def n(self) -> int:
        return self.samples.shape[0]

    def is_uniform(self) -> bool:
        return bool(np.allclose(self.weights, 1.0 / self.n, atol=1e-14))


# ---------------------------------------------------------------------------
# ground costs
# ---------------------------------------------------------------------------

def pairwise_hk(A: np.ndarray, B: np.ndarray, k: int) -> np.ndarray:
    """Matrix of ||a_i - b_j||_{H^k} = sqrt(sum_m w_m |a_im - b_jm|^2), w = alpha^k.

    Formed from the differences themselves, one column at a time in a
    single (len(A), M) buffer.  The Gram expansion
    ||a||^2 + ||b||^2 - 2 Re<a, b> cancels to rounding for nearby samples
    (d0 costs of 3e-8 between coincident ones, which put a floor of 1e-4
    under W_{d0xi}), and its cross term is a BLAS product.  Here coincident
    samples cost exactly 0, and an entry depends only on its two rows: the
    same for any other rows of A or B, and symmetric.
    """
    A, B = np.asarray(A, dtype=np.complex128), np.asarray(B, dtype=np.complex128)
    w = eigenvalues(A.shape[-1]) ** k if k else None
    out = np.empty((A.shape[0], B.shape[0]))
    d = np.empty(A.shape, dtype=np.complex128)
    sq = d.view(np.float64)               # (n, 2M): the parts of each difference
    dens = sq[:, ::2]                     # |a_im - b_jm|^2, written in place
    for j, b in enumerate(B):
        np.subtract(A, b, out=d)
        np.multiply(sq, sq, out=sq)
        np.add(dens, sq[:, 1::2], out=dens)
        if w is not None:
            np.multiply(dens, w, out=dens)
        np.sqrt(dens.sum(axis=-1), out=out[:, j])
    return out


def cost_matrix(
    emp_a: EmpiricalMeasure,
    emp_b: EmpiricalMeasure,
    ground: str,
    xi: float | None = None,
) -> np.ndarray:
    if ground == "d0":
        return np.minimum(pairwise_hk(emp_a.samples, emp_b.samples, 0), 1.0)
    if ground == "d1":
        return np.minimum(pairwise_hk(emp_a.samples, emp_b.samples, 1), 1.0)
    if ground == "d0xi":
        if xi is None:
            raise ValueError("d0xi needs xi")
        d0 = np.minimum(pairwise_hk(emp_a.samples, emp_b.samples, 0), 1.0)
        ea, fa = fn.exp_xi_weight(emp_a.samples, xi)
        eb, fb = fn.exp_xi_weight(emp_b.samples, xi)
        if fa or fb:
            raise fn.ExponentialOverflowError("xi exponent capped inside cost matrix")
        return np.sqrt(d0 * (1.0 + ea[:, None] + eb[None, :]))
    raise ValueError(f"unknown ground cost {ground!r}; options {GROUND_COSTS}")


# ---------------------------------------------------------------------------
# exact optimal transport
# ---------------------------------------------------------------------------

@dataclass
class OTResult:
    value: float
    gap: float  # |primal - dual| of the certificate's dual-feasible potentials
    plan: np.ndarray | None = None  # the LP's plan; None from the assignment solver


def _column_potentials(C: np.ndarray, u: np.ndarray) -> np.ndarray:
    """v_j = min_i (C_ij - u_i): the largest v with (u, v) dual-feasible."""
    return (C - u[:, None]).min(axis=0)


def _solve_lp(C: np.ndarray, wa: np.ndarray, wb: np.ndarray) -> OTResult:
    import scipy.sparse as sp
    from scipy.optimize import linprog

    n, m = C.shape
    # equality rows: n row sums then m column sums, last column row dropped;
    # plan entry (i, j) is variable i * m + j
    ri = np.concatenate([np.repeat(np.arange(n), m), np.repeat(n + np.arange(m - 1), n)])
    ci = np.concatenate([np.arange(n * m),
                         np.tile(np.arange(n) * m, m - 1) + np.repeat(np.arange(m - 1), n)])
    A = sp.csr_matrix((np.ones(ri.size), (ri, ci)), shape=(n + m - 1, n * m))
    b = np.concatenate([wa, wb[:-1]])
    res = linprog(C.ravel(), A_eq=A, b_eq=b, bounds=(0, None), method="highs")
    if res.status != 0:
        raise RuntimeError(f"transport LP failed: {res.message}")
    u = np.asarray(res.eqlin.marginals)[:n]  # HiGHS's column duals may be infeasible
    dual_value = float(wa @ u + wb @ _column_potentials(C, u))
    return OTResult(value=float(res.fun), gap=abs(float(res.fun) - dual_value),
                    plan=res.x.reshape(n, m))


def _assignment_duals(C: np.ndarray, cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dual-feasible potentials (u, v), u_i + v_j <= C_ij, for the assignment
    i -> cols[i] of the square cost C; tight on it when it is optimal.

    v is the shortest-path distance to each column on the reduced costs
    W[j, l] = C[i, l] - C[i, j] of the row i assigned to column j (a path
    j -> l reassigns that row), by vectorised Bellman-Ford sweeps from
    v = 0, at most n of them; an optimal assignment has no negative cycle,
    so they settle.  u_i = C[i, cols[i]] - v[cols[i]], and v is then lowered
    to min_i (C_ij - u_i), which makes (u, v) feasible even when the sweeps
    did not settle: for a non-optimal assignment the dual value falls short
    of its cost by at least its excess over the optimum.
    """
    n = len(cols)
    own = C[np.arange(n), cols]
    rows = np.argsort(cols)  # the row assigned to each column
    W = C[rows] - own[rows, None]
    v = np.zeros(n)
    for _ in range(n):
        nxt = np.minimum(v, (v[:, None] + W).min(axis=0))
        if np.array_equal(nxt, v):
            break
        v = nxt
    u = own - v[cols]
    return u, _column_potentials(C, u)


def _solve_assignment(C: np.ndarray) -> OTResult:
    """Exact OT between uniform measures of equal size: the optimal
    permutation, with the certificate of ``_assignment_duals``."""
    from scipy.optimize import linear_sum_assignment

    ri, cj = linear_sum_assignment(C)
    value = float(C[ri, cj].mean())
    u, v = _assignment_duals(C, cj)
    return OTResult(value=value, gap=abs(value - float(u.mean() + v.mean())))


def wasserstein(
    emp_a: EmpiricalMeasure,
    emp_b: EmpiricalMeasure,
    ground: str = "d0",
    xi: float | None = None,
) -> OTResult:
    """Exact transport cost between two weighted empirical measures, with its
    primal-dual certificate gap.

    A uniform pair of equal size goes to the assignment solver, every other
    pair to the LP.
    """
    C = cost_matrix(emp_a, emp_b, ground, xi)
    if emp_a.n == emp_b.n and emp_a.is_uniform() and emp_b.is_uniform():
        return _solve_assignment(C)
    return _solve_lp(C, emp_a.weights, emp_b.weights)


def wasserstein_bruteforce(
    emp_a: EmpiricalMeasure, emp_b: EmpiricalMeasure, ground: str = "d0",
    xi: float | None = None,
) -> float:
    """Enumeration oracle: exact OT by expanding to unit atoms and trying
    every assignment.  Weights must be integer multiples of a common 1/L
    with L <= 10; independent of the LP route.
    """
    def expand(emp: EmpiricalMeasure, denom: int):
        c = emp.weights * denom
        if not np.allclose(c, np.round(c), atol=1e-9):
            return None
        counts = np.round(c).astype(int)
        if counts.sum() != denom:
            return None
        return np.repeat(np.arange(emp.n), counts)

    ia = ib = None
    for denom in range(1, 11):
        ia, ib = expand(emp_a, denom), expand(emp_b, denom)
        if ia is not None and ib is not None:
            break
    if ia is None or ib is None:
        raise ValueError("weights are not small common rationals; cannot enumerate")
    C = cost_matrix(emp_a, emp_b, ground, xi)
    L = len(ia)
    best = np.inf
    for perm in itertools.permutations(range(L)):
        tot = sum(C[ia[i], ib[perm[i]]] for i in range(L))
        if tot < best:
            best = tot
    return float(best / L)


# ---------------------------------------------------------------------------
# dual lower bounds
# ---------------------------------------------------------------------------

DUAL_REFS = 48  # reference points of the dual bound's distance caps


def dual_lower_bound(
    emp_a: EmpiricalMeasure,
    emp_b: EmpiricalMeasure,
    ground: str = "d0",
) -> float:
    """max_f |mean_A f - mean_B f| / Lip(f) over a certified family.

    The family: distance caps u -> min(||u - v||_{H^k}, 1) around up to
    DUAL_REFS reference points v spread through the pooled samples (k = 1
    for d1, else 0), evaluated as one ``pairwise_hk`` block per measure,
    and the real and imaginary parts of the first six modes clipped to
    [-0.5, 0.5].  Each is 1-Lipschitz for d_k and 3^{-1/2}-Lipschitz for
    d_0^xi, whatever xi.  Never exceeds the primal transport cost (one-sided Kantorovich
    bound; for the distance-like d_0^xi only this direction holds).
    """
    pooled = np.concatenate([emp_a.samples, emp_b.samples])
    refs = pooled[:: max(1, len(pooled) // DUAL_REFS)][:DUAL_REFS]
    hk = 1 if ground == "d1" else 0
    lip = 1.0 / np.sqrt(3.0) if ground == "d0xi" else 1.0

    def means(emp: EmpiricalMeasure) -> np.ndarray:
        caps = np.minimum(pairwise_hk(emp.samples, refs, hk), 1.0)
        low = emp.samples[:, :6]
        coords = np.clip(np.concatenate([low.real, low.imag], axis=1), -0.5, 0.5)
        return emp.weights @ np.concatenate([caps, coords], axis=1)

    return float(np.max(np.abs(means(emp_a) - means(emp_b)))) / lip


# ---------------------------------------------------------------------------
# rate fits
# ---------------------------------------------------------------------------

@dataclass
class RateFit:
    """OLS fit on log-transformed data; the residual is always reported."""

    model: str  # 'power-gamma' | 'exponential'
    exponent: float
    residual: float      # rms residual in the transformed coordinates
    r_squared: float
    half_width: float    # ~95% half-width of the exponent

    def summary(self) -> str:
        return (
            f"{self.model}: exponent {self.exponent:+.4f} +- {self.half_width:.4f}, "
            f"R^2 {self.r_squared:.4f}, residual {self.residual:.3g}"
        )


def _ols(x: np.ndarray, y: np.ndarray, model: str) -> RateFit:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if len(x) < 3:
        raise ValueError("need at least 3 points for a rate fit")
    A = np.column_stack([x, np.ones_like(x)])
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    resid = y - A @ coef
    rms = float(np.sqrt(np.mean(resid**2)))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid**2)) / ss_tot if ss_tot > 0 else 1.0
    dof = max(len(x) - 2, 1)
    sxx = float(np.sum((x - x.mean()) ** 2))
    se = np.sqrt(np.sum(resid**2) / dof / sxx) if sxx > 0 else np.inf
    return RateFit(model, float(coef[0]), rms, r2, 1.96 * float(se))


def fit_power_law(x: np.ndarray, y: np.ndarray) -> RateFit:
    """Slope of log y against log x (of the error against gamma)."""
    m = (np.asarray(x) > 0) & (np.asarray(y) > 0)
    return _ols(np.log(np.asarray(x)[m]), np.log(np.asarray(y)[m]), "power-gamma")


def fit_exponential(t: np.ndarray, y: np.ndarray) -> RateFit:
    """log y = c - rate * t; exponent reported as the decay rate."""
    m = np.asarray(y) > 0
    f = _ols(np.asarray(t)[m], np.log(np.asarray(y)[m]), "exponential")
    return replace(f, exponent=-f.exponent)


# ---------------------------------------------------------------------------
# experiment drivers
# ---------------------------------------------------------------------------

@dataclass
class MixingCurve:
    t: np.ndarray
    upper_d1: np.ndarray           # synchronous-coupling E[d1]
    upper_d0: np.ndarray
    dual_t: np.ndarray
    dual_lower: np.ndarray
    fit: RateFit | None
    excluded: np.ndarray           # (ensemble,) pairs frozen by the blow-up guard


def mixing_curve(
    u1: np.ndarray,
    u2: np.ndarray,
    params: ModelParams,
    spec: NoiseSpec,
    t_grid: np.ndarray,
    ensemble_size: int,
    seed: int,
    integ: IntegratorConfig | None = None,
    dual_checkpoints: int = 4,
) -> MixingCurve | list[MixingCurve]:
    """Synchronous-coupling upper estimate of W_{d1}(P_t delta_u1, P_t delta_u2)
    together with the dual lower bound on the same marginal ensembles.

    Every gamma of ``params.gammas`` is stepped in one (2, G, E, M) batch,
    row i of each member and gamma block on trajectory i's normals; a gamma
    tuple returns one curve per entry, each that of a call with its gamma alone.

    A pair is excluded once either member crosses the blow-up guard (on a
    step between records, once either member's carried state does; see the
    ``models`` docstring), which excludes no pair of another gamma block;
    the means and the dual bound are taken over the live pairs (NaN when
    none is left).
    """
    integ = integ or IntegratorConfig(dt=5e-3)
    rec_steps = np.unique(np.round(np.asarray(t_grid, dtype=float) / integ.dt).astype(int))
    gammas = params.gammas
    stepper = Stepper(replace(params, gamma=gammas), integ, spec)
    source = EnsembleNoise(seed, np.arange(ensemble_size), spec.N)
    shape = (len(gammas), ensemble_size, params.M)  # per member: gamma blocks of E rows
    pair = np.stack([np.broadcast_to(np.asarray(u, complex), shape) for u in (u1, u2)])
    guard = BlowUpGuard(integ, pair, link=either_member)
    dual_steps = set(rec_steps[np.linspace(
        1, len(rec_steps) - 1, min(dual_checkpoints, max(len(rec_steps) - 1, 0))).astype(int)])
    times = []
    obs = [([], [], [], []) for _ in gammas]  # per block: upper_d1, upper_d0, dual t, dual

    def observe(done):
        times.append(done * integ.dt)
        h2, h1sq = fn.norms_h_h1_sq(pair[0] - pair[1])  # d_0 and d_1 of one difference
        for ok, d1, d0, m1, m2, (up1, up0, dual_t, dual_v) in zip(
                ~guard.excluded[0], np.minimum(np.sqrt(h1sq), 1.0),
                np.minimum(np.sqrt(h2), 1.0), *pair, obs):
            up1.append(float(np.mean(d1[ok])) if ok.any() else np.nan)
            up0.append(float(np.mean(d0[ok])) if ok.any() else np.nan)
            if done in dual_steps and ok.any():
                dual_t.append(done * integ.dt)
                dual_v.append(dual_lower_bound(EmpiricalMeasure(m1[ok]),
                                               EmpiricalMeasure(m2[ok]), "d1"))

    observe(0)
    loop = run(stepper, guard, pair, source, int(rec_steps.max(initial=0)), rec_steps.tolist())
    for done, (recorded, pair, _) in enumerate(loop, start=1):
        if recorded:
            observe(done)

    times = np.asarray(times)
    curves = []
    for (up1, up0, dual_t, dual_v), excluded in zip(obs, guard.excluded[0]):
        up1 = np.asarray(up1)
        window = (up1 < 0.5) & (up1 > 1e-8)
        curves.append(MixingCurve(
            t=times, upper_d1=up1, upper_d0=np.asarray(up0),
            dual_t=np.asarray(dual_t), dual_lower=np.asarray(dual_v),
            fit=fit_exponential(times[window], up1[window]) if window.sum() >= 3 else None,
            excluded=excluded,
        ))
    return curves if isinstance(params.gamma, tuple) else curves[0]


@dataclass
class InviscidCurve:
    gammas: np.ndarray
    mean_sup_err: np.ndarray      # E sup_t ||u^gamma - u||_H
    mean_sup_err_sq: np.ndarray   # E sup_t ||.||_H^2 (the fitted quantity)
    se_sup_err_sq: np.ndarray
    excluded: np.ndarray
    fit: RateFit | None


def inviscid_curve(
    u0: np.ndarray,
    gamma_list,
    T: float,
    ensemble_size: int,
    seed: int,
    alpha: float,
    M: int,
    spec: NoiseSpec,
    truncated: bool = False,
    R: float | None = None,
    dt: float = 5e-4,
    blowup_guard: float = IntegratorConfig.blowup_guard,
) -> InviscidCurve:
    """Shared-noise comparison of u^gamma with the gamma = 0 dynamics.

    Every u^gamma and the reference u^0 are driven by the identical Wiener
    increments ("em" noise mode), one Strang run of a (1 + G, E, M) batch on
    the gamma block axis (``models``): block 0 is the gamma = 0 reference,
    block 1 + g the g-th distinct positive gamma.  A gamma = 0 entry of the
    list reads the reference block, so its error is exactly 0; repeated
    gammas share a block.

    Pair (gamma, i) is excluded once row i of its block or of the reference
    block has an H^1 norm above ``blowup_guard`` or not finite; its rows are no
    longer updated and it is left out of the means (``excluded`` counts
    them).  Fits log E[sup ||v||_H^2] against log gamma over the positive
    gammas.
    """
    gamma_list = np.asarray(sorted(gamma_list), dtype=float)
    integ = IntegratorConfig(dt=dt, scheme="strang", noise_mode="em",
                             blowup_guard=blowup_guard)
    # the blocks' gammas: 0 then the distinct positive ones; gamma_list[i] reads block[i]
    levels, block = np.unique(np.r_[0.0, gamma_list], return_inverse=True)
    block = block[1:]
    stepper = Stepper(ModelParams(gamma=tuple(levels), alpha=alpha, M=M,
                                  truncation=R if truncated else None), integ, spec)
    E = ensemble_size
    source = EnsembleNoise(seed, np.arange(E), spec.N)
    a = np.broadcast_to(np.asarray(u0, complex), (len(levels), E, M)).copy()
    sup = np.zeros((len(levels), E))  # block 0 compares the reference with itself
    # a pair falls with its reference row
    guard = BlowUpGuard(integ, a, link=lambda ex: ex | ex[0])
    for _, a, _ in run(stepper, guard, a, source, int(round(T / dt)), every_step=True):
        sup = np.maximum(sup, fn.norm_hr_sq(a - a[0], 0.0))
    bad = guard.excluded

    def summary(v):  # of one gamma's live pairs; a gamma with none has no estimate
        if not v.size:
            return np.nan, np.nan, np.nan
        return np.mean(np.sqrt(v)), np.mean(v), np.std(v) / np.sqrt(v.size)

    excluded = bad[block].sum(axis=1)
    mean_err, mean_sq, se_sq = np.reshape([summary(sup[b, ~bad[b]]) for b in block], (-1, 3)).T
    fit = None
    pos = (gamma_list > 0) & (excluded < E)
    if pos.sum() >= 3:
        fit = fit_power_law(gamma_list[pos], mean_sq[pos])
    return InviscidCurve(
        gammas=gamma_list, mean_sup_err=mean_err, mean_sup_err_sq=mean_sq,
        se_sup_err_sq=se_sq, excluded=excluded, fit=fit,
    )


@dataclass
class TailReport:
    rho: np.ndarray
    frequency: np.ndarray
    envelope_k: float
    p: float
    c_n_hat: float
    excluded: int = 0  # trajectories frozen by the blow-up guard


def tail_fit(en: np.ndarray, t: np.ndarray, base: float, T: float,
             rho_grid: np.ndarray | None = None, p: float = 1.0) -> TailReport:
    """Fit of the tail bound P(sup_t (E_n - (C_n - 1) t) >= base + rho sqrt(T))
    <= K / rho^p to E_n records ``en`` (n_rec, B) at times ``t`` (base is
    Phi(u0)^n).

    c_n_hat is the 0.99 quantile over trajectories and t >= 1 of
    (E_n(t) - base)/t, so t must reach 1.  The frequencies are taken on
    ``rho_grid``, by default 12 geometric points from 1e-3 hi to hi over
    sqrt(T), hi the 0.999 quantile of the positive sup deviations.  K is
    the envelope max freq rho^p (0 when no frequency is positive).  With no
    trajectory c_n_hat and the frequencies are NaN.
    """
    if t[-1] < 1.0:
        raise ValueError(f"c_n_hat is fitted over t >= 1, but the run ends at t = {t[-1]:g}")
    late = t >= 1.0
    c_n = float(np.quantile((en[late] - base) / t[late][:, None], 0.99)) if en.size else np.nan
    sup_dev = np.max(en - (c_n - 1.0) * t[:, None], axis=0) - base
    if rho_grid is None:
        pos = sup_dev[sup_dev > 0]
        hi = np.quantile(pos, 0.999) if pos.size else 1.0
        rho_grid = np.geomspace(max(hi * 1e-3, 1e-12), max(hi, 1e-9), 12) / np.sqrt(T)
    rho_grid = np.asarray(rho_grid, dtype=float)
    freq = np.array([np.mean(sup_dev >= r * np.sqrt(T)) if en.size else np.nan
                     for r in rho_grid])
    pos = freq > 0
    k_hat = float(np.max(freq[pos] * rho_grid[pos] ** p)) if pos.any() else 0.0
    return TailReport(rho=rho_grid, frequency=freq, envelope_k=k_hat, p=p, c_n_hat=c_n)


def tail_experiment(
    params: ModelParams,
    spec: NoiseSpec,
    u0: np.ndarray,
    n: int,
    p: float,
    T: float,
    rho_grid: np.ndarray | None = None,
    ensemble_size: int = 256,
    seed: int = 0,
    dt: float = 2e-3,
    record_every: int = 10,
    consts: FunctionalConstants | None = None,
    blowup_guard: float = IntegratorConfig.blowup_guard,
) -> TailReport:
    """Frequencies of sup_{[0,T]} (E_n(t) - (C_n - 1) t) >= Phi(u0)^n + rho sqrt(T)
    against rho, overlaid with the fitted K/rho^p envelope (``tail_fit``).

    E_n accumulates the recorded Phi, clamped at 0, of the trajectories the
    blow-up guard left live; the frozen ones are left out of the fit.  With
    no ``rho_grid`` the grid spans the run's own deviations.
    """
    consts = consts or FunctionalConstants()
    integ = IntegratorConfig(dt=dt, record_every=record_every, blowup_guard=blowup_guard)
    rec = simulate_ensemble(
        u0, params, integ, spec, T, seed,
        traj_ids=np.arange(ensemble_size), consts=consts,
    )
    phis = np.maximum(rec.energy.phi[:, ~rec.excluded], 0.0)
    acc = fn.EnAccumulator(n, params.alpha)
    acc.reset(phis[0])  # pushed as simulate_ensemble does: n = 4 gives its E4 bits
    gaps = np.diff(record_schedule(int(round(T / dt)), record_every))
    en = np.array([acc.value()] + [acc.push(ph, integ.dt * g) for ph, g in zip(phis[1:], gaps)])
    phi0 = float(fn.phi(np.asarray(u0, complex), consts))
    return replace(tail_fit(en, rec.times, phi0**n, T, rho_grid, p),
                   excluded=int(rec.excluded.sum()))


def invariant_measure_sample(
    params: ModelParams,
    spec: NoiseSpec,
    burn_in: float,
    n_samples: int,
    thinning: float,
    seed: int,
    dt: float = 5e-3,
    consts: FunctionalConstants | None = None,
    u0: np.ndarray | None = None,
    blowup_guard: float = IntegratorConfig.blowup_guard,
) -> tuple[EmpiricalMeasure, dict]:
    """Approximate draws from the invariant measure by a thinned long run.

    Returns the empirical measure and a diagnostics dict with the Phi mean
    of the samples and whether the blow-up guard excluded the chain.  The
    chain is one ``models.simulate_ensemble`` run recording every stride
    from step 0, so it forms its Strang state, and Phi, at each multiple of
    the stride (see the ``models`` docstring); the samples are the records
    after the burn-in, and the run ends on the last.  It has no per-step
    Phi to average.
    """
    if burn_in <= 0 or n_samples < 1 or thinning <= 0:
        raise ValueError("need burn_in > 0, n_samples >= 1, thinning > 0")
    stride = max(1, int(round(thinning / dt)))
    first = int(round(burn_in / dt)) // stride + 1  # the first record past the burn-in
    integ = IntegratorConfig(dt=dt, record_every=stride, blowup_guard=blowup_guard)
    rec = simulate_ensemble(np.zeros(params.M, complex) if u0 is None else u0, params, integ,
                            spec, (first + n_samples - 1) * stride * dt, seed, consts=consts,
                            record_states=True)
    diag = {
        "phi_sample_mean": float(np.mean(rec.energy.phi[first:, 0])),
        "n_samples": n_samples,
        "thinning": stride * dt,
        "excluded": bool(rec.excluded[0]),
    }
    return EmpiricalMeasure(rec.states[first:, 0]), diag
