"""The validation suite: ten checks with pinned parameters, tolerances and
seeds, each returning a pass/fail verdict with the measured numbers.

These are the acceptance gates for the laboratory: exact conservation laws
against closed-form decay, the Gaussian oracle for the linear process, the
mean-energy identity inside Monte Carlo bands, the two desk-reproducible
quantitative rates (truncated inviscid slope, Foias-Prodi contraction),
mixing-uniformity and exponential-moment probes, optimal-transport
correctness against enumeration, and the Girsanov coupling success bound.

Checks 3, 4 and 9 call ``models.simulate_ensemble`` and form their
estimates from its records: the per-mode second moments of the recorded
states (3), the Ito residuals from H and the mass integrals (4), and the
capped means of e^{xi H} (9).

Monte Carlo checks use fixed seeds; their estimators are unbiased and the
bands are 3-standard-error, so any seed passes with ~99% probability per
band and the pinned seeds keep the suite deterministic.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import coupling as cp
from . import functionals as fn
from . import models as md
from . import noise as nz
from . import stats as st
from .spectral import basis_mode


@dataclass
class CheckResult:
    index: int
    name: str
    passed: bool
    detail: str
    elapsed: float = 0.0

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        return f"[{tag}] {self.index:2d} {self.name}: {self.detail} ({self.elapsed:.1f}s)"


def _result(index, name, passed, detail, t0) -> CheckResult:
    return CheckResult(index, name, bool(passed), detail, time.perf_counter() - t0)


# 1 ------------------------------------------------------------------------

def check_mass_law() -> CheckResult:
    """gamma=0, Q=0: ||u(t)||_H follows e^{-alpha t} ||u0||_H to 1e-6."""
    t0 = time.perf_counter()
    M, alpha = 64, 0.5
    u0 = 0.5 * basis_mode(M, 1) + 0.3 * basis_mode(M, 2)
    params = md.ModelParams(gamma=0.0, alpha=alpha, M=M)
    integ = md.IntegratorConfig(dt=1e-4, scheme="strang", record_every=100)
    rec = md.simulate_ensemble(u0, params, integ, nz.NoiseSpec(np.zeros(0)), 2.0, seed=101)
    h = np.sqrt(rec.energy.H[:, 0])
    h0 = np.sqrt(fn.norm_hr_sq(u0, 0.0))
    target = np.exp(-alpha * rec.times) * h0
    err = float(np.max(np.abs(h - target)) / h0)
    return _result(1, "exact mass law", err <= 1e-6,
                   f"max rel deviation {err:.3e} (tol 1e-6)", t0)


# 2 ------------------------------------------------------------------------

def check_hamiltonian() -> CheckResult:
    """Deterministic NLS: H1^2 - L4^4/2 conserved; halving dt helps >= 3x."""
    t0 = time.perf_counter()
    M = 64
    u0 = 0.5 * basis_mode(M, 1) + 0.3 * basis_mode(M, 2)
    spec0 = nz.NoiseSpec(np.zeros(0))
    params = md.ModelParams(gamma=0.0, alpha=0.0, M=M)

    def drift(dt):
        integ = md.IntegratorConfig(dt=dt, scheme="strang",
                                    record_every=max(1, int(round(0.01 / dt))))
        rec = md.simulate_ensemble(u0, params, integ, spec0, 1.0, seed=102)
        h = rec.energy.H1[:, 0] - 0.5 * rec.energy.L4[:, 0]
        return float(np.max(np.abs(h - h[0])) / abs(h[0]))

    d_coarse = drift(1e-4)
    d_fine = drift(5e-5)
    ratio = d_coarse / d_fine if d_fine > 0 else np.inf
    ok = d_coarse <= 1e-3 and ratio >= 3.0
    return _result(2, "Hamiltonian conservation", ok,
                   f"drift {d_coarse:.3e} (tol 1e-3), halving ratio {ratio:.2f} (>= 3)", t0)


# 3 ------------------------------------------------------------------------

def check_ou_oracle() -> CheckResult:
    """Linear process: per-mode variance matches lambda_k^2(1-e^{-2at})/a."""
    t0 = time.perf_counter()
    M = 8
    spec = nz.NoiseSpec.power_profile(M, 1.0, 2.0)
    params = md.ModelParams(gamma=0.0, alpha=1.0, M=M, nonlinear=False)
    rec = md.simulate_ensemble(np.zeros(M, complex), params, md.IntegratorConfig(dt=0.5),
                               spec, 5.0, seed=103, traj_ids=np.arange(10_000),
                               record_states=True)
    worst = 0.0
    for tt in (0.5, 5.0):
        i = int(np.argmin(np.abs(rec.times - tt)))
        sq = np.abs(rec.states[i]) ** 2
        emp = sq.mean(axis=0)
        se = sq.std(axis=0) / np.sqrt(sq.shape[0])
        z = np.abs(emp - nz.ou_mode_variance(spec, 1.0, tt)) / se
        worst = max(worst, float(z.max()))
    return _result(3, "OU convolution oracle", worst <= 3.0,
                   f"worst per-mode |z| = {worst:.2f} (band 3 se, 10^4 paths)", t0)


# 4 ------------------------------------------------------------------------

def check_mass_identity() -> CheckResult:
    """Integrated d E||u||^2 identity inside 3 se at 20 checkpoints on [0,10]."""
    t0 = time.perf_counter()
    M = 64
    params = md.ModelParams(gamma=0.05, alpha=1.0, M=M)
    spec = nz.NoiseSpec.power_profile(8, 0.05, 2.0)
    integ = md.IntegratorConfig(dt=5e-3, record_every=100)  # 20 checkpoints on 2000 steps
    rec = md.simulate_ensemble(np.zeros(M, complex), params, integ, spec, 10.0, seed=104,
                               traj_ids=np.arange(1000), track_mass_integrals=True)
    # per checkpoint interval, Delta||u||^2 + int (2 gamma ||u||_H1^2 + 2 alpha ||u||^2) ds
    # - 2 Tr(QQ*) Delta t: mean zero exactly, so the 1000 residuals give honest errors
    res = (np.diff(rec.energy.H, axis=0)
           + 2.0 * params.gamma * np.diff(rec.mass_int_h1, axis=0)
           + 2.0 * params.alpha * np.diff(rec.mass_int_h, axis=0)
           - 2.0 * nz.traces(spec).tr_qq * np.diff(rec.times)[:, None])
    mean = res.mean(axis=1)
    se = res.std(axis=1) / np.sqrt(res.shape[1])
    inside = np.abs(mean) <= 3.0 * se
    worst = float(np.max(np.abs(mean) / se))
    ok = bool(np.all(inside))
    return _result(4, "mean-energy Ito identity", ok,
                   f"{int(inside.sum())}/20 checkpoints inside 3 se, worst {worst:.2f} se", t0)


# 5 ------------------------------------------------------------------------

def check_inviscid_rate() -> CheckResult:
    """Truncated shared-noise pairs: slope of log E sup||v||^2 vs log gamma.

    Noise is the regularity-critical profile lambda_k = 0.3 k^{-3/2} on all
    modes, for which the H^2 budget gamma int ||Au||^2 is order one and the
    gamma^1 mechanism is active across the whole grid.
    """
    t0 = time.perf_counter()
    M = 64
    lam = 0.3 * np.arange(1, M + 1, dtype=float) ** -1.5
    spec = nz.NoiseSpec(lam)
    curve = st.inviscid_curve(0.5 * basis_mode(M, 1), [1e-4, 1e-3, 1e-2, 1e-1],
                              T=1.0, ensemble_size=200, seed=105, alpha=1.0,
                              M=M, spec=spec, truncated=True, R=2.0, dt=1e-3)
    f = curve.fit
    ok = abs(f.exponent - 1.0) <= 0.3 and f.r_squared >= 0.95
    return _result(5, "truncated inviscid rate", ok,
                   f"slope {f.exponent:.3f} (target 1.0 +- 0.3), R^2 {f.r_squared:.4f} (>= 0.95)", t0)


# 6 ------------------------------------------------------------------------

def check_foias_prodi() -> CheckResult:
    """Pinned pair with a mode-15 offset: E J(5) <= 0.1 J(0), rate >= alpha/2."""
    t0 = time.perf_counter()
    M, N = 64, 12
    params = md.ModelParams(gamma=0.02, alpha=1.0, M=M)
    integ = md.IntegratorConfig(dt=1e-3, scheme="strang", record_every=100)
    spec = nz.NoiseSpec.power_profile(N, 0.05, 2.0)
    times, J, excluded = cp.pinned_contraction_run(
        np.zeros(M, complex), 0.1 * basis_mode(M, 15), params, integ, spec,
        N=N, T=5.0, seed=106, n_pairs=200,
    )
    EJ = J[:, ~excluded].mean(axis=1)
    ratio = float(EJ[-1] / EJ[0])
    mask = EJ > 1e-28 * EJ[0]
    rate = st.fit_exponential(times[mask], EJ[mask]).exponent
    ok = ratio <= 0.1 and rate >= 0.5 * params.alpha
    return _result(6, "Foias-Prodi contraction", ok,
                   f"E J(5)/J(0) = {ratio:.2e} (<= 0.1), fitted rate {rate:.2f} (>= 0.5)", t0)


# 7 ------------------------------------------------------------------------

def check_mixing_uniformity() -> CheckResult:
    """Synchronous W_{d1} curves decay 10x and rates agree within 3x in gamma."""
    t0 = time.perf_counter()
    M = 64
    spec = nz.NoiseSpec.power_profile(8, 0.05, 2.0)
    curves = st.mixing_curve(basis_mode(M, 1), basis_mode(M, 2),
                             md.ModelParams(gamma=(0.0, 0.01, 0.1), alpha=1.0, M=M), spec,
                             np.arange(0.0, 51.0, 1.0), ensemble_size=64, seed=107,
                             integ=md.IntegratorConfig(dt=5e-3), dual_checkpoints=2)
    finals = [float(c.upper_d1[-1] / c.upper_d1[0]) for c in curves]
    rates = [float(c.fit.exponent) for c in curves]
    spread = max(rates) / min(rates)
    ok = max(finals) <= 0.1 and spread <= 3.0
    return _result(7, "mixing decay, gamma-uniformity", ok,
                   f"final/initial <= {max(finals):.2e} (<= 0.1), "
                   f"rates {['%.2f' % r for r in rates]}, spread {spread:.2f}x (<= 3)", t0)


# 8 ------------------------------------------------------------------------

def check_wasserstein_exact() -> CheckResult:
    """Exact OT equals plan enumeration to 1e-10; dual <= primal throughout."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(108)

    def fields(n):  # d0 costs near 0.5: below the cap of 1, so a wrong value shows
        return 0.1 * (rng.standard_normal((n, 6)) + 1j * rng.standard_normal((n, 6)))

    worst_gap, dual_ok = 0.0, True
    for trial in range(100):
        n = int(rng.integers(1, 9))
        A = fields(n)
        if trial % 3 == 0 and n >= 2:
            denom = int(rng.integers(2, 7))
            cuts = rng.multinomial(denom, np.ones(min(n, denom)) / min(n, denom))
            wa = cuts[cuts > 0] / denom
            A = A[: len(wa)]
            emp_a = st.EmpiricalMeasure(A, wa)
            emp_b = st.EmpiricalMeasure(fields(denom))
        else:
            emp_a, emp_b = st.EmpiricalMeasure(A), st.EmpiricalMeasure(fields(n))
        ot = st.wasserstein(emp_a, emp_b, "d0")
        bf = st.wasserstein_bruteforce(emp_a, emp_b, "d0")
        worst_gap = max(worst_gap, abs(ot.value - bf))
        if st.dual_lower_bound(emp_a, emp_b, "d0") > ot.value + 1e-9:
            dual_ok = False
    ok = worst_gap <= 1e-10 and dual_ok
    return _result(8, "Wasserstein estimator correctness", ok,
                   f"max |exact OT - enumeration| = {worst_gap:.2e} (tol 1e-10), "
                   f"dual<=primal {dual_ok}", t0)


# 9 ------------------------------------------------------------------------

def check_exponential_moment() -> CheckResult:
    """E e^{xi||u||^2} at t in {10,50,100} varies by < 2x (stationary bound)."""
    t0 = time.perf_counter()
    M = 64
    params = md.ModelParams(gamma=0.05, alpha=1.0, M=M)
    spec = nz.NoiseSpec.power_profile(8, 0.05, 2.0)
    xi = params.alpha / (4.0 * nz.traces(spec).tr_qq)  # half the bound alpha/(2 Tr QQ*)
    rec = md.simulate_ensemble(np.zeros(M, complex), params,
                               md.IntegratorConfig(dt=1e-2, record_every=100), spec, 100.0,
                               seed=109, traj_ids=np.arange(1000))
    # capped exponentials are counted, never dropped silently
    expo = xi * rec.energy.H
    overflow = int(np.sum(expo > fn.EXP_CAP))
    mean_exp = np.mean(np.exp(np.minimum(expo, fn.EXP_CAP)), axis=1)
    idx = [int(np.argmin(np.abs(rec.times - x))) for x in (10.0, 50.0, 100.0)]
    vals = mean_exp[idx]
    ratio = float(vals.max() / vals.min())
    ok = ratio < 2.0 and overflow == 0
    return _result(9, "exponential moment boundedness", ok,
                   f"values {['%.4f' % v for v in vals]} at t=10/50/100, "
                   f"ratio {ratio:.3f} (< 2), xi={xi:.2f}", t0)


# 10 -----------------------------------------------------------------------

def check_girsanov_success() -> CheckResult:
    """Importance-weighted coupling success >= 1/2 - 3 se inside the r1 ball."""
    t0 = time.perf_counter()
    M, N = 32, 8
    params = md.ModelParams(gamma=0.05, alpha=1.0, M=M)
    spec = nz.NoiseSpec.power_profile(N, 1.0, 2.0)
    consts = fn.FunctionalConstants()
    pilot = cp.estimate_pilot_constants(params, spec, consts, seed=110,
                                        n_traj=100, T=15.0, dt=2e-3)
    beta = 1e-3 ** 0.1  # r1 = beta^10 = 1e-3
    cfg = cp.CouplingConfig(N=N, theta=10 * pilot.c4_hat, beta=beta, T=2.0,
                            c4_hat=pilot.c4_hat, k41_hat=pilot.k41_hat,
                            consts=consts)
    integ = md.IntegratorConfig(dt=cfg.t1 / 50, scheme="expeuler", noise_mode="em")
    u1 = 0.005 * basis_mode(M, 1)
    u2 = np.zeros(M, complex)
    ball = float(fn.phi(u1, consts) + fn.phi(u2, consts))
    rep = cp.girsanov_attempt(u1, u2, cfg, params, integ, spec, seed=111,
                              n_attempts=500)
    w = np.exp(rep.log_weight) * rep.success
    est = float(np.mean(w))
    se = float(np.std(w) / np.sqrt(len(w)))
    ok = est >= 0.5 - 3.0 * se and ball <= cfg.r1
    return _result(10, "Girsanov coupling success rate", ok,
                   f"weighted frequency {est:.4f} +- {se:.4f} (>= 0.5 - 3 se), "
                   f"Phi-ball {ball:.2e} <= r1 {cfg.r1:.2e}", t0)


ALL_CHECKS: list[Callable[[], CheckResult]] = [
    check_mass_law,
    check_hamiltonian,
    check_ou_oracle,
    check_mass_identity,
    check_inviscid_rate,
    check_foias_prodi,
    check_mixing_uniformity,
    check_wasserstein_exact,
    check_exponential_moment,
    check_girsanov_success,
]


def run_all(only=None) -> list[CheckResult]:
    """Run the acceptance suite, printing one pass/fail line per criterion."""
    results = []
    for i, check in enumerate(ALL_CHECKS, start=1):
        if only and i not in only:
            continue
        res = check()
        results.append(res)
        print(res.line())
    return results
