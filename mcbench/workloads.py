"""The four workloads: reduced forms of the experiment drivers' traffic.

Each workload is built from the benchmark seed alone, then runs whole
rounds.  A round is one fixed unit of work with a fixed number of nominal
trajectory-steps (from the inputs: gamma values x trajectories x steps, each
member of a pair counted) and a fixed number of operations.  Round r draws
its noise from a master seed derived from (benchmark seed, r), so rounds
differ in their numbers but never in their shape.

`run_round` returns the number of trajectories the blow-up guard excluded;
a round whose call raises counts all its operations as failed.  `verify`
returns (passed, detail) pairs: checks of the timed rounds' outputs against
method properties, plus oracle checks that make calls of their own after
timing has ended.
"""

from __future__ import annotations

import numpy as np

from glnls import coupling as cp
from glnls import functionals as fn
from glnls import models as md
from glnls import noise as nz
from glnls import stats as st
from glnls.spectral import basis_mode

from oracles import check_one_step, mean_weight_check


def round_seed(seed: int, tag: int, r: int) -> int:
    return int(np.random.SeedSequence([seed, tag, r]).generate_state(1)[0])


class Workload:
    name = ""
    steps_per_round = 0
    ops_per_round = 0

    def warm_up(self) -> None:
        raise NotImplementedError

    def run_round(self, r: int) -> int:
        raise NotImplementedError

    def verify(self) -> list[tuple[bool, str]]:
        raise NotImplementedError

    def layer_extras(self) -> dict:
        return {"coupling.ess_fraction": 0.0, "stats.lp_gap_max": 0.0}


# ---------------------------------------------------------------------------

class Ensemble(Workload):
    """Checks 4 and 9: batched Strang + exact noise, strided records."""

    name = "ensemble"
    M, B, N = 64, 64, 8
    dt, n_steps, record_every = 5e-3, 200, 20

    def __init__(self, seed: int):
        self.seed = seed
        self.params = md.ModelParams(gamma=0.05, alpha=1.0, M=self.M)
        self.spec = nz.NoiseSpec.power_profile(self.N, 0.05, 2.0)
        self.integ = md.IntegratorConfig(dt=self.dt, scheme="strang",
                                         noise_mode="exact",
                                         record_every=self.record_every)
        rng = np.random.default_rng([seed, 1])
        k = np.arange(1, self.M + 1)
        self.u0 = 0.05 * (rng.standard_normal((self.B, self.M))
                          + 1j * rng.standard_normal((self.B, self.M))) / k**2
        self.steps_per_round = self.B * self.n_steps
        self.ops_per_round = self.B
        self.tr_qq = float(np.sum(self.spec.lambdas**2))
        self.res = np.zeros(3)  # sum, sum of squares, count of balance residuals
        self.first = None

    def _simulate(self, u0, seed, ids, n_steps):
        return md.simulate_ensemble(u0, self.params, self.integ, self.spec,
                                    n_steps * self.dt, seed, traj_ids=ids,
                                    track_mass_integrals=True)

    def warm_up(self):
        self._simulate(self.u0[:2], 0, np.arange(2), 2 * self.record_every)

    def run_round(self, r):
        seed_r = round_seed(self.seed, 1, r)
        rec = self._simulate(self.u0, seed_r, np.arange(self.B), self.n_steps)
        live = ~rec.excluded
        H, T = rec.energy.H, rec.times[-1]
        # integrated Ito balance of ||u||_H^2 over [0, T], mean zero exactly
        r_traj = (H[-1] - H[0] + 2.0 * self.params.gamma * rec.mass_int_h1[-1]
                  + 2.0 * self.params.alpha * rec.mass_int_h[-1]
                  - 2.0 * self.tr_qq * T)[live]
        self.res += (r_traj.sum(), (r_traj**2).sum(), r_traj.size)
        if self.first is None:
            self.first = (seed_r, rec.final.copy())
        return int(rec.excluded.sum())

    def verify(self):
        out = [check_one_step(self.params, self.integ, self.spec,
                              np.random.default_rng([self.seed, 11]))]
        seed0, final0 = self.first
        ids = np.random.default_rng([self.seed, 12]).choice(self.B, 6, replace=False)
        sub = self._simulate(self.u0[ids], seed0, ids, self.n_steps)
        same = bool(np.array_equal(sub.final, final0[ids]))
        out.append((same, f"trajectories {ids.tolist()} re-batched alone: final "
                          f"states bit-identical {same}"))
        s1, s2, n = self.res
        mean = s1 / n
        se = np.sqrt(max(s2 / n - mean**2, 0.0) / n)
        z = abs(mean) / se
        out.append((z <= 5.0, f"Ito mean-energy balance over {int(n)} trajectories: "
                              f"mean residual {mean:.3e} +- {se:.2e}, |z| {z:.2f} (<= 5)"))
        return out


# ---------------------------------------------------------------------------

class Sweep(Workload):
    """Check 5: truncated shared-noise inviscid curve with a gamma = 0 entry."""

    name = "sweep"
    M, E = 64, 64
    gammas = (0.0, 1e-4, 1e-3, 1e-2, 1e-1)
    dt, n_steps = 1e-3, 50

    def __init__(self, seed: int):
        self.seed = seed
        self.spec = nz.NoiseSpec(0.3 * np.arange(1, self.M + 1, dtype=float) ** -1.5)
        phase = np.random.default_rng([seed, 2]).uniform(0.0, 2.0 * np.pi)
        self.u0 = 0.5 * np.exp(1j * phase) * basis_mode(self.M, 1)
        self.steps_per_round = len(self.gammas) * self.E * self.n_steps * 2
        self.ops_per_round = len(self.gammas) * self.E
        self.rounds = 0
        self.problems: list[str] = []
        self.slopes: list[float] = []
        self.r2: list[float] = []

    def _curve(self, seed, E, n_steps):
        return st.inviscid_curve(self.u0, self.gammas, n_steps * self.dt, E, seed,
                                 alpha=1.0, M=self.M, spec=self.spec,
                                 truncated=True, R=2.0, dt=self.dt)

    def warm_up(self):
        self._curve(0, 2, 5)

    def run_round(self, r):
        c = self._curve(round_seed(self.seed, 2, r), self.E, self.n_steps)
        self.rounds += 1
        err = c.mean_sup_err
        if err[0] != 0.0:
            self.problems.append(f"round {r}: gamma=0 error {err[0]:.3e} != 0")
        if not np.all(np.diff(err) > 0):
            self.problems.append(f"round {r}: errors not strictly rising {err.tolist()}")
        if c.fit is None or not (c.fit.r_squared >= 0.95 and c.fit.exponent > 0):
            self.problems.append(f"round {r}: fit {c.fit}")
        else:
            self.slopes.append(c.fit.exponent)
            self.r2.append(c.fit.r_squared)
        return int(c.excluded.sum())

    def verify(self):
        ok = not self.problems
        detail = (f"{self.rounds} curves: gamma=0 error exactly 0, mean sup error strictly "
                  f"rising in gamma, R^2 >= 0.95 with positive slope")
        if self.slopes:
            detail += (f"; median slope {np.median(self.slopes):.3f}, "
                       f"min R^2 {min(self.r2):.4f}")
        if not ok:
            detail += "; " + "; ".join(self.problems[:3])
        return [(ok, detail)]


# ---------------------------------------------------------------------------

class Coupling(Workload):
    """`glnls couple` / check 10: pilot, Girsanov bridge, coupled segments."""

    name = "coupling"
    M, N = 32, 8
    pilot_traj, pilot_T, pilot_dt = 32, 1.2, 2e-3
    pairs, bridge_steps = 256, 50
    segments, seg_T, seg_dt = 3, 0.025, 1e-3

    def __init__(self, seed: int):
        self.seed = seed
        self.params = md.ModelParams(gamma=0.05, alpha=1.0, M=self.M)
        self.spec = nz.NoiseSpec.power_profile(self.N, 1.0, 2.0)
        self.consts = fn.FunctionalConstants()
        self.beta = 1e-3 ** 0.1  # t1 = r1 = beta^10 = 1e-3
        phase = np.random.default_rng([seed, 3]).uniform(0.0, 2.0 * np.pi)
        self.u1 = 0.02 * np.exp(1j * phase) * basis_mode(self.M, 1)
        self.u2 = np.zeros(self.M, complex)
        self.seg_integ = md.IntegratorConfig(dt=self.seg_dt, scheme="expeuler",
                                             noise_mode="em")
        pilot_steps = int(round(self.pilot_T / self.pilot_dt))
        seg_steps = int(round(self.seg_T / self.seg_dt))
        self.steps_per_round = (self.pilot_traj * pilot_steps
                                + 2 * self.pairs * self.bridge_steps
                                + 2 * self.pairs * self.segments * seg_steps)
        self.ops_per_round = self.pilot_traj + self.pairs
        # per stage (bridge, segment 1..S): sum w, sum w^2, count
        self.weights = np.zeros((1 + self.segments, 3))
        self.ess: list[float] = []
        self.first = None

    def _pilot(self, seed, n_traj, T):
        return cp.estimate_pilot_constants(self.params, self.spec, self.consts, seed,
                                           n_traj=n_traj, T=T, dt=self.pilot_dt)

    def _config(self, pilot):
        return cp.CouplingConfig(N=self.N, theta=10.0 * pilot.c4_hat, beta=self.beta,
                                 T=self.seg_T, c4_hat=pilot.c4_hat,
                                 k41_hat=pilot.k41_hat, consts=self.consts)

    def _bridge(self, cfg, seed, n):
        integ = md.IntegratorConfig(dt=cfg.t1 / self.bridge_steps,
                                    scheme="expeuler", noise_mode="em")
        return cp.girsanov_attempt(self.u1, self.u2, cfg, self.params, integ,
                                   self.spec, seed, n_attempts=n)

    def warm_up(self):
        cfg = self._config(self._pilot(0, 2, 1.1))
        rep = self._bridge(cfg, 0, 2)
        cp.coupled_segment(rep.state, cfg, self.params, self.seg_integ, self.spec, 0)

    def _record(self, stage, logw):
        w = np.exp(logw)
        self.weights[stage] += (w.sum(), (w**2).sum(), w.size)

    def run_round(self, r):
        seeds = [round_seed(self.seed, 30 + i, r) for i in range(2 + self.segments)]
        cfg = self._config(self._pilot(seeds[0], self.pilot_traj, self.pilot_T))
        rep = self._bridge(cfg, seeds[1], self.pairs)
        self._record(0, rep.log_weight)
        if self.first is None:
            self.first = (cfg, seeds[1], rep.log_weight.copy())
        state = rep.state
        for k in range(self.segments):
            state, _ = cp.coupled_segment(state, cfg, self.params, self.seg_integ,
                                          self.spec, seeds[2 + k])
            self._record(1 + k, state.log_weight)
        w = np.exp(state.log_weight)
        self.ess.append(float(w.sum() ** 2 / (w**2).sum() / w.size))
        return 0

    def verify(self):
        out = []
        for stage, (s1, s2, n) in enumerate(self.weights):
            label = "the bridge" if stage == 0 else f"segment {stage}"
            out.append(mean_weight_check(label, s1, s2, int(n), 5.0))
        # replay the first bridge, capturing the composite path it hands over
        cfg, seed1, logw1 = self.first
        seen = {}
        orig = cp.make_coupled_state

        def capture(u1, u2, cfg_, consts):
            seen["u1"], seen["u2"] = np.array(u1), np.array(u2)
            return orig(u1, u2, cfg_, consts)

        cp.make_coupled_state = capture
        try:
            rep = self._bridge(cfg, seed1, self.pairs)
        finally:
            cp.make_coupled_state = orig
        N = self.N
        low_same = bool(np.array_equal(seen["u1"][:, :N], seen["u2"][:, :N]))
        replay = bool(np.array_equal(rep.log_weight, logw1))
        out.append((low_same and replay,
                    f"after the bridge the first {N} modes of both members are "
                    f"bit-identical {low_same}; replayed log-weights bit-identical {replay}"))
        return out

    def layer_extras(self):
        return {"coupling.ess_fraction": float(np.median(self.ess)) if self.ess else 0.0,
                "stats.lp_gap_max": 0.0}


# ---------------------------------------------------------------------------

class Measures(Workload):
    """`glnls measures`: B=1 invariant-measure samples at M=512, then OT."""

    name = "measures"
    M, N = 512, 8
    gammas = (0.2, 0.1, 0.05)
    burn_in, n_samples, thinning, dt = 0.5, 32, 0.05, 5e-3

    def __init__(self, seed: int):
        self.seed = seed
        self.spec = nz.NoiseSpec.power_profile(self.N, 0.05, 2.0)
        self.consts = fn.FunctionalConstants()
        rng = np.random.default_rng([seed, 4])
        k = np.arange(1, self.M + 1)
        self.u0 = 0.05 * (rng.standard_normal(self.M)
                          + 1j * rng.standard_normal(self.M)) / k**2
        stride = int(round(self.thinning / self.dt))
        per_gamma = int(round((self.burn_in + self.n_samples * stride * self.dt) / self.dt))
        self.steps_per_round = (1 + len(self.gammas)) * per_gamma
        self.ops_per_round = 2 * len(self.gammas)
        self.gap_max = 0.0
        self.problems: list[str] = []
        self.first = None

    def _sample(self, g, seed, burn_in, n_samples):
        params = md.ModelParams(gamma=g, alpha=1.0, M=self.M)
        emp, _ = st.invariant_measure_sample(params, self.spec, burn_in, n_samples,
                                             self.thinning, seed, dt=self.dt,
                                             consts=self.consts, u0=self.u0)
        return emp

    def warm_up(self):
        a = self._sample(0.0, 0, self.dt, 4)
        b = self._sample(0.1, 1, self.dt, 4)
        st.wasserstein(b, a, "d0")

    def run_round(self, r):
        ref = self._sample(0.0, round_seed(self.seed, 40, r), self.burn_in, self.n_samples)
        for i, g in enumerate(self.gammas):
            emp = self._sample(g, round_seed(self.seed, 41 + i, r), self.burn_in,
                               self.n_samples)
            w0 = st.wasserstein(emp, ref, "d0")
            wxi = st.wasserstein(emp, ref, "d0xi", xi=self.consts.xi)
            dual = st.dual_lower_bound(emp, ref, "d0")
            self.gap_max = max(self.gap_max, w0.gap, wxi.gap)
            if not max(w0.gap, wxi.gap) <= 1e-9:
                self.problems.append(f"round {r} gamma {g}: LP gaps {w0.gap:.2e}, {wxi.gap:.2e}")
            if not dual <= w0.value + 1e-12:
                self.problems.append(f"round {r} gamma {g}: dual {dual} > primal {w0.value}")
            if not wxi.value >= w0.value - 1e-12:
                self.problems.append(f"round {r} gamma {g}: W_d0xi {wxi.value} < W_d0 {w0.value}")
            if self.first is None:
                self.first = (emp, ref)
        return 0

    def verify(self):
        ok = not self.problems
        out = [(ok, "every LP certificate gap <= 1e-9 (largest %.2e), dual <= primal, "
                    "W_d0xi >= W_d0" % self.gap_max
                + ("" if ok else "; " + "; ".join(self.problems[:3])))]
        emp, ref = self.first
        rng = np.random.default_rng([self.seed, 13])
        worst = 0.0
        for ground in ("d0", "d0xi"):
            for na, nb in ((6, 6), (6, 3)):
                a = st.EmpiricalMeasure(emp.samples[rng.choice(emp.n, na, replace=False)])
                b = st.EmpiricalMeasure(ref.samples[rng.choice(ref.n, nb, replace=False)])
                lp = st.wasserstein(a, b, ground, xi=self.consts.xi).value
                bf = st.wasserstein_bruteforce(a, b, ground, xi=self.consts.xi)
                worst = max(worst, abs(lp - bf))
        out.append((worst <= 1e-9, f"LP vs enumeration on 6x6 and 6x3-atom sub-samples (d0, d0xi): "
                                   f"max |diff| {worst:.2e} (<= 1e-9)"))
        integ = md.IntegratorConfig(dt=self.dt)
        params = md.ModelParams(gamma=self.gammas[0], alpha=1.0, M=self.M)
        out.append(check_one_step(params, integ, self.spec,
                                  np.random.default_rng([self.seed, 14])))
        return out

    def layer_extras(self):
        return {"coupling.ess_fraction": 0.0, "stats.lp_gap_max": self.gap_max}


WORKLOADS = {w.name: w for w in (Ensemble, Sweep, Coupling, Measures)}
