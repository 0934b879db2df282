import copy
import functools

import numpy as np
import pytest

from glnls import coupling as cp
from glnls import functionals as fn
from glnls import models as md
from glnls import noise as nz
from glnls import stats as st
from glnls.spectral import basis_mode, eigenvalues

CONSTS = fn.FunctionalConstants()


def small_cfg(N=2, beta=0.5, T=0.5, c4=5.0, **kw):
    return cp.CouplingConfig(N=N, theta=kw.pop("theta", 10.0), beta=beta, T=T,
                             c4_hat=c4, k41_hat=1.0, consts=CONSTS, **kw)


class TestConfig:
    def test_defaults_from_beta(self):
        cfg = small_cfg(beta=0.5)
        assert cfg.t1 == pytest.approx(0.5**10)
        assert cfg.r1 == pytest.approx(0.5**10)
        assert cfg.rho2 == pytest.approx(np.sqrt(0.5))
        assert cfg.rho1 == pytest.approx(8.0 * (cfg.r1**4 + 1.0))

    def test_validation(self):
        with pytest.raises(ValueError):
            small_cfg(beta=1.5)
        with pytest.raises(ValueError):
            cp.CouplingConfig(N=0, theta=1.0, beta=0.5, T=1.0, c4_hat=1.0)

    def test_e4_budget_shape(self):
        cfg = small_cfg(theta=2.0, beta=0.5, c4=3.0)
        assert cfg.e4_budget(0.0) == pytest.approx(2.0 + 0.5**4)
        assert cfg.e4_budget(1.0) == pytest.approx(2.0 + 0.5**4 + 3.0)


class TestPilot:
    """The pilot's constants are stats.tail_fit of its own live E_4 records."""

    M = 16

    def _run(self, monkeypatch, guard=None):
        params = md.ModelParams(gamma=0.05, alpha=1.0, M=self.M)
        spec = nz.NoiseSpec.power_profile(4, 1.0, 2.0)
        seen = {}

        def capture(*args, **kwargs):
            seen["rec"] = md.simulate_ensemble(*args, **kwargs)
            return seen["rec"]

        monkeypatch.setattr(cp, "simulate_ensemble", capture)
        if guard is not None:
            monkeypatch.setattr(cp, "IntegratorConfig",
                                functools.partial(md.IntegratorConfig, blowup_guard=guard))
        pilot = cp.estimate_pilot_constants(params, spec, CONSTS, seed=5, n_traj=8, T=1.2)
        return pilot, seen["rec"]

    @staticmethod
    def _expect(rec, rows):
        base = float(fn.phi(np.zeros(TestPilot.M, complex), CONSTS)) ** 4
        fit = st.tail_fit(rec.energy.E4[:, rows], rec.times, base, 1.2)
        k41 = fit.envelope_k / (base + 1.0) if fit.envelope_k > 0 else 1.0
        return fit.c_n_hat, max(k41, 1e-6)

    def test_constants_are_the_tail_fit(self, monkeypatch):
        pilot, rec = self._run(monkeypatch)
        assert not rec.excluded.any()
        assert (pilot.c4_hat, pilot.k41_hat) == self._expect(rec, ~rec.excluded)

    def test_frozen_rows_left_out(self, monkeypatch):
        # a guard of 3 freezes 6 of the 8 trajectories; the fit is the 2 live ones'
        pilot, rec = self._run(monkeypatch, guard=3.0)
        assert rec.excluded.sum() == 6
        assert (pilot.c4_hat, pilot.k41_hat) == self._expect(rec, ~rec.excluded)
        assert (pilot.c4_hat, pilot.k41_hat) != self._expect(rec, slice(None))

    def test_raises_when_none_is_live(self, monkeypatch):
        with pytest.raises(ValueError, match="froze all 8"):
            self._run(monkeypatch, guard=1.0)


class TestPinned:
    @staticmethod
    def _recorded_pairs(monkeypatch, *args, **kwargs):
        """The (u1, u2) of every pinned_contraction_run record, as its J reads them."""
        seen = []
        j_functional = fn.j_functional

        def capture(u1, u2, consts):
            seen.append((u1.copy(), u2.copy()))
            return j_functional(u1, u2, consts)

        monkeypatch.setattr(fn, "j_functional", capture)
        cp.pinned_contraction_run(*args, **kwargs)
        return seen

    def test_identical_pair_stays_identical(self):
        M, N = 16, 4
        params = md.ModelParams(gamma=0.05, alpha=1.0, M=M)
        integ = md.IntegratorConfig(dt=1e-3)
        spec = nz.NoiseSpec.power_profile(N, 0.2, 2.0)
        u0 = 0.3 * basis_mode(M, 1)
        times, J, _ = cp.pinned_contraction_run(u0, u0, params, integ, spec, N=N,
                                                T=0.5, seed=0, n_pairs=4)
        assert np.max(np.abs(J)) < 1e-20

    def test_low_modes_exactly_equal(self, monkeypatch):
        M, N = 16, 4
        params = md.ModelParams(gamma=0.05, alpha=1.0, M=M)
        integ = md.IntegratorConfig(dt=1e-3)
        spec = nz.NoiseSpec.power_profile(N, 0.2, 2.0)
        u1 = 0.3 * basis_mode(M, 1) + 0.1 * basis_mode(M, 6)
        u2 = 0.3 * basis_mode(M, 1) + 0.2 * basis_mode(M, 6)
        seen = self._recorded_pairs(monkeypatch, u1, u2, params, integ, spec, N=N, T=0.02,
                                    seed=1, n_pairs=2)
        assert len(seen) == 21
        for u1, u2 in seen:
            # equality by assignment, not to tolerance
            assert u2[..., :N].tobytes() == u1[..., :N].tobytes()
            assert not np.array_equal(u1, u2)

    @pytest.mark.parametrize("M, R", [(16, None), (64, None), (64, 0.5)])
    def test_stacked_step_matches_two_calls(self, monkeypatch, M, R):
        # u1 and u2 share one stacked Stepper.step; each member's bits are
        # those of a step of its own, u2's first N modes then set from u1's
        N, B = 4, 8
        params = md.ModelParams(gamma=0.05, alpha=1.0, M=M, truncation=R)
        integ = md.IntegratorConfig(dt=1e-3)
        spec = nz.NoiseSpec.power_profile(N, 0.2, 2.0)
        st = md.Stepper(params, integ, spec)
        zs = nz.EnsembleNoise(3, np.arange(B), N).next_block(30)
        u1 = np.tile(0.6 * basis_mode(M, 1) + 0.2j * basis_mode(M, 3), (B, 1))
        u2 = u1 + 0.3 * basis_mode(M, 6)
        seen = self._recorded_pairs(monkeypatch, u1[0], u2[0], params, integ, spec, N=N,
                                    T=30 * integ.dt, seed=3, n_pairs=B)
        for s in range(30):
            u1, u2 = st.step(u1, zs[:, s]), st.step(u2, zs[:, s])
            u2[:, :N] = u1[:, :N]
            assert np.array_equal(seen[s + 1][0], u1) and np.array_equal(seen[s + 1][1], u2)

    def test_linear_pinned_step_exact_decay(self, monkeypatch):
        # nonlinearity off: the high-mode difference decays by the exact
        # per-mode exponential factor in one step
        M, N = 12, 4
        params = md.ModelParams(gamma=0.1, alpha=0.8, M=M, nonlinear=False)
        dt = 0.05
        integ = md.IntegratorConfig(dt=dt)
        spec = nz.NoiseSpec.power_profile(N, 0.2, 2.0)
        u1 = 0.5 * basis_mode(M, 2)
        # u2 = u1 + diff0 with diff0 supported on high modes
        diff0 = 0.2 * basis_mode(M, 7) + 0.05j * basis_mode(M, 11)
        seen = self._recorded_pairs(monkeypatch, u1, u1 + diff0, params, integ, spec, N=N,
                                    T=dt, seed=2, n_pairs=1)
        u1n, u2n = seen[-1]
        # with the nonlinearity off both members decay by the same exponential,
        # so (u2 - u1)(dt) = e^{-((gamma+i)alpha_k+alpha) dt} diff0 exactly
        v = u2n - u1n
        expected = np.exp(-((0.1 + 1j) * eigenvalues(M) + 0.8) * dt) * diff0
        assert np.max(np.abs(v - expected)) < 1e-14

    def test_linear_pinning_j_envelope(self):
        # nonlinearity disabled, N >= 4: J(t) <= J(0) e^{-2 alpha t (1-eps)},
        # eps = 0.05 (the linear dynamics make the decay exact up to the
        # Phi-weight term, which stays small at this noise level)
        M, N, alpha = 24, 4, 1.0
        params = md.ModelParams(gamma=0.0, alpha=alpha, M=M, nonlinear=False)
        integ = md.IntegratorConfig(dt=2e-3, record_every=100)
        spec = nz.NoiseSpec.power_profile(N, 0.05, 2.0)
        times, J, _ = cp.pinned_contraction_run(
            0.1 * basis_mode(M, 1), 0.1 * basis_mode(M, 1) + 0.3 * basis_mode(M, 9),
            params, integ, spec, N=N, T=3.0, seed=20, n_pairs=16,
        )
        envelope = J[0] * np.exp(-2 * alpha * times * (1 - 0.05))[:, None]
        assert np.all(J <= envelope + 1e-12)

    def test_contraction_of_high_mode_offset(self):
        M, N = 32, 8
        params = md.ModelParams(gamma=0.02, alpha=1.0, M=M)
        integ = md.IntegratorConfig(dt=2e-3, record_every=200)
        spec = nz.NoiseSpec.power_profile(N, 0.05, 2.0)
        times, J, _ = cp.pinned_contraction_run(
            np.zeros(M, complex), 0.1 * basis_mode(M, N + 3), params, integ, spec,
            N=N, T=2.0, seed=3, n_pairs=32,
        )
        EJ = J.mean(axis=1)
        assert EJ[-1] < 0.1 * EJ[0]


class TestGirsanov:
    def _setup(self, M=8, N=2, lam0=0.5):
        params = md.ModelParams(gamma=0.1, alpha=1.0, M=M)
        spec = nz.NoiseSpec.power_profile(N, lam0, 2.0)
        return params, spec

    def test_degenerate_attempt_zero_weight(self):
        params, spec = self._setup()
        cfg = small_cfg(N=2, t1=0.1, r1=0.5)
        integ = md.IntegratorConfig(dt=0.002, scheme="expeuler", noise_mode="em")
        u = 0.1 * basis_mode(8, 1)
        rep = cp.girsanov_attempt(u, u, cfg, params, integ, spec, seed=5, n_attempts=8)
        assert np.max(np.abs(rep.log_weight)) < 1e-12
        assert rep.success.all()

    def test_low_mode_equality_at_t1(self):
        params, spec = self._setup()
        cfg = small_cfg(N=2, t1=0.1, r1=0.5)
        integ = md.IntegratorConfig(dt=0.002, scheme="expeuler", noise_mode="em")
        u1 = 0.2 * basis_mode(8, 1)
        u2 = -0.1 * basis_mode(8, 2) + 0.05 * basis_mode(8, 5)
        rep = cp.girsanov_attempt(u1, u2, cfg, params, integ, spec, seed=6,
                                  n_attempts=16)
        assert np.all(rep.state.pair[1][:, :2] == rep.state.pair[0][:, :2])

    def test_returned_state_e4_starts_at_phi4(self):
        # the bridge's state carries the run's alpha, so its E_4 reads Phi^4
        # before any segment; a segment from it gives the bits it gave when
        # that alpha was left NaN
        params, spec = self._setup(M=16, N=4)
        cfg = small_cfg(N=4, t1=0.1, r1=0.5)
        integ = md.IntegratorConfig(dt=0.002, scheme="expeuler", noise_mode="em")
        u1, u2 = 0.2 * basis_mode(16, 1), -0.1 * basis_mode(16, 2)
        state = cp.girsanov_attempt(u1, u2, cfg, params, integ, spec, seed=7,
                                    n_attempts=3).state
        for e4, u in zip(state.e4.value(), state.pair):
            assert np.all(np.isfinite(e4))
            assert np.array_equal(e4, fn.phi(u, CONSTS) ** 4)
        unset = copy.deepcopy(state)
        unset.e4.alpha = np.nan
        a, rec_a = cp.coupled_segment(state, cfg, params, integ, spec, seed=8)
        b, rec_b = cp.coupled_segment(unset, cfg, params, integ, spec, seed=8)
        for x, y in ((a.pair, b.pair), (a.log_weight, b.log_weight),
                     (a.e4.value(), b.e4.value()), (rec_a.e4, rec_b.e4)):
            assert np.array_equal(x, y)

    def test_unbiased_importance_weights(self):
        # desk-scale configuration (M=2, N=1) against a plain dense ensemble
        M, N = 2, 1
        params = md.ModelParams(gamma=0.1, alpha=1.0, M=M)
        spec = nz.NoiseSpec(np.array([0.5]))
        cfg = small_cfg(N=1, t1=0.25, r1=0.5)
        integ = md.IntegratorConfig(dt=0.005, scheme="expeuler", noise_mode="em")
        u1 = 0.3 * basis_mode(M, 1) + 0.2 * basis_mode(M, 2)
        u2 = 0.1 * basis_mode(M, 1) - 0.15 * basis_mode(M, 2)
        B = 30_000
        rep = cp.girsanov_attempt(u1, u2, cfg, params, integ, spec, seed=7,
                                  n_attempts=B)
        w = np.exp(rep.log_weight)
        cand = rep.state.pair[1]
        ref = md.simulate_ensemble(u2, params, integ, spec, cfg.t1, seed=99,
                                   traj_ids=np.arange(B)).final
        for f in (
            lambda u: np.minimum(fn.norm_h(u), 1.0),
            lambda u: np.exp(-fn.norm_h_sq(u)),
            lambda u: np.clip(u[:, 1].real, -0.5, 0.5),
        ):
            a, b = w * f(cand), f(ref)
            se = np.sqrt(a.var() / B + b.var() / B)
            assert abs(a.mean() - b.mean()) < 4 * se
        assert abs(w.mean() - 1.0) < 4 * w.std() / np.sqrt(B)

    def test_success_bound_in_small_ball(self):
        M, N = 16, 4
        params = md.ModelParams(gamma=0.05, alpha=1.0, M=M)
        spec = nz.NoiseSpec.power_profile(N, 1.0, 2.0)
        pilot = cp.estimate_pilot_constants(params, spec, CONSTS, seed=8,
                                            n_traj=50, T=8.0, dt=2e-3)
        beta = 1e-3**0.1
        cfg = cp.CouplingConfig(N=N, theta=10 * pilot.c4_hat, beta=beta, T=1.0,
                                c4_hat=pilot.c4_hat, k41_hat=pilot.k41_hat,
                                consts=CONSTS)
        integ = md.IntegratorConfig(dt=cfg.t1 / 20, scheme="expeuler",
                                    noise_mode="em")
        u1 = 0.004 * basis_mode(M, 1)
        rep = cp.girsanov_attempt(u1, np.zeros(M, complex), cfg, params, integ,
                                  spec, seed=9, n_attempts=200)
        w = np.exp(rep.log_weight) * rep.success
        est = w.mean()
        se = w.std() / np.sqrt(len(w))
        assert est >= 0.5 - 3 * se

    def test_rejects_wrong_scheme_and_degenerate_q(self):
        params, spec = self._setup()
        cfg = small_cfg(N=2, t1=0.1, r1=0.5)
        with pytest.raises(ValueError):
            cp.girsanov_attempt(np.zeros(8, complex), np.zeros(8, complex), cfg,
                                params, md.IntegratorConfig(dt=0.01), spec, seed=0)
        cfg4 = small_cfg(N=4, t1=0.1, r1=0.5)
        integ = md.IntegratorConfig(dt=0.01, scheme="expeuler", noise_mode="em")
        with pytest.raises(ValueError):
            cp.girsanov_attempt(np.zeros(8, complex), np.zeros(8, complex), cfg4,
                                params, integ, spec, seed=0)


class TestCoupledSegments:
    def _run(self, theta, n_segments=3, n_pairs=8, beta=0.5, c4=50.0):
        M, N = 12, 3
        params = md.ModelParams(gamma=0.05, alpha=1.0, M=M)
        spec = nz.NoiseSpec.power_profile(N, 0.2, 2.0)
        cfg = cp.CouplingConfig(N=N, theta=theta, beta=beta, T=0.5, c4_hat=c4,
                                k41_hat=1.0, consts=CONSTS)
        integ = md.IntegratorConfig(dt=2e-3, scheme="expeuler", noise_mode="em",
                                    record_every=1)
        u1 = np.broadcast_to(0.1 * basis_mode(M, 1), (n_pairs, M)).copy()
        state = cp.make_coupled_state(u1, u1.copy(), cfg, CONSTS)
        recs = []
        for k in range(n_segments):
            state, rec = cp.coupled_segment(state, cfg, params, integ, spec,
                                            seed=nz.derive_seed(11, f"s{k}"))
            recs.append(rec)
        return state, recs, cfg, params

    def test_identical_pair_stays_coupled(self):
        state, recs, _, _ = self._run(theta=1e6)
        assert np.all(state.ell == 0)
        assert np.all(state.log_weight == 0.0)  # F2 vanishes identically
        assert state.k == 3

    def test_e4_crossing_flags(self):
        # shrink every budget term: theta, beta^4 and C4 (t - lT)
        state, recs, cfg, _ = self._run(theta=1e-8, n_segments=1, beta=1e-3,
                                        c4=1e-9)
        assert state.e4_crossed.all()
        assert np.all(state.ell == cp.UNCOUPLED)

    def test_recompute_matches_live(self):
        state, recs, cfg, params = self._run(theta=0.35, n_segments=1)
        replay = cp.recompute_decoupling(recs[0], cfg, params.alpha, segment_k=0)
        live = state.e4_crossed | state.budget_crossed
        assert np.array_equal(replay, live)

    def test_input_state_unchanged(self):
        # two segments from one state give the same bits and leave it as it was
        M, N = 12, 3
        params = md.ModelParams(gamma=0.05, alpha=1.0, M=M)
        spec = nz.NoiseSpec.power_profile(N, 0.2, 2.0)
        cfg = small_cfg(N=N, theta=1e6, c4=1e6, T=0.05)
        integ = md.IntegratorConfig(dt=2e-3, scheme="expeuler", noise_mode="em")
        u1 = np.broadcast_to(0.3 * basis_mode(M, 1), (4, M))
        state = cp.make_coupled_state(u1, u1 + 0.1 * basis_mode(M, 5), cfg, CONSTS)
        before = copy.deepcopy(state)
        (a, rec_a), (b, rec_b) = (cp.coupled_segment(state, cfg, params, integ, spec, seed=13)
                                  for _ in range(2))

        def same(x, y):
            for name, v in vars(x).items():
                if isinstance(v, fn.EnAccumulator):
                    same(v, getattr(y, name))
                else:
                    assert np.array_equal(v, getattr(y, name), equal_nan=True), name

        same(a, b)
        same(rec_a, rec_b)
        same(state, before)

    def test_make_coupled_state_copies(self):
        # the state holds copies, u2's first N modes assigned from u1's; the
        # caller's arrays keep their bits
        M, N = 12, 3
        cfg = small_cfg(N=N)
        rng = np.random.default_rng(40)
        u1, u2 = (rng.standard_normal((4, M)) + 1j * rng.standard_normal((4, M))
                  for _ in range(2))
        before = u1.copy(), u2.copy()
        state = cp.make_coupled_state(u1, u2, cfg, CONSTS)
        assert np.array_equal(u1, before[0]) and np.array_equal(u2, before[1])
        assert state.pair[1][:, :N].tobytes() == u1[:, :N].tobytes()
        assert np.array_equal(state.pair[0], u1)
        assert np.array_equal(state.pair[1][:, N:], u2[:, N:])
        assert not np.shares_memory(state.pair, u1) and not np.shares_memory(state.pair, u2)

    def test_low_modes_pinned_after_segments(self):
        # after one segment and after two chained ones u2's first N modes are
        # u1's bit for bit, while the high modes still differ
        M, N = 12, 3
        params = md.ModelParams(gamma=0.05, alpha=1.0, M=M)
        spec = nz.NoiseSpec.power_profile(N, 0.2, 2.0)
        cfg = small_cfg(N=N, theta=1e6, c4=1e6, T=0.05)
        integ = md.IntegratorConfig(dt=2e-3, scheme="expeuler", noise_mode="em")
        u1 = np.broadcast_to(0.3 * basis_mode(M, 1), (4, M))
        state = cp.make_coupled_state(u1, u1 + 0.1 * basis_mode(M, 5), cfg, CONSTS)
        for k in range(2):
            state, _ = cp.coupled_segment(state, cfg, params, integ, spec, seed=14 + k)
            assert state.pair[1][:, :N].tobytes() == state.pair[0][:, :N].tobytes()
            assert not np.any(state.pair[1][:, N:] == state.pair[0][:, N:])

    def test_weight_collapse_warning(self):
        M, N = 8, 2
        params = md.ModelParams(gamma=0.05, alpha=1.0, M=M)
        spec = nz.NoiseSpec.power_profile(N, 0.01, 2.0)  # tiny noise -> big Q^-1
        cfg = cp.CouplingConfig(N=N, theta=1e6, beta=0.5, T=0.5, c4_hat=1e6,
                                k41_hat=1.0, consts=CONSTS)
        integ = md.IntegratorConfig(dt=2e-3, scheme="expeuler", noise_mode="em")
        u1 = np.broadcast_to(1.2 * basis_mode(M, 1), (4, M)).copy()
        u2 = u1 + 0.9 * basis_mode(M, 5)
        state = cp.make_coupled_state(u1, u2, cfg, CONSTS)
        with pytest.warns(RuntimeWarning, match="log-weight"):
            cp.coupled_segment(state, cfg, params, integ, spec, seed=12)


class TestBlowUpGuard:
    """8 pairs straddling an H^1 guard of 1: rows 4..7 cross on the first
    step and are frozen, rows 0..3 run exactly as under the default.

    A pair falls when either member crosses.  u1 = a e_1 has H^1 norm a pi;
    u2 = u1 + 0.05 e_5 adds 0.05 * 5 pi in quadrature, so row 3's u2 starts
    at 1.006.  The guard first reads the state after one step, by which the
    mode-5 offset has decayed by e^{-(0.05 (5 pi)^2 + 1) dt} = 0.974 and row
    3's u2 lies near 0.99; from then on that offset decays further, while
    mode 1 decays too slowly to matter.  So the crossing rows are those
    whose u1 starts above the guard."""

    M, N = 12, 3
    amps = np.array([0.05, 0.1, 0.15, 0.2, 0.5, 0.6, 0.7, 0.8])
    crossing = amps * np.pi > 1.0

    def _setup(self):
        params = md.ModelParams(gamma=0.05, alpha=1.0, M=self.M)
        spec = nz.NoiseSpec.power_profile(self.N, 0.2, 2.0)
        u1 = self.amps[:, None] * basis_mode(self.M, 1)
        u2 = u1 + 0.05 * basis_mode(self.M, 5)
        return params, spec, u1, u2

    def _integ(self, guard=None, dt=2e-3, record_every=1):
        kw = {} if guard is None else {"blowup_guard": guard}
        return md.IntegratorConfig(dt=dt, scheme="expeuler", noise_mode="em",
                                   record_every=record_every, **kw)

    def test_pinned_run(self):
        params, spec, u1, u2 = self._setup()
        runs = [cp.pinned_contraction_run(u1, u2, params, self._integ(g, record_every=10),
                                          spec, N=self.N, T=0.1, seed=21, n_pairs=8)
                for g in (1.0, None)]
        (_, J, excluded), (_, J_ref, excluded_ref) = runs
        assert np.array_equal(excluded, self.crossing) and not excluded_ref.any()
        live = ~excluded
        assert np.array_equal(J[:, live], J_ref[:, live])
        assert np.all(J[:, excluded] == J[0, excluded])  # frozen at the initial state

    def test_coupled_segment(self):
        params, spec, u1, u2 = self._setup()
        cfg = small_cfg(N=self.N, theta=1e6, c4=1e6, T=0.1)
        out = [cp.coupled_segment(cp.make_coupled_state(u1, u2, cfg, CONSTS), cfg, params,
                                  self._integ(g), spec, seed=22)[0]
               for g in (1.0, None)]
        state, ref = out
        assert np.array_equal(state.excluded, self.crossing) and not ref.excluded.any()
        live = ~state.excluded
        assert np.array_equal(state.pair[:, live], ref.pair[:, live])
        for name in ("log_weight", "budget_integral"):
            assert np.array_equal(getattr(state, name)[live], getattr(ref, name)[live]), name
        assert np.array_equal(state.pair[:, ~live], np.stack([u1, u2])[:, ~live])
        assert np.all(state.log_weight[~live] == 0.0)
        assert np.all(state.budget_integral[~live] == 0.0)

    def test_girsanov_attempt(self):
        params, spec, u1, u2 = self._setup()
        cfg = small_cfg(N=self.N, t1=0.02, r1=0.5)
        rep, ref = [cp.girsanov_attempt(u1, u2, cfg, params, self._integ(g), spec, seed=23,
                                        n_attempts=8) for g in (1.0, None)]
        assert np.array_equal(rep.state.excluded, self.crossing)
        assert not ref.state.excluded.any()
        live = ~rep.state.excluded
        assert np.array_equal(rep.log_weight[live], ref.log_weight[live])
        assert np.array_equal(rep.state.pair[:, live], ref.state.pair[:, live])
        assert np.array_equal(rep.success[live], ref.success[live])
        assert not rep.success[~live].any()
        assert np.all(rep.log_weight[~live] == 0.0)


class TestSecondMemberBlowUp:
    """Rows 2 and 3 pair u1 = 0.3 e_1 with u2 = u1 + 20 e_16 and u1 + 33 e_16
    (M = 16, N = 4, dt = 1e-3): u2's H^1 norm passes the default guard of 1e6
    within about ten exponential-Euler steps while u1 stays near 0.9.  The
    guard watches both members, so those pairs are excluded and frozen, at
    finite values on row 2; rows 0 and 1 run as in a batch of their own.  On
    row 3 the budget integral's increment at the last admitted state
    overflows to inf, which the pair then holds: a hold by a zero step would
    turn it into NaN."""

    M, N = 16, 4
    amps = np.array([0.0, 0.0, 20.0, 33.0])
    blown = amps > 0

    def _setup(self):
        params = md.ModelParams(gamma=0.05, alpha=1.0, M=self.M)
        spec = nz.NoiseSpec.power_profile(self.N, 0.2, 2.0)
        integ = md.IntegratorConfig(dt=1e-3, scheme="expeuler", noise_mode="em")
        u1 = np.tile(0.3 * basis_mode(self.M, 1), (4, 1))
        u2 = u1 + self.amps[:, None] * basis_mode(self.M, 16)
        return params, spec, integ, u1, u2

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_coupled_segment(self):
        params, spec, integ, u1, u2 = self._setup()
        cfg = small_cfg(N=self.N, theta=1e6, c4=1e6, T=0.05)

        def segments(rows):
            state = cp.make_coupled_state(u1[rows], u2[rows], cfg, CONSTS)
            ids = np.arange(4)[rows]
            first, _ = cp.coupled_segment(state, cfg, params, integ, spec, 1, traj_ids=ids)
            return first, cp.coupled_segment(first, cfg, params, integ, spec, 2,
                                             traj_ids=ids)[0]

        first, second = segments(slice(None))
        b = self.blown
        for s in (first, second):
            assert np.array_equal(s.excluded, b)
            assert not any(np.isnan(x).any() for x in (s.pair, s.log_weight, s.e4.value(),
                                                       s.budget_integral))
            for x in (s.pair[:, :3], s.log_weight[:3], s.e4.value()[:, :3],
                      s.budget_integral[:3]):
                assert np.all(np.isfinite(x))
            assert s.budget_integral[3] == np.inf
        # the second segment moves no excluded pair
        assert np.array_equal(second.pair[:, b], first.pair[:, b])
        assert np.array_equal(second.e4.value()[:, b], first.e4.value()[:, b])
        for name in ("log_weight", "budget_integral"):
            assert np.array_equal(getattr(second, name)[b], getattr(first, name)[b]), name
        # the live pairs keep the bits of a batch without the blown ones
        alone = segments(~b)[1]
        assert np.array_equal(second.pair[:, ~b], alone.pair)
        assert np.array_equal(second.log_weight[~b], alone.log_weight)
        assert np.array_equal(second.e4.value()[:, ~b], alone.e4.value())

    def test_girsanov_attempt(self):
        params, spec, integ, u1, u2 = self._setup()
        cfg = small_cfg(N=self.N, t1=0.02, r1=0.5)
        rep = cp.girsanov_attempt(u1, u2, cfg, params, integ, spec, seed=3, n_attempts=4)
        assert np.array_equal(rep.state.excluded, self.blown)
        for x in (rep.state.pair, rep.log_weight, rep.state.e4.value()):
            assert np.all(np.isfinite(x))
        assert not rep.success[self.blown].any()
        live = ~rep.state.excluded
        w = np.exp(rep.log_weight) * rep.success
        assert np.isfinite(w[live].mean())

    def test_pinned_run(self):
        params, spec, _, u1, u2 = self._setup()
        integ = md.IntegratorConfig(dt=1e-3, scheme="expeuler", record_every=10)
        _, J, excluded = cp.pinned_contraction_run(u1[0], u2[2], params, integ, spec, N=self.N,
                                                   T=0.1, seed=4, n_pairs=2)
        assert excluded.all()
        assert np.all(np.isfinite(J))
        assert np.all(J[2:] == J[-1])  # frozen from the crossing, near step 10, on


class TestStopping:
    """recompute_decoupling on synthetic segment records of two pairs."""

    @staticmethod
    def _record(times, e4_1=None, budget=None):
        zero = np.zeros((len(times), 2))
        e4 = np.stack([zero if e4_1 is None else e4_1, zero], axis=1)
        return cp.SegmentRecord(times=times, e4=e4,
                                budget_integral=zero if budget is None else budget)

    def test_no_thresholds_no_stop(self):
        cfg = small_cfg()
        rec = self._record(np.linspace(0, 5, 11))
        assert not cp.recompute_decoupling(rec, cfg, alpha=1.0, segment_k=0).any()

    def test_synthetic_e4_ramp(self):
        # pair 0's E4 ramps with slope one past theta + beta^4 ~= 3.2; the
        # ramp stopped one record short of 3.2 stays inside the budget
        cfg = cp.CouplingConfig(N=1, theta=3.2, beta=1e-3, T=1.0, c4_hat=0.0,
                                k41_hat=1.0, consts=CONSTS)
        dt = 0.01
        times = np.arange(0.0, 5.0 + dt / 2, dt)
        ramp = np.stack([times, np.zeros_like(times)], axis=1)
        flags = cp.recompute_decoupling(self._record(times, e4_1=ramp), cfg, alpha=1.0,
                                        segment_k=0)
        assert np.array_equal(flags, [True, False])
        short = times < 3.2 - dt / 2
        rec = self._record(times[short], e4_1=ramp[short])
        assert not cp.recompute_decoupling(rec, cfg, alpha=1.0, segment_k=0).any()

    def test_girsanov_budget_event(self):
        # rho2 = 0.5: pair 1's budget ramp crosses it at t = 1.0, and at
        # segment k = 1 the cap is rho2 e^{-alpha T/4} ~= 0.44
        cfg = small_cfg(beta=0.25)
        times = np.linspace(0, 2, 21)
        ramp = np.stack([np.zeros(21), np.linspace(0, 1.0, 21)], axis=1)
        flags = cp.recompute_decoupling(self._record(times, budget=ramp), cfg, alpha=1.0,
                                        segment_k=0)
        assert np.array_equal(flags, [False, True])
        rec = self._record(times, budget=0.46 * ramp)
        assert not cp.recompute_decoupling(rec, cfg, alpha=1.0, segment_k=0).any()
        assert np.array_equal(cp.recompute_decoupling(rec, cfg, alpha=1.0, segment_k=1),
                              [False, True])


class TestSharedFieldReference:
    """The coupling loops share one synthesis per admitted state between the
    next drift and Phi; here they are replayed by reference loops in which
    every drift and every Phi synthesises on its own (Stepper.drift, fn.phi)."""

    M, N = 32, 8

    def _setup(self, n=8):
        params = md.ModelParams(gamma=0.05, alpha=1.0, M=self.M)
        spec = nz.NoiseSpec.power_profile(self.N, 1.0, 2.0)
        rng = np.random.default_rng(31)
        k = np.arange(1, self.M + 1)
        u1 = 0.3 * (rng.standard_normal((n, self.M))
                    + 1j * rng.standard_normal((n, self.M))) / k**2
        u2 = u1 + 0.05 * (rng.standard_normal((n, self.M))
                          + 1j * rng.standard_normal((n, self.M))) / k
        return params, spec, u1, u2

    @staticmethod
    def _ref_step(st, u1, w, z, offset):
        """_weighted_step with each member's drift synthesising it afresh."""
        N, dt = st.spec.N, st.integ.dt
        lin1, linw = st.drift(u1), st.drift(w)
        noise = st.add_noise(np.zeros_like(lin1), z)  # 0 above the forced modes
        u1n, wn = lin1 + noise, linw + noise
        wn[:, :N] = u1n[:, :N] + offset
        dlw = cp._shift_logweight(lin1[:, :N] - linw[:, :N] + offset,
                                  nz.increments_from_normals(z, dt), st.spec.lambdas, dt)
        return u1n, wn, dlw

    @staticmethod
    def _close(x, y, rel=1e-12):
        assert np.max(np.abs(x - y) / np.maximum(np.abs(y), 1e-300)) <= rel

    def test_girsanov_attempt(self):
        params, spec, u1, u2 = self._setup()
        n = len(u1)
        cfg = cp.CouplingConfig(N=self.N, theta=1.0, beta=1e-3**0.1, T=0.025,
                                c4_hat=3.0, k41_hat=1.0, consts=CONSTS)
        integ = md.IntegratorConfig(dt=cfg.t1 / 50, scheme="expeuler", noise_mode="em")
        rep = cp.girsanov_attempt(u1, u2, cfg, params, integ, spec, seed=32, n_attempts=n)

        st = md.Stepper(params, integ, spec)
        zs = nz.EnsembleNoise(32, np.arange(n), spec.N).next_block(50)
        a, w = u1.copy(), u2.copy()
        delta0 = (u2 - u1)[:, :self.N]
        logw = np.zeros(n)
        phi1_0, phi2_0 = fn.phi(a, CONSTS), fn.phi(w, CONSTS)
        e1, e2 = fn.EnAccumulator(4, params.alpha), fn.EnAccumulator(4, params.alpha)
        e1.reset(phi1_0)
        e2.reset(phi2_0)
        for s in range(50):
            zeta = (cfg.t1 - (s + 1) * integ.dt) / cfg.t1
            a, w, dlw = self._ref_step(st, a, w, zs[:, s], zeta * delta0)
            logw += dlw
            e1.push(fn.phi(a, CONSTS), integ.dt)
            e2.push(fn.phi(w, CONSTS), integ.dt)
        slack = cfg.rho1 * np.sqrt(cfg.t1) + cfg.c4_hat * cfg.t1
        success = (e1.value() <= phi1_0**4 + slack) & (e2.value() <= phi2_0**4 + slack)

        assert not rep.state.excluded.any()
        assert 0 < success.sum() < n  # the budgets bind on some pairs, not all
        assert np.array_equal(rep.state.pair[0], a)
        w[:, :self.N] = a[:, :self.N]  # the coupled state starts pinned
        assert np.array_equal(rep.state.pair[1], w)
        assert np.array_equal(rep.log_weight, logw)
        assert np.array_equal(rep.success, success)

    def test_chained_segments(self):
        params, spec, u1, u2 = self._setup()
        cfg = cp.CouplingConfig(N=self.N, theta=100.0, beta=0.5, T=0.025, c4_hat=1.0,
                                k41_hat=1.0, consts=CONSTS, rho2=0.1)
        integ = md.IntegratorConfig(dt=1e-3, scheme="expeuler", noise_mode="em")
        st = md.Stepper(params, integ, spec)
        state = cp.make_coupled_state(u1, u2, cfg, CONSTS)
        a, w = state.pair[0].copy(), state.pair[1].copy()
        logw, budget = np.zeros(len(a)), np.zeros(len(a))
        e1, e2 = fn.EnAccumulator(4, params.alpha), fn.EnAccumulator(4, params.alpha)
        e1.reset(fn.phi(a, CONSTS))
        e2.reset(fn.phi(w, CONSTS))
        e4_bad = np.zeros(len(a), bool)
        bud_bad = np.zeros(len(a), bool)
        for k in range(3):
            seed = nz.derive_seed(33, f"segment-{k}")
            state, _ = cp.coupled_segment(state, cfg, params, integ, spec, seed)
            zs = nz.EnsembleNoise(seed, np.arange(len(a)), spec.N).next_block(25)
            cap_k = cfg.rho2 * np.exp(-0.25 * params.alpha * k * cfg.T)
            for s in range(25):
                a, w, dlw = self._ref_step(st, a, w, zs[:, s], 0.0)
                logw += dlw
                ph1, ph2 = fn.phi(a, CONSTS), fn.phi(w, CONSTS)
                e1.push(ph1, integ.dt)
                e2.push(ph2, integ.dt)
                budget += (1.0 + ph1**4 + ph2**4) * fn.norm_hr_sq(a - w, 1.0) * integ.dt
                cap = cfg.e4_budget(k * cfg.T + (s + 1) * integ.dt)
                e4_bad |= (e1.value() > cap) | (e2.value() > cap)
                bud_bad |= budget > cap_k
            assert not state.excluded.any()
            assert np.array_equal(state.pair[0], a)
            assert np.array_equal(state.pair[1], w)
            assert np.array_equal(state.log_weight, logw)
            assert np.array_equal(state.e4_crossed, e4_bad)
            assert np.array_equal(state.budget_crossed, bud_bad)
            assert np.array_equal(state.ell == cp.UNCOUPLED, e4_bad | bud_bad)
            self._close(state.e4.value()[0], e1.value())
            self._close(state.e4.value()[1], e2.value())
            self._close(state.budget_integral, budget)
        # both decoupling rules fire on some pairs and spare others
        assert 0 < e4_bad.sum() < len(a) and 0 < bud_bad.sum() < len(a)

    def test_pilot(self, monkeypatch):
        params, spec, _, _ = self._setup()
        n, T, dt, every = 8, 1.2, 2e-3, 25
        seen = {}

        def capture(*args, **kwargs):
            seen["rec"] = md.simulate_ensemble(*args, **kwargs)
            return seen["rec"]

        monkeypatch.setattr(cp, "simulate_ensemble", capture)
        pilot = cp.estimate_pilot_constants(params, spec, CONSTS, seed=34, n_traj=n,
                                            T=T, dt=dt, record_every=every)
        rec = seen["rec"]

        st = md.Stepper(params, md.IntegratorConfig(dt=dt, scheme="expeuler",
                                                    noise_mode="em"), spec)
        n_steps = int(round(T / dt))
        zs = nz.EnsembleNoise(34, np.arange(n), spec.N).next_block(n_steps)
        a = np.zeros((n, self.M), complex)
        e4 = fn.EnAccumulator(4, params.alpha)
        e4.reset(fn.phi(a, CONSTS))
        E4 = [e4.value()]
        for s in range(n_steps):
            a = st.step(a, zs[:, s])
            e4.push(fn.phi(a, CONSTS), dt)
            if (s + 1) % every == 0:
                E4.append(e4.value())
        E4 = np.array(E4)
        t = np.arange(len(E4)) * every * dt
        late = t >= 1.0
        c4 = float(np.quantile(E4[late] / t[late][:, None], 0.99))

        assert np.array_equal(rec.final, a)
        self._close(rec.energy.E4, E4)
        self._close(pilot.c4_hat, c4)

    def test_rebatched_pairs_alone(self):
        params, spec, u1, u2 = self._setup(n=4)
        u2 = u1 + 0.01 * (u2 - u1)  # keeps the log weights far from collapse
        cfg = cp.CouplingConfig(N=self.N, theta=1.0, beta=1e-3**0.1, T=0.01,
                                c4_hat=3.0, k41_hat=1.0, consts=CONSTS)
        bridge = md.IntegratorConfig(dt=cfg.t1 / 20, scheme="expeuler", noise_mode="em")
        integ = md.IntegratorConfig(dt=1e-3, scheme="expeuler", noise_mode="em")

        def run(rows):
            ids = np.asarray(rows)
            rep = cp.girsanov_attempt(u1[rows], u2[rows], cfg, params, bridge, spec,
                                      seed=35, n_attempts=len(ids), traj_ids=ids)
            state = rep.state
            for k in range(2):
                state, _ = cp.coupled_segment(state, cfg, params, integ, spec, 36 + k,
                                              traj_ids=ids)
            return rep, state

        rep, state = run([0, 1, 2, 3])
        for i in range(4):
            rep_i, state_i = run([i])
            for name in ("log_weight", "success"):
                assert np.array_equal(getattr(rep_i, name)[0], getattr(rep, name)[i])
            assert np.array_equal(state_i.pair[:, 0], state.pair[:, i])
            for name in ("log_weight", "budget_integral",
                         "e4_crossed", "budget_crossed", "ell"):
                assert np.array_equal(getattr(state_i, name)[0], getattr(state, name)[i]), name
            assert state_i.e4.value()[0, 0] == state.e4.value()[0, i]
            assert state_i.e4.value()[1, 0] == state.e4.value()[1, i]
