
import numpy as np
import pytest

from glnls import coupling as cp
from glnls import functionals as fn
from glnls import models as md
from glnls import noise as nz
from glnls import stats as st
from glnls.spectral import basis_mode

CONSTS = fn.FunctionalConstants()


def dist(k, u1, u2):
    """d_k(u1, u2) = min(||u1 - u2||_{H^k}, 1), batched."""
    return np.minimum(np.sqrt(fn.norm_hr_sq(u1 - u2, float(k))), 1.0)


def rand_measure(rng, n, M=6, weighted=False, scale=1.0):
    # at scale 1 every d0 cost is capped at 1; scale 0.1 keeps them below the cap
    A = scale * (rng.standard_normal((n, M)) + 1j * rng.standard_normal((n, M)))
    if weighted:
        w = rng.integers(1, 4, size=n).astype(float)
        return st.EmpiricalMeasure(A, w / w.sum())
    return st.EmpiricalMeasure(A)


class TestEmpiricalMeasure:
    def test_weight_validation(self):
        with pytest.raises(ValueError):
            st.EmpiricalMeasure(np.zeros((2, 3), complex), np.array([0.5, 0.6]))
        with pytest.raises(ValueError):
            st.EmpiricalMeasure(np.zeros((2, 3), complex), np.array([-0.2, 1.2]))


class TestWasserstein:
    def test_self_distance_zero(self):
        rng = np.random.default_rng(0)
        emp = rand_measure(rng, 5)
        assert st.wasserstein(emp, emp, "d0").value == pytest.approx(0.0, abs=1e-12)

    def test_self_distance_exactly_zero(self):
        # costs from differences vanish on coincident samples, so the
        # assignment route gives exactly 0, value and certificate gap
        rng = np.random.default_rng(10)
        k = np.arange(1, 65)
        for n in (32, 80):
            emp = st.EmpiricalMeasure(0.5 * (rng.standard_normal((n, 64))
                                             + 1j * rng.standard_normal((n, 64))) / k**2)
            for ground in ("d0", "d1", "d0xi"):
                res = st.wasserstein(emp, emp, ground, xi=0.05)
                assert res.value == 0.0 and res.gap == 0.0

    def test_pairwise_costs_from_differences(self):
        # every entry is the H^k norm of the explicit difference, the same
        # whatever other rows A and B hold, and symmetric
        rng = np.random.default_rng(11)
        A = rng.standard_normal((7, 64)) + 1j * rng.standard_normal((7, 64))
        B = A[3] + 1e-6 * (rng.standard_normal((5, 64)) + 1j * rng.standard_normal((5, 64)))
        for k in (0, 1):
            C = st.pairwise_hk(A, B, k)
            expect = np.sqrt(fn.norm_hr_sq(A[:, None, :] - B[None, :, :], k))
            assert np.max(np.abs(C / expect - 1.0)) <= 1e-14
            for j in range(5):
                assert np.array_equal(st.pairwise_hk(A, B[j:j + 1], k)[:, 0], C[:, j])
                assert np.array_equal(st.pairwise_hk(A[2:4], B[j:j + 1], k)[:, 0], C[2:4, j])
            assert np.array_equal(st.pairwise_hk(B, A, k), C.T)

    def test_two_diracs(self):
        u1 = basis_mode(4, 1)
        u2 = 0.25 * basis_mode(4, 2)
        got = st.wasserstein(
            st.EmpiricalMeasure(u1[None]), st.EmpiricalMeasure(u2[None]), "d0"
        ).value
        assert got == pytest.approx(float(dist(0, u1, u2)), rel=1e-12)

    def test_two_point_best_pairing(self):
        rng = np.random.default_rng(1)
        A = rng.standard_normal((2, 4)) + 0j
        B = rng.standard_normal((2, 4)) + 0j
        C = st.cost_matrix(st.EmpiricalMeasure(A), st.EmpiricalMeasure(B), "d0")
        manual = min(C[0, 0] + C[1, 1], C[0, 1] + C[1, 0]) / 2.0
        got = st.wasserstein(st.EmpiricalMeasure(A), st.EmpiricalMeasure(B), "d0")
        assert got.value == pytest.approx(manual, rel=1e-12)

    def test_lp_matches_enumeration(self):
        rng = np.random.default_rng(2)
        for trial in range(25):
            n = int(rng.integers(1, 7))
            ea = rand_measure(rng, n, weighted=trial % 2 == 0, scale=0.1)
            eb = rand_measure(rng, int(rng.integers(1, 7)) if trial % 2 else n, scale=0.1)
            try:
                bf = st.wasserstein_bruteforce(ea, eb, "d0")
            except ValueError:
                continue
            lp = st.wasserstein(ea, eb, "d0")
            assert abs(lp.value - bf) < 1e-10
            assert lp.gap < 1e-8

    def test_dual_never_exceeds_primal(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            ea = rand_measure(rng, int(rng.integers(1, 8)))
            eb = rand_measure(rng, int(rng.integers(1, 8)))
            primal = st.wasserstein(ea, eb, "d0").value
            dual = st.dual_lower_bound(ea, eb, "d0")
            assert dual <= primal + 1e-9

    def test_dual_tight_on_far_diracs(self):
        # the distance cap around the reference point 0, min(||u||_H, 1),
        # separates delta_{e1} from delta_0 exactly
        e1 = basis_mode(4, 1)
        ea = st.EmpiricalMeasure(e1[None])
        eb = st.EmpiricalMeasure(np.zeros((1, 4), complex))
        dual = st.dual_lower_bound(ea, eb, "d0")
        primal = st.wasserstein(ea, eb, "d0").value
        assert dual == pytest.approx(1.0, rel=1e-12)
        assert primal == pytest.approx(1.0, rel=1e-12)

    def test_triangle_inequality_metric_costs(self):
        rng = np.random.default_rng(4)
        for ground in ("d0", "d1"):
            for _ in range(20):
                a = rand_measure(rng, 4)
                b = rand_measure(rng, 4)
                c = rand_measure(rng, 4)
                ab = st.wasserstein(a, b, ground).value
                bc = st.wasserstein(b, c, ground).value
                ac = st.wasserstein(a, c, ground).value
                assert ac <= ab + bc + 1e-9

    @pytest.mark.parametrize("na, nb, weighted", [(64, 64, True), (7, 9, False),
                                                  (65, 65, True), (65, 66, False)])
    def test_lp_route(self, na, nb, weighted):
        # a weighted pair or unequal sizes: the LP, with its gap
        rng = np.random.default_rng(7)
        ea, eb = rand_measure(rng, na, weighted=weighted), rand_measure(rng, nb)
        got = st.wasserstein(ea, eb, "d0")
        ref = st._solve_lp(st.cost_matrix(ea, eb, "d0"), ea.weights, eb.weights)
        assert got.value == ref.value and got.gap == ref.gap < 1e-8
        assert np.array_equal(got.plan, ref.plan)

    def test_lp_certificate_covers_its_excess(self, monkeypatch):
        # a uniform 128 x 128 d0xi pair of unit-scale fields, solved as the LP:
        # HiGHS stops 2.6e-9 above the assignment optimum, and its own column
        # duals break u_i + v_j <= C_ij by 8.8e-8 and certify a gap of 4e-16;
        # the column potentials it is given instead are feasible, so its gap
        # is a true bound on that excess
        rng = np.random.default_rng(0)
        ea, eb = (st.EmpiricalMeasure(rng.standard_normal((128, 6))
                                      + 1j * rng.standard_normal((128, 6))) for _ in range(2))
        C = st.cost_matrix(ea, eb, "d0xi", xi=0.05)
        seen = []
        project = st._column_potentials

        def recorded(C, u):
            seen.append((u, project(C, u)))
            return seen[-1][1]

        monkeypatch.setattr(st, "_column_potentials", recorded)
        lp = st._solve_lp(C, ea.weights, eb.weights)
        (u, v), = seen
        assert np.all(u[:, None] + v[None, :] <= C + 1e-15)
        assert lp.gap >= lp.value - st._solve_assignment(C).value

    @pytest.mark.parametrize("n", [1, 2, 32, 64, 65, 100, 128])
    def test_assignment_route(self, n):
        # a uniform equal-size pair, at any size: the assignment solver, whose
        # potentials are dual-feasible and close the gap to the LP's value
        from scipy.optimize import linear_sum_assignment

        rng = np.random.default_rng(8)
        ea, eb = rand_measure(rng, n, scale=0.1), rand_measure(rng, n, scale=0.1)
        for ground in ("d0", "d0xi"):
            C = st.cost_matrix(ea, eb, ground, xi=0.05)
            got = st.wasserstein(ea, eb, ground, xi=0.05)
            ref = st._solve_lp(C, ea.weights, eb.weights)
            assert got.plan is None
            assert abs(got.value - ref.value) <= 1e-12 and got.gap <= 1e-12
            u, v = st._assignment_duals(C, linear_sum_assignment(C)[1])
            assert np.all(u[:, None] + v[None, :] <= C + 1e-15)

    def test_certificate_rejects_a_suboptimal_assignment(self):
        # potentials built from a non-optimal permutation stay dual-feasible,
        # so the gap is at least that permutation's excess over the optimum
        from scipy.optimize import linear_sum_assignment

        rng = np.random.default_rng(12)
        ea, eb = rand_measure(rng, 32, scale=0.1), rand_measure(rng, 32, scale=0.1)
        C = st.cost_matrix(ea, eb, "d0")
        best = linear_sum_assignment(C)[1]
        rows = np.arange(32)
        for cols in (np.roll(best, 1), best[[1, 0, *range(2, 32)]]):
            u, v = st._assignment_duals(C, cols)
            cost = C[rows, cols].mean()
            gap = abs(cost - (u.mean() + v.mean()))
            assert np.all(u[:, None] + v[None, :] <= C + 1e-15)
            assert gap > 1e-6 and gap >= cost - C[rows, best].mean() - 1e-15

    def test_exact_above_512_samples(self):
        # 520 against 520 is solved whole, not estimated from subsamples
        from scipy.optimize import linear_sum_assignment

        rng = np.random.default_rng(5)
        ea, eb = (st.EmpiricalMeasure(0.1 * rand_measure(rng, 520, M=4).samples)
                  for _ in range(2))  # costs well below the cap of 1
        C = st.cost_matrix(ea, eb, "d0")
        ri, cj = linear_sum_assignment(C)
        assert st.wasserstein(ea, eb, "d0").value == C[ri, cj].mean()
        assert st.wasserstein(ea, ea, "d0").value == 0.0

    def test_d0xi_cost_and_gap(self):
        rng = np.random.default_rng(6)
        ea, eb = rand_measure(rng, 4), rand_measure(rng, 4)
        res = st.wasserstein(ea, eb, "d0xi", xi=0.05)
        assert res.gap < 1e-8
        dual = st.dual_lower_bound(ea, eb, "d0xi")
        assert dual <= res.value + 1e-9


class TestRateFits:
    def test_power_law_recovery(self):
        x = np.geomspace(1e-4, 1e-1, 8)
        y = 3.0 * x**1.25
        f = st.fit_power_law(x, y)
        assert f.exponent == pytest.approx(1.25, abs=1e-10)
        assert f.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_exponential_recovery_with_noise(self):
        rng = np.random.default_rng(7)
        t = np.linspace(0, 10, 30)
        y = 2.0 * np.exp(-0.7 * t) * np.exp(0.01 * rng.standard_normal(30))
        f = st.fit_exponential(t, y)
        assert f.exponent == pytest.approx(0.7, abs=0.01)
        assert f.residual > 0.0  # residual reported, never hidden


class TestMixing:
    def test_identical_start_zero_curve(self):
        params = md.ModelParams(gamma=0.05, alpha=1.0, M=16)
        spec = nz.NoiseSpec.power_profile(4, 0.1, 2.0)
        u = 0.4 * basis_mode(16, 1)
        c = st.mixing_curve(u, u, params, spec, np.linspace(0, 1, 5), 8, seed=8,
                            integ=md.IntegratorConfig(dt=5e-3))
        assert np.all(c.upper_d1 == 0.0)

    def test_decay_and_dual_below_upper(self):
        params = md.ModelParams(gamma=0.05, alpha=1.0, M=16)
        spec = nz.NoiseSpec.power_profile(4, 0.05, 2.0)
        c = st.mixing_curve(basis_mode(16, 1), basis_mode(16, 2), params, spec,
                            np.linspace(0, 8, 9), 32, seed=9,
                            integ=md.IntegratorConfig(dt=5e-3))
        assert c.upper_d1[-1] < c.upper_d1[0]
        upper_at_dual = np.interp(c.dual_t, c.t, c.upper_d1)
        assert np.all(c.dual_lower <= upper_at_dual + 1e-9)

    def test_stacked_pair_matches_member_loop(self):
        # 64 pairs at M = 64: the stacked kick product reaches 256 KiB
        M, E, dt = 64, 64, 5e-3
        params = md.ModelParams(gamma=0.01, alpha=1.0, M=M)
        spec = nz.NoiseSpec.power_profile(8, 0.3, 2.0)
        integ = md.IntegratorConfig(dt=dt)
        u1 = 0.3 * basis_mode(M, 1)
        u2 = u1 + 0.01 * basis_mode(M, 2)
        c = st.mixing_curve(u1, u2, params, spec, [0.0, 0.05, 0.1], E, seed=9,
                            integ=integ, dual_checkpoints=0)
        stepper = md.Stepper(params, integ, spec)
        zs = nz.EnsembleNoise(9, np.arange(E), spec.N).next_block(20)
        s1 = np.tile(u1, (E, 1))
        s2 = np.tile(u2, (E, 1))
        c1, c2 = stepper.open(s1), stepper.open(s2)
        up1 = [np.mean(dist(1, s1, s2))]
        up0 = [np.mean(dist(0, s1, s2))]
        for s in range(20):
            s1, c1 = stepper.advance(c1, zs[:, s])
            s2, c2 = stepper.advance(c2, zs[:, s])
            if s in (9, 19):
                up1.append(np.mean(dist(1, s1, s2)))
                up0.append(np.mean(dist(0, s1, s2)))
        assert np.array_equal(c.upper_d1, up1)
        assert np.array_equal(c.upper_d0, up0)

    def test_pair_falls_with_either_member(self):
        # u2 crosses the guard in some pairs and u1 in none: exactly those
        # pairs are excluded, and the means run over the others
        M, E, dt, n, every = 16, 8, 2e-3, 60, 10
        params = md.ModelParams(gamma=0.05, alpha=1.0, M=M)
        spec = nz.NoiseSpec.power_profile(4, 0.3, 2.0)
        integ = md.IntegratorConfig(dt=dt, record_every=every, blowup_guard=1.35)
        u1, u2 = 0.05 * basis_mode(M, 1), 0.4 * basis_mode(M, 1)
        rec1, rec2 = (md.simulate_ensemble(u, params, integ, spec, n * dt, seed=2,
                                           traj_ids=np.arange(E)) for u in (u1, u2))
        c = st.mixing_curve(u1, u2, params, spec, dt * np.array(md.record_schedule(n, every)),
                            E, seed=2, integ=integ, dual_checkpoints=0)
        assert not rec1.excluded.any() and 0 < rec2.excluded.sum() < E
        assert np.array_equal(c.excluded, rec2.excluded)
        live = ~c.excluded
        assert c.upper_d1[-1] == np.mean(dist(1, rec1.final, rec2.final)[live])

    @pytest.mark.parametrize("noise_mode", md.NOISE_MODES)
    def test_gamma_tuple_matches_per_gamma_calls(self, noise_mode):
        # 48 pairs at M = 32: the three-gamma kick product (2, 3, 48, 64)
        # reaches 256 KiB, a single gamma's (2, 48, 64) does not
        M, E = 32, 48
        gammas = (0.0, 0.01, 0.1)
        spec = nz.NoiseSpec.power_profile(8, 0.3, 2.0)
        integ = md.IntegratorConfig(dt=5e-3, noise_mode=noise_mode)
        u1 = 0.3 * basis_mode(M, 1)
        u2 = u1 + 0.01 * basis_mode(M, 2)

        def curve(gamma):
            return st.mixing_curve(u1, u2, md.ModelParams(gamma=gamma, alpha=1.0, M=M), spec,
                                   np.linspace(0.0, 0.2, 5), E, seed=12, integ=integ)

        curves = curve(gammas)
        assert len(curves) == len(gammas)
        for g, c in zip(gammas, curves):
            ref = curve(g)
            assert c.fit is not None and c.fit == ref.fit
            assert len(c.dual_t) == 4
            for name in ("t", "upper_d1", "upper_d0", "dual_t", "dual_lower", "excluded"):
                assert np.array_equal(getattr(c, name), getattr(ref, name)), (g, name)

    def test_guard_crossing_excludes_its_block_only(self):
        # u2 crosses the guard in pairs 1, 2, 4, 6 and 7 at gamma = 0.05 and
        # in pairs 1 and 6 at gamma = 0.5: in the stacked run pairs 2, 4 and 7
        # fall in the first block alone
        M, E, dt, n, every = 16, 8, 2e-3, 60, 10
        spec = nz.NoiseSpec.power_profile(4, 0.3, 2.0)
        integ = md.IntegratorConfig(dt=dt, record_every=every, blowup_guard=1.35)
        u1, u2 = 0.05 * basis_mode(M, 1), 0.4 * basis_mode(M, 1)
        t_grid = dt * np.array(md.record_schedule(n, every))

        def curve(gamma):
            return st.mixing_curve(u1, u2, md.ModelParams(gamma=gamma, alpha=1.0, M=M), spec,
                                   t_grid, E, seed=2, integ=integ, dual_checkpoints=0)

        stacked = curve((0.05, 0.5))
        alone = [curve(0.05), curve(0.5)]
        assert np.flatnonzero(alone[0].excluded).tolist() == [1, 2, 4, 6, 7]
        assert np.flatnonzero(alone[1].excluded).tolist() == [1, 6]
        for c, ref in zip(stacked, alone):
            assert np.array_equal(c.excluded, ref.excluded)
            assert np.array_equal(c.upper_d1, ref.upper_d1)


def inviscid_reference(u0, gammas, T, E, seed, M, spec, R, dt):
    """The per-gamma loop: each gamma re-steps its own gamma = 0 reference."""
    integ = md.IntegratorConfig(dt=dt, scheme="strang", noise_mode="em")
    n_steps = int(round(T / dt))
    out = []
    for g in sorted(gammas):
        st_g = md.Stepper(md.ModelParams(gamma=g, alpha=1.0, M=M, truncation=R), integ, spec)
        st_0 = md.Stepper(md.ModelParams(gamma=0.0, alpha=1.0, M=M, truncation=R), integ, spec)
        zs = nz.EnsembleNoise(seed, np.arange(E), spec.N).next_block(n_steps)
        a = np.tile(np.asarray(u0, complex), (E, 1))
        b = a.copy()
        ca, cb = st_g.open(a), st_0.open(b)
        sup = np.zeros(E)
        for s in range(n_steps):
            a, ca = st_g.advance(ca, zs[:, s])
            b, cb = st_0.advance(cb, zs[:, s])
            sup = np.maximum(sup, fn.norm_hr_sq(a - b, 0.0))
        out.append((np.mean(np.sqrt(sup)), np.mean(sup), np.std(sup) / np.sqrt(E)))
    return np.array(out).T


N_STEPS, STRIDE, DT = 300, 7, 1e-3
STEPPING_DRIVERS = ["simulate_ensemble", "invariant_measure_sample", "pinned_contraction_run",
                    "girsanov_attempt", "coupled_segment", "mixing_curve", "inviscid_curve"]


def run_stepping_driver(name, gamma=0.05):
    """Run one driver for N_STEPS steps at record stride STRIDE; return its
    record times, or None for a driver without records."""
    M, N, T = 8, 2, N_STEPS * DT
    params = md.ModelParams(gamma=gamma, alpha=1.0, M=M)
    spec = nz.NoiseSpec.power_profile(N, 0.2, 2.0)
    u = 0.3 * basis_mode(M, 1)
    integ = md.IntegratorConfig(dt=DT, record_every=STRIDE)
    em = md.IntegratorConfig(dt=DT, scheme="expeuler", noise_mode="em", record_every=STRIDE)
    cfg = cp.CouplingConfig(N=N, theta=1e6, beta=0.5, T=T, c4_hat=1e6, t1=T, r1=0.5)
    if name == "simulate_ensemble":
        return md.simulate_ensemble(u, params, integ, spec, T, seed=1,
                                    traj_ids=np.arange(2)).times
    if name == "invariant_measure_sample":
        # the first of 5 samples 0.01 apart past a burn-in of 0.25 is step
        # 260, so the run ends on step 300
        st.invariant_measure_sample(params, spec, burn_in=0.25, n_samples=5, thinning=0.01,
                                    seed=1, dt=DT, u0=u)
        return None
    if name == "pinned_contraction_run":
        return cp.pinned_contraction_run(u, u, params, integ, spec, N=N, T=T, seed=1,
                                         n_pairs=2)[0]
    if name == "girsanov_attempt":
        cp.girsanov_attempt(u, 0.5 * u, cfg, params, em, spec, seed=1, n_attempts=2)
        return None
    if name == "coupled_segment":
        state = cp.make_coupled_state(np.tile(u, (2, 1)), np.tile(u, (2, 1)), cfg, CONSTS)
        return cp.coupled_segment(state, cfg, params, em, spec, seed=1)[1].times
    if name == "mixing_curve":
        t_grid = DT * np.r_[0:N_STEPS:STRIDE, N_STEPS]
        return st.mixing_curve(u, 0.5 * u, params, spec, t_grid, 2, seed=1,
                               integ=integ, dual_checkpoints=0).t
    st.inviscid_curve(u, [0.0, 1e-3, 1e-2, 1e-1, 0.2], T=T, ensemble_size=2, seed=16,
                      alpha=1.0, M=M, spec=nz.NoiseSpec.power_profile(4, 0.2, 2.0), dt=DT)
    return None


class TestInviscid:
    @pytest.mark.parametrize("gammas", [
        [0.0, 1e-3, 1e-2, 1e-1],
        [1e-2, 1e-3, 1e-1],
        [1e-2, 0.0, 1e-3, 1e-2, 1e-1],
    ], ids=["with-zero", "without-zero", "duplicate"])
    def test_stacked_matches_per_gamma_loop(self, gammas):
        M, E, T, dt, R = 32, 12, 0.1, 1e-3, 2.0
        spec = nz.NoiseSpec(0.3 * np.arange(1, M + 1, dtype=float) ** -1.5)
        u0 = 0.5 * np.exp(0.4j) * basis_mode(M, 1)
        curve = st.inviscid_curve(u0, gammas, T, E, seed=15, alpha=1.0, M=M, spec=spec,
                                  truncated=True, R=R, dt=dt)
        err, err_sq, se = inviscid_reference(u0, gammas, T, E, 15, M, spec, R, dt)
        assert np.array_equal(curve.gammas, sorted(gammas))
        assert np.array_equal(curve.mean_sup_err, err)
        assert np.array_equal(curve.mean_sup_err_sq, err_sq)
        assert np.array_equal(curve.se_sup_err_sq, se)
        assert np.all(curve.excluded == 0)
        assert np.all(curve.mean_sup_err[curve.gammas == 0.0] == 0.0)

    @pytest.mark.parametrize("driver", STEPPING_DRIVERS)
    def test_one_noise_block_per_256_steps(self, monkeypatch, driver):
        calls = []
        next_block = nz.EnsembleNoise.next_block

        def counted(self, n_steps):
            calls.append(n_steps)
            return next_block(self, n_steps)

        monkeypatch.setattr(nz.EnsembleNoise, "next_block", counted)
        times = run_stepping_driver(driver)
        assert calls == [256, N_STEPS - 256]  # ceil(N_STEPS / 256) blocks
        if times is not None:
            # the stride does not divide N_STEPS; the last step is recorded all the same
            assert np.allclose(times, DT * np.r_[0:N_STEPS:STRIDE, N_STEPS])

    @pytest.mark.parametrize("driver", STEPPING_DRIVERS[:5])
    def test_one_gamma_drivers_reject_a_gamma_tuple(self, driver):
        with pytest.raises(ValueError, match="steps one gamma, not the tuple"):
            run_stepping_driver(driver, gamma=(0.05, 0.1))

    def test_pair_falls_with_its_reference_row(self):
        # at this guard the reference row crosses in pairs 0, 1, 3 and 5,
        # the gamma = 0.1 row in pairs 1 and 5 and the gamma = 0.5 row in
        # pair 7 alone: pair 7 is excluded for gamma = 0.5 only
        M, E, dt, n, guard = 8, 8, 0.05, 3, 2.19
        spec = nz.NoiseSpec.power_profile(2, 1.0, 1.0)
        gammas = [0.0, 0.1, 0.5]
        curve = st.inviscid_curve(np.zeros(M, complex), gammas, n * dt, E, seed=9,
                                  alpha=1.0, M=M, spec=spec, dt=dt, blowup_guard=guard)
        # each gamma's rows stepped on their own, with no guard
        integ = md.IntegratorConfig(dt=dt, scheme="strang", noise_mode="em")
        zs = nz.EnsembleNoise(9, np.arange(E), spec.N).next_block(n)
        rows = {}
        for g in gammas:
            stepper = md.Stepper(md.ModelParams(gamma=g, alpha=1.0, M=M), integ, spec)
            c, states = stepper.open(np.zeros((E, M), complex)), []
            for s in range(n):
                a, c = stepper.advance(c, zs[:, s])
                states.append(a)
            rows[g] = np.array(states)
        crossed = {g: np.any(fn.norm_hr_sq(x, 1.0) > guard**2, axis=0) for g, x in rows.items()}
        assert np.flatnonzero(crossed[0.0]).tolist() == [0, 1, 3, 5]
        assert np.flatnonzero(crossed[0.1]).tolist() == [1, 5]
        assert np.flatnonzero(crossed[0.5]).tolist() == [7]
        assert curve.excluded.tolist() == [4, 4, 5]
        for i, g in enumerate(gammas[1:], start=1):
            live = ~(crossed[0.0] | crossed[g])
            sup = np.max(fn.norm_hr_sq(rows[g] - rows[0.0], 0.0), axis=0)
            assert curve.mean_sup_err_sq[i] == np.mean(sup[live])

    @pytest.mark.filterwarnings("ignore:overflow|invalid value:RuntimeWarning")
    def test_nonfinite_pairs_excluded(self):
        # |u|^2 overflows to inf, so the first kick turns every state into NaN
        spec = nz.NoiseSpec.power_profile(4, 0.2, 2.0)
        curve = st.inviscid_curve(1e200 * basis_mode(16, 1), [0.0, 1e-3, 1e-2, 1e-1],
                                  T=0.01, ensemble_size=4, seed=17, alpha=1.0, M=16,
                                  spec=spec, dt=2e-3)
        assert np.all(curve.excluded == 4)
        assert np.all(np.isnan(curve.mean_sup_err_sq))
        assert curve.fit is None

    def test_gamma_zero_is_exact_zero(self):
        spec = nz.NoiseSpec.power_profile(4, 0.2, 2.0)
        curve = st.inviscid_curve(0.3 * basis_mode(16, 1), [0.0, 0.05], T=0.2,
                                  ensemble_size=4, seed=10, alpha=1.0, M=16,
                                  spec=spec, dt=2e-3)
        i0 = int(np.argmin(curve.gammas))
        assert curve.mean_sup_err_sq[i0] == 0.0

    def test_error_increases_with_gamma(self):
        spec = nz.NoiseSpec.power_profile(4, 0.2, 2.0)
        curve = st.inviscid_curve(0.3 * basis_mode(16, 1), [1e-3, 1e-2, 1e-1],
                                  T=0.5, ensemble_size=16, seed=11, alpha=1.0,
                                  M=16, spec=spec, dt=1e-3)
        assert np.all(np.diff(curve.mean_sup_err_sq) > 0)
        assert curve.fit is not None


class TestMoments:
    def test_mass_growth_and_saturation(self):
        # from u0 = 0: E||u||^2 <= 2 Tr t early and saturates near Tr/alpha
        M = 16
        spec = nz.NoiseSpec.power_profile(4, 0.2, 2.0)
        params = md.ModelParams(gamma=0.0, alpha=1.0, M=M)
        rec = md.simulate_ensemble(np.zeros(M, complex), params,
                                   md.IntegratorConfig(dt=5e-3, record_every=20), spec, 8.0,
                                   seed=12, traj_ids=np.arange(400))
        tr = nz.traces(spec).tr_qq
        t, m1 = rec.times, rec.energy.H.mean(axis=1)
        early = t <= 0.2
        assert np.all(m1[early] <= 2 * tr * np.maximum(t[early], 0) + 1e-9)
        # closed form at gamma = 0: E||u||^2 = Tr (1 - e^{-2 alpha t})/alpha
        closed = tr * (1 - np.exp(-2 * t)) / 1.0
        se = closed / np.sqrt(400) * np.sqrt(2.0) + 1e-12
        assert np.all(np.abs(m1 - closed) <= 4 * se + 5e-4)
        assert m1[-1] <= tr / 1.0 * 1.2

    def test_deterministic_decay_to_zero(self):
        M = 16
        params = md.ModelParams(gamma=0.0, alpha=1.0, M=M)
        rec = md.simulate_ensemble(0.5 * basis_mode(M, 1), params,
                                   md.IntegratorConfig(dt=5e-3, record_every=100),
                                   nz.NoiseSpec(np.zeros(0)), 10.0, seed=13,
                                   traj_ids=np.arange(2))
        mean_phi = np.maximum(rec.energy.phi, 0.0).mean(axis=1)
        assert mean_phi[-1] < 1e-4 * mean_phi[0]


def ito_residuals(params, spec, T, n_checkpoints, ensemble_size, seed, dt=5e-3):
    """Per-trajectory residuals of the integrated mean-energy identity over
    each checkpoint interval, Delta||u||^2 + int (2 gamma ||u||_H1^2
    + 2 alpha ||u||^2) ds - 2 Tr(QQ*) Delta t, which has mean zero."""
    integ = md.IntegratorConfig(dt=dt, record_every=int(round(T / dt)) // n_checkpoints)
    rec = md.simulate_ensemble(np.zeros(params.M, complex), params, integ, spec, T, seed,
                               traj_ids=np.arange(ensemble_size), track_mass_integrals=True)
    return (np.diff(rec.energy.H, axis=0)
            + 2.0 * params.gamma * np.diff(rec.mass_int_h1, axis=0)
            + 2.0 * params.alpha * np.diff(rec.mass_int_h, axis=0)
            - 2.0 * nz.traces(spec).tr_qq * np.diff(rec.times)[:, None])


class TestMassIdentity:
    def test_residuals_unbiased(self):
        params = md.ModelParams(gamma=0.05, alpha=1.0, M=32)
        spec = nz.NoiseSpec.power_profile(4, 0.1, 2.0)
        res = ito_residuals(params, spec, T=4.0, n_checkpoints=8, ensemble_size=300, seed=15)
        se = res.std(axis=1) / np.sqrt(res.shape[1])
        assert np.all(np.abs(res.mean(axis=1)) <= 3.0 * se)

    def test_error_bars_shrink_like_root_n(self):
        params = md.ModelParams(gamma=0.05, alpha=1.0, M=16)
        spec = nz.NoiseSpec.power_profile(4, 0.1, 2.0)
        small, big = (ito_residuals(params, spec, T=1.0, n_checkpoints=2, ensemble_size=n,
                                    seed=16) for n in (100, 400))
        ratio = (small.std(axis=1) / np.sqrt(100)).mean() / (big.std(axis=1) / np.sqrt(400)).mean()
        assert ratio == pytest.approx(2.0, rel=0.35)


class TestTails:
    def test_monotone_and_vanishing(self):
        M = 16
        params = md.ModelParams(gamma=0.05, alpha=1.0, M=M)
        spec = nz.NoiseSpec.power_profile(4, 0.3, 2.0)
        rho = np.geomspace(1e-2, 1e4, 10)
        rep = st.tail_experiment(params, spec, np.zeros(M, complex), n=4, p=1.0,
                                 rho_grid=rho, T=4.0, ensemble_size=100,
                                 seed=17, dt=2e-3, record_every=5)
        assert np.all(np.diff(rep.frequency) <= 1e-12)
        assert rep.frequency[-1] == 0.0
        assert rep.c_n_hat > 0

    def test_en_off_stride_grid_matches_ensemble_budget(self):
        # records at 0, 0.1, ..., 1.2 and 1.25: the last gap is half a stride,
        # and the E_4 behind c_n_hat must be simulate_ensemble's gap-aware one
        M, T, dt, every, B = 16, 1.25, 1e-2, 10, 32
        params = md.ModelParams(gamma=0.05, alpha=1.0, M=M)
        spec = nz.NoiseSpec.power_profile(4, 0.3, 2.0)
        u0 = np.zeros(M, complex)
        rep = st.tail_experiment(params, spec, u0, n=4, p=1.0, rho_grid=[1.0], T=T,
                                 ensemble_size=B, seed=19, dt=dt, record_every=every)
        rec = md.simulate_ensemble(u0, params, md.IntegratorConfig(dt=dt, record_every=every),
                                   spec, T, seed=19, traj_ids=np.arange(B))
        t = rec.times
        assert t[-1] - t[-2] == pytest.approx(0.05)
        # tail_experiment's E_4: one accumulator pushed with each record's gap
        acc = fn.EnAccumulator(4, params.alpha)
        acc.reset(rec.energy.phi[0])
        gaps = np.diff(md.record_schedule(125, every))
        en = [acc.value()] + [acc.push(ph, dt * g) for ph, g in zip(rec.energy.phi[1:], gaps)]
        assert np.array_equal(en, rec.energy.E4)
        late = t >= 1.0
        expect = np.quantile(rec.energy.E4[late] / t[late][:, None], 0.99)
        assert rep.c_n_hat == expect

    def test_frozen_trajectories_left_out(self):
        # at a guard of 1.3 trajectories 5, 6 and 7 cross: the report is that
        # of trajectories 0..4 alone; with all of them frozen nothing is left
        params = md.ModelParams(gamma=0.05, alpha=1.0, M=16)
        spec = nz.NoiseSpec.power_profile(4, 0.1, 2.0)
        kw = dict(n=4, p=1.0, rho_grid=np.geomspace(1e-3, 10.0, 5), T=1.0, seed=30)
        u0 = 0.4 * basis_mode(16, 1)
        rep = st.tail_experiment(params, spec, u0, ensemble_size=8, blowup_guard=1.3, **kw)
        alone = st.tail_experiment(params, spec, u0, ensemble_size=5, **kw)
        assert rep.excluded == 3 and alone.excluded == 0
        assert np.array_equal(rep.frequency, alone.frequency)
        assert rep.c_n_hat == alone.c_n_hat
        frozen = st.tail_experiment(params, spec, u0, ensemble_size=8, blowup_guard=0.01, **kw)
        assert frozen.excluded == 8
        assert np.all(np.isnan(frozen.frequency)) and np.isnan(frozen.c_n_hat)

    def test_rate_fits_need_t_at_least_one(self):
        # c_n_hat and the pilot's c4_hat are fitted over t >= 1
        params = md.ModelParams(gamma=0.05, alpha=1.0, M=8)
        spec = nz.NoiseSpec.power_profile(2, 0.1, 2.0)
        with pytest.raises(ValueError, match="t >= 1"):
            st.tail_experiment(params, spec, np.zeros(8, complex), n=4, p=1.0,
                               rho_grid=[0.1], T=0.5, ensemble_size=2, seed=1)
        with pytest.raises(ValueError, match="t >= 1"):
            cp.estimate_pilot_constants(params, spec, fn.FunctionalConstants(), seed=1,
                                        n_traj=2, T=0.5)


class TestInvariantMeasure:
    def test_deterministic_limit_is_delta_zero(self):
        M = 16
        params = md.ModelParams(gamma=0.05, alpha=1.0, M=M)
        emp, diag = st.invariant_measure_sample(params, nz.NoiseSpec(np.zeros(0)),
                                                burn_in=20.0, n_samples=8,
                                                thinning=0.5, seed=18, dt=5e-3,
                                                u0=0.5 * basis_mode(M, 1))
        assert np.all(fn.norm_hr_sq(emp.samples, 0.0) < 1e-12)

    def test_ergodic_consistency_and_gamma_trend(self):
        M, burn_in, n_samples, dt = 16, 20.0, 96, 5e-3
        spec = nz.NoiseSpec.power_profile(4, 0.2, 2.0)

        def measure(g, tag):
            params = md.ModelParams(gamma=g, alpha=1.0, M=M)
            return st.invariant_measure_sample(params, spec, burn_in=burn_in,
                                               n_samples=n_samples, thinning=1.0,
                                               seed=nz.derive_seed(19, tag), dt=dt)

        ref, diag0 = measure(0.0, "g0")
        # the sampler forms its Strang state only at its records, every
        # stride: the same chain forming it on every step gives the samples
        # bit for bit
        stride = int(round(1.0 / dt))
        n_steps = int(round(burn_in / dt)) + n_samples * stride
        full = md.simulate_ensemble(
            np.zeros(M, complex), md.ModelParams(gamma=0.0, alpha=1.0, M=M),
            md.IntegratorConfig(dt=dt, record_every=1), spec, n_steps * dt,
            nz.derive_seed(19, "g0"), traj_ids=np.array([0]), consts=CONSTS,
            record_states=True,
        )
        after = np.arange(n_steps + 1) * dt > burn_in
        thinned = after & (np.arange(n_steps + 1) % stride == 0)
        assert np.array_equal(full.states[thinned, 0][-n_samples:], ref.samples)
        # the thinned-sample mean of Phi agrees with the per-step time average
        per_step = float(np.mean(full.energy.phi[after, 0]))
        assert diag0["phi_sample_mean"] == float(np.mean(full.energy.phi[thinned, 0][-n_samples:]))
        assert abs(diag0["phi_sample_mean"] - per_step) <= 0.1 * per_step
        w_big = st.wasserstein(measure(0.3, "g3")[0], ref, "d0").value
        w_small = st.wasserstein(measure(0.02, "g02")[0], ref, "d0").value
        assert w_small < w_big

    @pytest.mark.parametrize("M", [16, 512])  # 512: the DST route
    def test_samples_one_thinning_apart(self, M):
        # a burn-in off the stride grid: the samples are the first five
        # records after it, 0.05 apart (steps 120, 130, ..., 160), and the run
        # ends on the last of them rather than one half-stride later
        dt, stride = 5e-3, 10
        params = md.ModelParams(gamma=0.05, alpha=1.0, M=M)
        spec = nz.NoiseSpec.power_profile(4, 0.2, 2.0)
        emp, diag = st.invariant_measure_sample(params, spec, burn_in=0.575, n_samples=5,
                                                thinning=stride * dt, seed=20, dt=dt)
        full = md.simulate_ensemble(
            np.zeros(M, complex), params, md.IntegratorConfig(dt=dt, record_every=1), spec,
            160 * dt, 20, traj_ids=np.array([0]), consts=CONSTS, record_states=True)
        assert np.array_equal(emp.samples, full.states[120:161:stride, 0])
        assert diag["n_samples"] == 5 and diag["thinning"] == stride * dt
