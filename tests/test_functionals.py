import numpy as np
import pytest

from glnls import functionals as fn
from glnls import models as md
from glnls import noise as nz
from glnls.spectral import basis_mode, eigenvalues

CONSTS = fn.FunctionalConstants(kappa=1.0, kappa2=1.0, xi=0.1)


def dense_lp_oracle(a, p, n=20001):
    """Independent fine-quadrature oracle: trapezoid on a dense uniform grid."""
    x = np.linspace(0.0, 1.0, n)
    k = np.arange(1, len(a) + 1)
    vals = (np.sqrt(2.0) * np.sin(np.pi * np.outer(x, k))) @ a
    return np.trapezoid(np.abs(vals) ** p, x) ** (1.0 / p)


def random_field(rng, M, decay=1.0):
    z = rng.standard_normal(M) + 1j * rng.standard_normal(M)
    return z / np.arange(1, M + 1) ** decay


class TestNorms:
    def test_h1_of_e1(self):
        assert fn.norm_hr_sq(basis_mode(8, 1), 1.0) == pytest.approx(np.pi**2)

    def test_zero_for_all_r(self):
        z = np.zeros(8, complex)
        for r in (0.0, 0.75, 1.0, 1.5, 2.0, 3.0):
            assert fn.norm_hr(z, r) == 0.0

    def test_l4_of_e1_closed_form(self):
        # int_0^1 4 sin^4(pi x) dx = 3/2, cross-checked by the dense oracle
        e1 = basis_mode(16, 1)
        assert fn.l4_norm4(e1) == pytest.approx(1.5, rel=1e-12)
        assert dense_lp_oracle(e1, 4) ** 4 == pytest.approx(1.5, rel=1e-8)

    def test_lp_against_dense_oracle(self):
        rng = np.random.default_rng(0)
        a = random_field(rng, 12)
        for p in (2.0, 4.0, 6.0):
            assert fn.norm_lp(a, p) == pytest.approx(dense_lp_oracle(a, p), rel=1e-6)

    def test_hr_weights_cached_read_only(self):
        w = fn._hr_weights(8, 1.5)
        assert w is fn._hr_weights(8, 1.5) and not w.flags.writeable
        a = random_field(np.random.default_rng(7), 8)
        assert fn.norm_hr_sq(a, 1.5) == np.sum(eigenvalues(8) ** 1.5 * np.abs(a) ** 2)

    def test_scaling(self):
        rng = np.random.default_rng(1)
        a = random_field(rng, 10)
        c = 0.7 - 1.3j
        assert fn.norm_h(c * a) == pytest.approx(abs(c) * fn.norm_h(a), rel=1e-12)
        assert fn.norm_hr(c * a, 1.5) == pytest.approx(abs(c) * fn.norm_hr(a, 1.5), rel=1e-12)


class TestPsiPhi:
    def test_zero(self):
        z = np.zeros(8, complex)
        assert fn.psi(z, CONSTS) == 0.0
        assert fn.phi(z, CONSTS) == 0.0

    def test_e1_values(self):
        e1 = basis_mode(8, 1)
        assert fn.psi(e1, CONSTS) == pytest.approx(np.pi**2 - 0.75 + 1.0, rel=1e-12)
        assert fn.phi(e1, CONSTS) == pytest.approx(np.pi**2 - 0.75 + 2.0, rel=1e-12)

    def test_phi_dominates_psi_on_unit_ball(self):
        rng = np.random.default_rng(2)
        fields = np.stack([random_field(rng, 16) for _ in range(200)])
        fields /= np.maximum(fn.norm_h(fields), 1.0)[:, None]
        assert np.all(fn.phi(fields, CONSTS) >= fn.psi(fields, CONSTS))

    def test_cube_chain_on_provable_range(self):
        # kappa > 2 sqrt(2) makes Psi^3 >= Phi provable above the threshold
        consts = fn.FunctionalConstants(kappa=4.0)
        cut = fn.psi_cube_threshold(4.0)
        assert cut == pytest.approx(np.sqrt(2.0), rel=1e-12)
        rng = np.random.default_rng(3)
        fields = 3.0 * np.stack([random_field(rng, 16) for _ in range(200)])
        ps = fn.psi(fields, consts)
        ph = fn.phi(fields, consts)
        big = ps >= cut
        assert big.any()
        assert np.all(ps[big] ** 3 >= ph[big] * (1 - 1e-12))
        assert fn.check_phi_chain(fields, consts)

    def test_cube_chain_counterexample_at_small_kappa(self, caplog):
        # the unqualified cube chain fails for kappa <= 2 sqrt(2): with
        # kappa = 1, u = 10 e_1 has Psi ~ 1e6 but Phi > Psi^3; logged, not raised
        u = 10.0 * basis_mode(16, 1)
        ps, ph = float(fn.psi(u, CONSTS)), float(fn.phi(u, CONSTS))
        assert ps > 1.0 and ps**3 < ph
        assert fn.psi_cube_threshold(1.0) == np.inf
        with caplog.at_level("INFO", logger="glnls.functionals"):
            assert fn.check_phi_chain(u[None], CONSTS)  # Phi >= Psi still holds
        assert any("counterexample" in r.message for r in caplog.records)

    def test_phi_lower_bound_with_calibrated_kappa(self):
        rng = np.random.default_rng(4)
        kap = fn.calibrate_kappa(200, 16, rng)
        consts = fn.FunctionalConstants(kappa=kap)
        fields = np.stack([2.0 * random_field(rng, 16, decay=0.5) for _ in range(300)])
        assert np.all(
            fn.phi(fields, consts) >= fn.phi_lower_bound(fields, consts) - 1e-9
        )


class TestSharedFieldPhi:
    """Phi from the pad_points field the steppers synthesise, against fn.phi."""

    @pytest.mark.parametrize("M", [8, 32, 64])
    @pytest.mark.parametrize("pad_factor", [2, 3])
    def test_matches_phi(self, M, pad_factor):
        rng = np.random.default_rng([M, pad_factor])
        a = np.stack([random_field(rng, M, d) for d in (0.5, 1.0, 2.0) for _ in range(4)])
        p = md.ModelParams(gamma=0.05, alpha=1.0, M=M, pad_factor=pad_factor)
        h2, l4, ps, ph = md.field_energy(a, md.physical_field(a, p), fn.norm_hr_sq(a, 1.0),
                                         p, CONSTS)
        assert np.array_equal(h2, fn.norm_h_sq(a))
        for got, ref in ((l4, fn.l4_norm4(a)), (ps, fn.psi(a, CONSTS)), (ph, fn.phi(a, CONSTS))):
            assert np.max(np.abs(got / ref - 1.0)) < 1e-13

    def test_dealias_off_keeps_l4_grid(self):
        # the M-point field aliases |u|^4, so the 2M+1-point grid of l4_norm4
        # must give the L4 term, bit for bit
        M = 16
        a = random_field(np.random.default_rng(6), M, 0.5)[None]
        p = md.ModelParams(gamma=0.05, alpha=1.0, M=M, dealias=False)
        field = md.physical_field(a, p)
        assert field[0].shape[-1] == M
        assert abs(fn.l4_norm4_from_density(field[1]) / fn.l4_norm4(a) - 1.0) > 1e-6
        got = md.field_energy(a, field, fn.norm_hr_sq(a, 1.0), p, CONSTS)
        assert np.array_equal(got[1], fn.l4_norm4(a))
        assert np.array_equal(got[3], fn.phi(a, CONSTS))

    @pytest.mark.parametrize("dealias", [True, False])
    def test_ensemble_records(self, dealias):
        # the record columns against the reference functionals of the recorded states
        M = 16
        p = md.ModelParams(gamma=0.05, alpha=1.0, M=M, dealias=dealias)
        spec = nz.NoiseSpec.power_profile(4, 0.5, 2.0)
        for scheme in ("strang", "expeuler"):
            integ = md.IntegratorConfig(dt=1e-3, record_every=7, scheme=scheme)
            rec = md.simulate_ensemble(0.3 * basis_mode(M, 1), p, integ, spec, 0.05, seed=4,
                                       traj_ids=np.arange(3), consts=CONSTS,
                                       record_states=True)
            e, u = rec.energy, rec.states
            assert np.array_equal(e.H, fn.norm_h_sq(u))
            assert np.array_equal(e.H1, fn.norm_hr_sq(u, 1.0))
            for got, ref in ((e.L4, fn.l4_norm4(u)), (e.psi, fn.psi(u, CONSTS)),
                             (e.phi, fn.phi(u, CONSTS))):
                if dealias:
                    assert np.max(np.abs(got / ref - 1.0)) < 1e-13
                else:
                    assert np.array_equal(got, ref)


class TestKappaCalibration:
    def test_zero_field_any_kappa(self):
        assert fn.gn_violations(np.zeros((1, 8), complex), 1e-12) == 0

    def test_single_mode_closed_form(self):
        # per-direction worst kappa for e_k is 4.5/(k pi)^2, binding at a
        # finite amplitude; large amplitudes need vanishing kappa
        e1 = basis_mode(16, 1)
        assert fn.kappa_required(e1) == pytest.approx(4.5 / np.pi**2, rel=1e-10)
        worst = fn.kappa_required(e1)
        for c in (10.0, 100.0):
            L = fn.l4_norm4(c * e1)
            G = fn.norm_hr_sq(c * e1, 1.0)
            needed = 2.0 * max(L - G / 4.0, 0.0) / fn.norm_h_sq(c * e1) ** 3
            assert needed < worst  # -> 0 like 3/c^2 along the ray
        assert fn.kappa_required(100.0 * e1) == pytest.approx(worst, rel=1e-9)

    def test_calibrated_kappa_validates_on_fresh_fields(self):
        rng = np.random.default_rng(5)
        kap = fn.calibrate_kappa(500, 16, rng)
        assert kap >= 4.5 / np.pi**2 - 1e-9
        fresh = np.concatenate([
            np.stack([random_field(rng, 16, d) for _ in range(5000)])
            for d in (0.5, 1.0, 2.0)
        ])
        scales = rng.uniform(0.05, 20.0, size=(len(fresh), 1))
        assert fn.gn_violations(fresh * scales, kap) == 0

    def test_default_kappa_admissible(self):
        # kappa = 1 exceeds every calibrated requirement seen at M = 64
        rng = np.random.default_rng(6)
        assert fn.calibrate_kappa(300, 64, rng) <= 1.0


class TestJFunctional:
    def test_identical_pair(self):
        rng = np.random.default_rng(7)
        u = random_field(rng, 12)
        assert fn.j_functional(u, u, CONSTS) == pytest.approx(0.0, abs=1e-12)

    def test_e1_versus_zero(self):
        M = 12
        u1 = basis_mode(M, 1)
        u2 = np.zeros(M, complex)
        expect = np.pi**2 + CONSTS.kappa2 * fn.phi(u1, CONSTS) * 1.0
        assert fn.j_functional(u1, u2, CONSTS) == pytest.approx(float(expect), rel=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(8)
        u1, u2 = random_field(rng, 10), random_field(rng, 10)
        assert fn.j_functional(u1, u2, CONSTS) == pytest.approx(
            float(fn.j_functional(u2, u1, CONSTS)), rel=1e-12
        )

    def test_cross_term_against_dense_quadrature(self):
        rng = np.random.default_rng(9)
        u1, u2 = random_field(rng, 6), random_field(rng, 6)
        v = u1 - u2
        x = np.linspace(0, 1, 40001)
        k = np.arange(1, 7)
        S = np.sqrt(2.0) * np.sin(np.pi * np.outer(x, k))
        p1, p2, pv = S @ u1, S @ u2, S @ v
        oracle = np.trapezoid(np.real(p1 * p2 * np.conj(pv) ** 2), x)
        got = fn._re_cross_term(u1, u2, v)
        assert got == pytest.approx(oracle, rel=1e-7, abs=1e-10)

    def test_cond_j_with_calibrated_kappa2(self):
        rng = np.random.default_rng(10)
        kap2 = fn.calibrate_kappa2(CONSTS, rho_max=3.0, sample_count=200, M=16, rng=rng)
        consts = fn.FunctionalConstants(kappa=1.0, kappa2=kap2)
        ok = 0
        for _ in range(200):
            u1 = random_field(rng, 16)
            u2 = random_field(rng, 16)
            scale = rng.uniform(0.1, 1.0)
            u1, u2 = scale * u1 / fn.norm_hr(u1, 1.0) * 3.0, scale * u2 / fn.norm_hr(u2, 1.0) * 3.0
            if fn.cond_j_holds(u1, u2, consts):
                ok += 1
            j = fn.j_functional(u1, u2, consts)
            assert j >= fn.norm_hr_sq(u1 - u2, 1.0) - 1e-9
        assert ok == 200


class TestEnAccumulation:
    def test_zero_trajectory(self):
        acc = fn.EnAccumulator(2, alpha=1.0)
        acc.reset(0.0)
        for _ in range(10):
            acc.push(0.0, 0.1)
        assert acc.value() == 0.0

    def test_frozen_e1(self):
        # constant Phi(e1), n = 1, alpha = 1, t = 2 -> 2 Phi(e1)
        phi1 = float(fn.phi(basis_mode(8, 1), CONSTS))
        acc = fn.EnAccumulator(1, alpha=1.0)
        acc.reset(phi1)
        dt = 1e-3
        for _ in range(2000):
            acc.push(phi1, dt)
        assert acc.value() == pytest.approx(2.0 * phi1, rel=1e-9)

    def test_en_dominates_phin_along_trajectory(self):
        M = 16
        params = md.ModelParams(gamma=0.05, alpha=1.0, M=M)
        integ = md.IntegratorConfig(dt=1e-3, record_every=20)
        spec = nz.NoiseSpec.power_profile(4, 0.2, 2.0)
        rec = md.simulate_ensemble(
            np.zeros(M, complex), params, integ, spec, 1.0, seed=11,
            consts=CONSTS, track_phi_every_step=True,
        )
        assert np.all(rec.energy.E4 >= rec.energy.phi**4 - 1e-12)
        assert np.all(rec.energy.E1 >= rec.energy.phi - 1e-12)

    def test_vectorized_accumulate_matches(self):
        rng = np.random.default_rng(12)
        phis = rng.uniform(0.0, 2.0, size=50)
        acc = fn.EnAccumulator(4, alpha=0.7)
        acc.reset(phis[0])
        series = [acc.value()]
        for p in phis[1:]:
            series.append(acc.push(p, 0.05))
        vec = fn.accumulate_en(phis, 0.05, 4, 0.7)
        assert np.allclose(series, vec)


class TestDistances:
    def test_coincident(self):
        rng = np.random.default_rng(13)
        u = random_field(rng, 8)
        assert fn.dist_d0(u, u) == 0.0
        assert fn.dist_d0xi(u, u, xi=0.1) == 0.0

    def test_clamp(self):
        u = 5.0 * basis_mode(8, 1)
        assert fn.dist_d0(u, np.zeros(8, complex)) == 1.0

    def test_d0xi_formula(self):
        e1 = basis_mode(8, 1)
        z = np.zeros(8, complex)
        assert fn.dist_d0xi(e1, z, xi=0.1) == pytest.approx(
            np.sqrt(2.0 + np.exp(0.1)), rel=1e-12
        )

    def test_symmetry(self):
        rng = np.random.default_rng(14)
        u, v = random_field(rng, 8), random_field(rng, 8)
        for k in (0, 1):
            assert fn.dist_dk(u, v, k) == pytest.approx(float(fn.dist_dk(v, u, k)))
        assert fn.dist_d0xi(u, v, 0.2) == pytest.approx(float(fn.dist_d0xi(v, u, 0.2)))

    def test_overflow_reported(self):
        big = 40.0 * basis_mode(4, 1)
        with pytest.raises(fn.ExponentialOverflowError):
            fn.dist_d0xi(big, np.zeros(4, complex), xi=1.0, cap=700.0)
        vals, flagged = fn.exp_xi_weight(big, xi=1.0, cap=700.0)
        assert flagged == 1 and np.isfinite(vals).all()


class TestConstants:
    def test_positivity(self):
        with pytest.raises(ValueError):
            fn.FunctionalConstants(kappa=0.0)
        with pytest.raises(ValueError):
            fn.FunctionalConstants(kappa2=-1.0)

    def test_xi_bound(self):
        consts = fn.FunctionalConstants(xi=10.0)
        with pytest.raises(ValueError):
            consts.check_xi(alpha=1.0, tr_qq=1.0)
        fn.FunctionalConstants(xi=0.4).check_xi(alpha=1.0, tr_qq=1.0)
