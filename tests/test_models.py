from dataclasses import replace

import numpy as np
import pytest

from glnls import functionals as fn
from glnls import models as md
from glnls import noise as nz
from glnls.spectral import PhysicalGrid, basis_mode, to_physical, to_spectral
from glnls.stats import mixing_curve

CONSTS = fn.FunctionalConstants()
NO_NOISE = nz.NoiseSpec(np.zeros(0))


def cubic_oracle(a, M_out):
    """Dense-quadrature coefficients of i|u|^2 u: integrate against each e_k."""
    x = np.linspace(0.0, 1.0, 60001)
    k = np.arange(1, len(a) + 1)
    S = np.sqrt(2.0) * np.sin(np.pi * np.outer(x, k))
    u = S @ a
    w = 1j * np.abs(u) ** 2 * u
    kk = np.arange(1, M_out + 1)
    basis = np.sqrt(2.0) * np.sin(np.pi * np.outer(x, kk))
    return np.trapezoid(w[:, None] * basis, x, axis=0)


class TestNonlinearity:
    def test_zero(self):
        p = md.ModelParams(gamma=0.1, alpha=1.0, M=8)
        assert np.all(md.nl_coeffs(np.zeros(8, complex), p) == 0)

    def test_single_mode_against_quadrature_oracle(self):
        M = 16
        p = md.ModelParams(gamma=0.1, alpha=1.0, M=M)
        a = 0.8 * basis_mode(M, 1)
        got = md.nl_coeffs(a, p)
        oracle = cubic_oracle(a, M)
        assert np.max(np.abs(got - oracle)) < 1e-7
        # only odd modes are excited by a real single-mode cube
        assert np.max(np.abs(got[1::2])) < 1e-12

    def test_random_field_against_oracle(self):
        rng = np.random.default_rng(0)
        M = 12
        p = md.ModelParams(gamma=0.1, alpha=1.0, M=M)
        a = (rng.standard_normal(M) + 1j * rng.standard_normal(M)) / np.arange(1, M + 1)
        assert np.max(np.abs(md.nl_coeffs(a, p) - cubic_oracle(a, M))) < 1e-6

    def test_mass_neutrality(self):
        # Re<i|u|^2 u, conj(u)>_H = 0, the identity behind the mass law
        rng = np.random.default_rng(1)
        M = 32
        p = md.ModelParams(gamma=0.1, alpha=1.0, M=M)
        for _ in range(5):
            a = rng.standard_normal(M) + 1j * rng.standard_normal(M)
            nl = md.nl_coeffs(a, p)
            val = np.real(np.sum(nl * np.conj(a)))
            assert abs(val) < 1e-10 * np.sum(np.abs(a) ** 2)

    def test_dealias_two_equals_three(self):
        # the 2M-point grid is already alias-free for the retained cubic
        # modes: a 3M-point grid gives the same coefficients
        rng = np.random.default_rng(2)
        M = 24
        a = rng.standard_normal(M) + 1j * rng.standard_normal(M)
        p = md.ModelParams(gamma=0.1, alpha=1.0, M=M)
        v = to_physical(a, PhysicalGrid(3 * M))
        ref = to_spectral(1j * np.abs(v) ** 2 * v, M)
        assert np.max(np.abs(md.nl_coeffs(a, p) - ref)) < 1e-11


def standing_wave(M, m):
    """(a0, omega) of the Dirichlet standing wave u = e^{i omega t} psi, psi =
    A sn(bx | m) with m < 0, an exact solution of u_t = i u_xx + i|u|^2 u on
    (0, 1) with Dirichlet ends (gamma = alpha = 0, no noise): a0 is psi's M
    sine coefficients, b = 2K(m), A = b sqrt(-2m), omega = -(1 + m) b^2.

    For m < 0, sn(z | m) = sd(z sqrt(1-m) | mu) / sqrt(1-m), mu = -m/(1-m)
    (Carr, Clark and Reinhardt, Phys. Rev. A 62 (2000) 063610).  The
    coefficients come from 4M nodes; psi's above mode 56 are round-off.
    """
    from scipy.special import ellipj, ellipk
    b = 2.0 * ellipk(m)
    s = np.sqrt(1.0 - m)
    sn, _, dn, _ = ellipj(b * s * PhysicalGrid(4 * M).nodes, -m / (1.0 - m))
    psi = b * np.sqrt(-2.0 * m) * sn / (dn * s)
    return to_spectral(psi.astype(complex), M), -(1.0 + m) * b**2


class TestStandingWave:
    """The deterministic steppers against the closed-form standing wave at
    M = 64 up to T = 0.5: relative coefficient error against e^{i omega T}
    a0 at dt = 1e-3, 5e-4 and 2.5e-4, and its observed order.  At m = -0.5
    sup|u|^2 = 8, at m = -2 it is 22."""

    M, T, DTS = 64, 0.5, (1e-3, 5e-4, 2.5e-4)

    def errors(self, m, scheme, nonlinear=True):
        a0, omega = standing_wave(self.M, m)
        assert np.max(np.abs(a0[56:])) < 1e-15 * np.max(np.abs(a0))
        params = md.ModelParams(gamma=0.0, alpha=0.0, M=self.M, nonlinear=nonlinear)
        err = []
        for dt in self.DTS:
            integ = md.IntegratorConfig(dt=dt, scheme=scheme, record_every=int(round(self.T / dt)))
            final = md.simulate_ensemble(a0, params, integ, NO_NOISE, self.T, seed=0).final[0]
            err.append(np.sqrt(fn.norm_hr_sq(final - np.exp(1j * omega * self.T) * a0, 0.0)
                               / fn.norm_hr_sq(a0, 0.0)))
        return np.array(err), np.log2(err[:-1] / np.array(err[1:]))

    @pytest.mark.parametrize("m, bound", [(-0.5, 6e-5), (-2.0, 6e-4)])
    def test_strang_second_order(self, m, bound):
        # measured 4.73e-5 (m = -0.5) and 4.73e-4 (m = -2) at dt = 1e-3, order 2.00
        err, order = self.errors(m, "strang")
        assert err[0] <= bound
        assert np.all(np.abs(order - 2.0) <= 0.05), order

    def test_expeuler_first_order(self):
        # measured 3.18e-2, 1.58e-2, 7.84e-3: order 1.01
        err, order = self.errors(-0.5, "expeuler")
        assert err[0] <= 4e-2
        assert np.all(np.abs(order - 1.0) <= 0.1), order

    def test_cubic_off_misses(self):
        # the wave's frequency is the cubic's: without it Strang is off by order one
        err, _ = self.errors(-2.0, "strang", nonlinear=False)
        assert np.all(err > 0.1)


class TestTruncatedNonlinearity:
    def test_inactive_region_matches_full(self):
        M = 16
        p = md.ModelParams(gamma=0.1, alpha=1.0, M=M)
        a = 0.2 * basis_mode(M, 1)  # |u|^2 <= 0.08 << R
        full = md.nl_coeffs(a, p)
        trunc = md.nl_coeffs(a, replace(p, truncation=2.0))
        assert np.allclose(full, trunc, atol=1e-14)

    def test_saturated_region_is_zero(self):
        M = 16
        p = md.ModelParams(gamma=0.1, alpha=1.0, M=M)
        a = 10.0 * basis_mode(M, 1)
        # |u(x)|^2 >= R+1 wherever u is away from the boundary; check the
        # pointwise cut-off instead of the projected coefficients
        assert md.cutoff_smoothstep(np.array([200.0]), 2.0)[0] == 0.0
        assert md.cutoff_smoothstep(np.array([1.0]), 2.0)[0] == 1.0

    def test_smoothstep_midpoint(self):
        assert md.cutoff_smoothstep(np.array([2.5]), 2.0)[0] == pytest.approx(0.5)

    def test_c1_join(self):
        eps = 1e-6
        R = 3.0
        left = md.cutoff_smoothstep(np.array([R - eps]), R)[0]
        right = md.cutoff_smoothstep(np.array([R + eps]), R)[0]
        assert left == 1.0 and right == pytest.approx(1.0, abs=1e-11)


class TestStep:
    def test_zero_fixed_point(self):
        for scheme in md.SCHEMES:
            p = md.ModelParams(gamma=0.1, alpha=1.0, M=8)
            ic = md.IntegratorConfig(dt=0.01, scheme=scheme)
            rec = md.simulate_ensemble(np.zeros(8, complex), p, ic, NO_NOISE, 0.5, seed=3)
            assert np.all(rec.final == 0)

    @pytest.mark.parametrize("scheme", md.SCHEMES)
    def test_linear_exactness(self, scheme):
        # nonlinearity disabled, Q = 0: a_1(t) = e^{-((gamma+i)pi^2+alpha)t}
        p = md.ModelParams(gamma=0.3, alpha=0.7, M=8, nonlinear=False)
        ic = md.IntegratorConfig(dt=0.01, scheme=scheme)
        rec = md.simulate_ensemble(basis_mode(8, 1), p, ic, NO_NOISE, 1.0, seed=4)
        exact = np.exp(-((0.3 + 1j) * np.pi**2 + 0.7) * 1.0)
        assert abs(rec.final[0, 0] - exact) < 1e-10

    def test_nls_mass_decay(self):
        # gamma=0, Q=0: ||u(2)||_H = e^{-1} ||u0||_H within 1e-6 at dt=1e-4
        p = md.ModelParams(gamma=0.0, alpha=0.5, M=64)
        ic = md.IntegratorConfig(dt=1e-4, scheme="strang", record_every=2000)
        u0 = basis_mode(64, 1)
        rec = md.simulate_ensemble(u0, p, ic, NO_NOISE, 2.0, seed=5)
        got = float(np.sqrt(fn.norm_hr_sq(rec.final[0], 0.0)))
        assert got == pytest.approx(np.exp(-1.0), abs=1e-6)


    @pytest.mark.parametrize("model, integ", [
        ({}, {}),
        ({"truncation": 0.5}, {"noise_mode": "em"}),
        ({}, {"scheme": "expeuler"}),
        ({"nonlinear": False}, {}),
    ], ids=["strang-exact", "truncated-em", "expeuler", "linear"])
    def test_advance_from_open_is_step(self, model, integ):
        M, B = 64, 64
        rng = np.random.default_rng(0)
        a = 0.4 * (rng.standard_normal((B, M)) + 1j * rng.standard_normal((B, M))) \
            / np.arange(1, M + 1)
        z = rng.standard_normal((B, 2, 8))
        st = md.Stepper(md.ModelParams(gamma=0.05, alpha=1.0, M=M, **model),
                        md.IntegratorConfig(dt=5e-3, **integ),
                        nz.NoiseSpec.power_profile(8, 0.05, 2.0))
        a_step, c_next = st.advance(st.open(a), z)
        assert np.array_equal(a_step, st.step(a, z))
        if st.integ.scheme == "expeuler" or not st.params.nonlinear:
            assert st.open(a) is a and c_next is a_step

    def test_fsal_tracks_repeated_step(self):
        # ensemble settings with fields scaled x40 (|a| up to 1.3): the
        # carried path differs from repeated step by the dropped projection
        M, B = 64, 64
        rng = np.random.default_rng([41, 1])
        k = np.arange(1, M + 1)
        a = 40 * 0.05 * (rng.standard_normal((B, M)) + 1j * rng.standard_normal((B, M))) / k**2
        spec = nz.NoiseSpec.power_profile(8, 0.05, 2.0)
        st = md.Stepper(md.ModelParams(gamma=0.05, alpha=1.0, M=M),
                        md.IntegratorConfig(dt=5e-3), spec)
        zs = nz.EnsembleNoise(41, np.arange(B), spec.N).next_block(200)
        ref, c = a, st.open(a)
        for s in range(200):
            ref = st.step(ref, zs[:, s])
            a, c = st.advance(c, zs[:, s])
        assert np.linalg.norm(a - ref) <= 1e-10 * np.linalg.norm(ref)

    def test_phase_equals_complex_exp(self):
        # cos + i sin against exp(1j theta), bit for bit, with a row above R
        # and a NaN row, with and without the cut-off
        M, R, tau = 32, 1.0, 2.5e-3
        rows = np.stack([1.5 * basis_mode(M, 1), 0.2 * basis_mode(M, 2) + 0.1 * basis_mode(M, 5),
                         np.full(M, np.nan + 0j)])
        for trunc in (None, R):
            p = md.ModelParams(gamma=0.05, alpha=1.0, M=M, truncation=trunc)
            dens = fn.physical_field(rows)[1]
            assert dens[0].max() > R > dens[1].max()
            with np.errstate(invalid="ignore"):
                theta = tau * (dens if trunc is None else dens * md.cutoff_smoothstep(dens, R))
                assert np.array_equal(md._phase(dens, tau, p), np.exp(1j * theta),
                                      equal_nan=True)

    def test_cutoff_skip_keeps_rows(self):
        # one row reaches R, one is NaN, one stays below R: each row of the
        # batch equals that row stepped alone, though only the batch (and the
        # first row alone) evaluates the cut-off
        M, R = 32, 1.0
        rows = np.stack([1.5 * basis_mode(M, 1), 0.2 * basis_mode(M, 2),
                         np.full(M, np.nan + 0j)])
        dens = np.abs(to_physical(rows[:2], PhysicalGrid(2 * M))) ** 2
        assert dens[0].max() > R > dens[1].max()
        z = np.random.default_rng(1).standard_normal((3, 2, 4))
        p = md.ModelParams(gamma=0.05, alpha=1.0, M=M, truncation=R)
        spec = nz.NoiseSpec.power_profile(4, 0.05, 2.0)
        with np.errstate(invalid="ignore"):
            for ic in (md.IntegratorConfig(dt=5e-3),
                       md.IntegratorConfig(dt=5e-3, scheme="expeuler")):
                st = md.Stepper(p, ic, spec)
                batch = st.advance(st.open(rows), z)
                for i in range(3):
                    alone = st.advance(st.open(rows[i]), z[i])
                    for b, s in zip(batch, alone):
                        assert np.array_equal(b[i], s, equal_nan=True)
                # the cut-off still acts on the row that reaches R
                full = md.Stepper(replace(p, truncation=None), ic, spec)
                assert not np.allclose(batch[0][0], full.advance(full.open(rows[0]), z[0])[0])


    @pytest.mark.parametrize("integ", [{}, {"scheme": "expeuler"}, {"noise_mode": "em"}],
                             ids=["fsal", "expeuler", "em"])
    def test_noise_on_forced_modes_only(self, integ):
        # the noise added into the N forced modes alone equals the sum with
        # the full (..., M) noise vector, whose other columns are zero
        M, B, N = 32, 16, 8
        rng = np.random.default_rng(3)
        a = 0.3 * (rng.standard_normal((B, M)) + 1j * rng.standard_normal((B, M))) \
            / np.arange(1, M + 1)
        z = rng.standard_normal((B, 2, N))
        p = md.ModelParams(gamma=0.05, alpha=1.0, M=M)
        ic = md.IntegratorConfig(dt=5e-3, **integ)
        spec = nz.NoiseSpec.power_profile(N, 0.5, 2.0)
        st = md.Stepper(p, ic, spec)
        zpair = np.zeros((B, 2, M))
        zpair[..., :N] = z
        if ic.noise_mode == "exact":
            full = nz.convolution_from_normals(
                zpair, nz.convolution_std(spec, p.gamma, p.alpha, ic.dt, M))
        else:
            full = spec.lambdas_padded(M) * nz.increments_from_normals(zpair, ic.dt)
        if ic.scheme == "expeuler":
            expect = st.drift(a) + full
            got = st.advance(a, z)[0]
        else:
            h = 0.5 * ic.dt
            expect = md._kick(st.decay * md._kick(a, h, p) + full, h, p)
            got = st.advance(st.open(a), z)[0]
        assert np.array_equal(got, expect)
        assert np.array_equal(st.step(a, z), expect)

    @pytest.mark.parametrize("noise_mode", md.NOISE_MODES)
    def test_gamma_tuple_stacks_the_single_gamma_arrays(self, noise_mode):
        # one (G, 1, .) block per gamma, each the array of a stepper with that gamma alone
        spec = nz.NoiseSpec.power_profile(4, 0.3, 2.0)
        ic = md.IntegratorConfig(dt=5e-3, noise_mode=noise_mode)
        gammas = (0.0, 0.01, 0.1)
        stacked = md.Stepper(md.ModelParams(gamma=gammas, alpha=1.0, M=8), ic, spec)
        alone = [md.Stepper(md.ModelParams(gamma=g, alpha=1.0, M=8), ic, spec) for g in gammas]
        assert np.array_equal(stacked.decay, np.stack([s.decay for s in alone])[:, None])
        if noise_mode == "exact":
            assert stacked.noise_scale.shape == (3, 1, 4)
            assert np.array_equal(stacked.noise_scale[:, 0], [s.noise_scale for s in alone])
        else:  # em noise does not depend on gamma
            assert np.array_equal(stacked.noise_scale, alone[0].noise_scale)

    @pytest.mark.parametrize("gamma", [(), (0.1, 1.0), (-0.1,)])
    def test_gamma_tuple_range(self, gamma):
        with pytest.raises(ValueError, match="viscosity gamma"):
            md.ModelParams(gamma=gamma, alpha=1.0, M=8)


class TestSimulate:
    def test_t_zero_single_record(self):
        p = md.ModelParams(gamma=0.1, alpha=1.0, M=8)
        ic = md.IntegratorConfig(dt=0.01)
        rec = md.simulate_ensemble(basis_mode(8, 1), p, ic, NO_NOISE, 0.0, seed=6)
        assert len(rec.times) == 1 and rec.times[0] == 0.0

    def test_seed_determinism(self):
        p = md.ModelParams(gamma=0.05, alpha=1.0, M=16)
        ic = md.IntegratorConfig(dt=1e-3, record_every=50)
        spec = nz.NoiseSpec.power_profile(4, 0.3, 2.0)

        def run(seed):
            return md.simulate_ensemble(basis_mode(16, 1), p, ic, spec, 0.5, seed=seed,
                                        traj_ids=np.array([0]), record_states=True)

        a, b, c = run(7), run(7), run(8)
        assert np.array_equal(a.states, b.states)
        assert not np.array_equal(a.states, c.states)

    def test_batching_invariance(self):
        # trajectory 3 is bit-identical whether run alone or inside a batch
        p = md.ModelParams(gamma=0.05, alpha=1.0, M=16)
        ic = md.IntegratorConfig(dt=1e-3, record_every=100)
        spec = nz.NoiseSpec.power_profile(4, 0.3, 2.0)
        batch = md.simulate_ensemble(
            np.zeros(16, complex), p, ic, spec, 0.3, seed=9, traj_ids=np.arange(6)
        )
        solo = md.simulate_ensemble(
            np.zeros(16, complex), p, ic, spec, 0.3, seed=9, traj_ids=np.array([3])
        )
        assert np.array_equal(batch.final[3], solo.final[0])
        # 200 rows on the 128-point kick grid pass numpy's 256 KiB
        # temporary-reuse size, 100 rows stay below it
        p = md.ModelParams(gamma=0.05, alpha=1.0, M=64)
        ic = md.IntegratorConfig(dt=5e-3)
        u0 = 0.5 * basis_mode(64, 1) + 0.3 * basis_mode(64, 3)
        batch = md.simulate_ensemble(u0, p, ic, spec, 0.1, seed=7, traj_ids=np.arange(200))
        sub = md.simulate_ensemble(u0, p, ic, spec, 0.1, seed=7, traj_ids=np.arange(100))
        assert np.array_equal(batch.final[:100], sub.final)

    def test_expeuler_records_match_step_loop(self):
        # each record's field is handed to the next drift, so the trajectory
        # must equal repeated Stepper.step bit for bit, with every recorded
        # column that of its state; rows 4..7 cross the H^1 guard at once
        # and stay frozen, their H^1 column at the frozen state's
        M, B, every, n_steps = 16, 8, 3, 20
        amps = np.array([0.05, 0.1, 0.15, 0.2, 0.5, 0.6, 0.7, 0.8])
        u0 = amps[:, None] * basis_mode(M, 1) + 0.1 * basis_mode(M, 4)
        p = md.ModelParams(gamma=0.05, alpha=1.0, M=M)
        ic = md.IntegratorConfig(dt=1e-3, scheme="expeuler", record_every=every,
                                 blowup_guard=1.5)
        spec = nz.NoiseSpec.power_profile(4, 0.3, 2.0)
        rec = md.simulate_ensemble(u0, p, ic, spec, n_steps * ic.dt, seed=13,
                                   consts=CONSTS, record_states=True)
        st = md.Stepper(p, ic, spec)
        zs = nz.EnsembleNoise(13, np.arange(B), spec.N).next_block(n_steps)
        a, out = u0.copy(), [u0.copy()]
        excluded = np.zeros(B, bool)
        for s in range(n_steps):
            new = st.step(a, zs[:, s])
            excluded |= ~(fn.norm_hr_sq(new, 1.0) <= ic.blowup_guard**2)
            a = np.where(excluded[:, None], a, new)
            if (s + 1) % every == 0 or s + 1 == n_steps:
                out.append(a)
        assert np.array_equal(rec.excluded, amps > 0.4)
        assert np.array_equal(rec.states, np.array(out))
        assert np.array_equal(rec.energy.H1, fn.norm_hr_sq(rec.states, 1.0))
        assert np.max(np.abs(rec.energy.phi / fn.phi(rec.states, CONSTS) - 1.0)) < 1e-13

    def test_skipped_strang_states_match_forming_every_step(self, monkeypatch):
        # with nothing crossing the guard, simulate_ensemble and mixing_curve
        # give the records and final states of a run that forms the Strang
        # state on every step
        M, B = 32, 6
        rng = np.random.default_rng(21)
        u0 = 0.5 * (rng.standard_normal((B, M)) + 1j * rng.standard_normal((B, M))) \
            / np.arange(1, M + 1) ** 2
        p = md.ModelParams(gamma=0.05, alpha=1.0, M=M)
        ic = md.IntegratorConfig(dt=5e-3, record_every=7)
        spec = nz.NoiseSpec.power_profile(4, 0.3, 2.0)

        def run():
            rec = md.simulate_ensemble(u0, p, ic, spec, 0.3, seed=21, consts=CONSTS,
                                       record_states=True)
            mix = mixing_curve(u0[0], u0[1], p, spec, [0.0, 0.05, 0.15, 0.3], 5,
                                  seed=22, integ=ic)
            return rec, mix

        orig, skipped = md.Stepper.advance, []

        def spy(self, c, z, field=None, strang_state=True):
            skipped.append(not strang_state)
            return orig(self, c, z, field, strang_state)

        monkeypatch.setattr(md.Stepper, "advance", spy)
        rec, mix = run()
        assert sum(skipped) == (60 - 9) + (60 - 3)  # every step but the records
        monkeypatch.setattr(md.Stepper, "advance",
                            lambda self, c, z, field=None, strang_state=True:
                            orig(self, c, z, field))
        ref, ref_mix = run()
        assert not rec.excluded.any() and not mix.excluded.any()
        assert np.array_equal(rec.states, ref.states)
        assert np.array_equal(rec.final, ref.final)
        for name in ("H", "H1", "L4", "psi", "phi", "E1", "E4"):
            assert np.array_equal(getattr(rec.energy, name), getattr(ref.energy, name))
        for name in ("t", "upper_d1", "upper_d0", "dual_t", "dual_lower"):
            assert np.array_equal(getattr(mix, name), getattr(ref_mix, name))

    def test_guard_reads_carried_state_between_records(self):
        # rows 2 and 3 cross the guard between records, where no Strang state
        # is formed: each is excluded at the step its c_next crosses, and
        # recorded from then on as its last formed Strang state, the record
        # before, with that state's H^1 norm
        M, B, every, n_steps, guard = 16, 4, 10, 60, 4.32
        u0 = np.array([0.1, 0.2, 0.9, 1.2])[:, None] * basis_mode(M, 1) \
            + 0.2 * basis_mode(M, 3)
        p = md.ModelParams(gamma=0.0, alpha=0.1, M=M)
        ic = md.IntegratorConfig(dt=1e-2, record_every=every, blowup_guard=guard)
        spec = nz.NoiseSpec.power_profile(4, 0.2, 1.0)
        rec = md.simulate_ensemble(u0, p, ic, spec, n_steps * ic.dt, seed=42,
                                   consts=CONSTS, record_states=True)

        # the rule written out, with the Strang state formed on every step;
        # parent_rule: the guard reads the Strang state on every step
        st = md.Stepper(p, ic, spec)
        zs = nz.EnsembleNoise(42, np.arange(B), spec.N).next_block(n_steps)

        def replay(parent_rule):
            a, c = u0.copy(), st.open(u0)
            excluded, crossed, out = np.zeros(B, bool), {}, [u0.copy()]
            for s in range(1, n_steps + 1):
                new, c_new = st.advance(c, zs[:, s - 1])
                read = new if parent_rule or s % every == 0 else c_new
                now = ~(fn.norm_hr_sq(read, 1.0) <= guard**2) & ~excluded
                crossed.update({int(i): s for i in np.flatnonzero(now)})
                excluded |= now
                c = np.where(excluded[:, None], c, c_new)
                if s % every == 0:
                    a = np.where(excluded[:, None], a, new)
                    out.append(a)
            return np.array(out), excluded, crossed

        states, excluded, crossed = replay(False)
        assert crossed == {3: 28, 2: 55}
        assert np.array_equal(rec.excluded, excluded)
        assert np.array_equal(rec.states, states)
        assert np.array_equal(rec.final, states[-1])
        assert np.array_equal(rec.states[3:, 3], np.broadcast_to(rec.states[2, 3], (4, M)))
        assert np.array_equal(rec.states[6, 2], rec.states[5, 2])
        assert np.array_equal(rec.energy.H1, fn.norm_hr_sq(rec.states, 1.0))
        # the setting tells the rules apart: read on every step, the Strang
        # state of row 3 crosses at step 35
        assert replay(True)[2][3] == 35
        # the rows that never cross are those of a run without the others
        alone = md.simulate_ensemble(u0[:2], p, ic, spec, n_steps * ic.dt, seed=42,
                                     consts=CONSTS, record_states=True)
        assert np.array_equal(rec.states[:, :2], alone.states)
        for name in ("H", "H1", "L4", "psi", "phi", "E1", "E4"):
            assert np.array_equal(getattr(rec.energy, name)[:, :2],
                                  getattr(alone.energy, name))

    def test_pathwise_mass_law(self):
        p = md.ModelParams(gamma=0.0, alpha=0.5, M=64)
        ic = md.IntegratorConfig(dt=1e-3, record_every=100)
        u0 = 0.5 * basis_mode(64, 1) + 0.3 * basis_mode(64, 2)
        rec = md.simulate_ensemble(u0, p, ic, NO_NOISE, 1.0, seed=10)
        h = np.sqrt(rec.energy.H[:, 0])
        h0 = float(np.sqrt(fn.norm_hr_sq(u0, 0.0)))
        target = h0 * np.exp(-0.5 * rec.times)
        assert np.max(np.abs(h - target)) / h0 < 1e-6

    def test_hamiltonian_second_order(self):
        p = md.ModelParams(gamma=0.0, alpha=0.0, M=32)
        u0 = 0.5 * basis_mode(32, 1) + 0.3 * basis_mode(32, 2)

        def drift(dt):
            ic = md.IntegratorConfig(dt=dt, scheme="strang",
                                     record_every=max(1, int(0.05 / dt)))
            rec = md.simulate_ensemble(u0, p, ic, NO_NOISE, 1.0, seed=11)
            h = rec.energy.H1[:, 0] - 0.5 * rec.energy.L4[:, 0]
            return np.max(np.abs(h - h[0])) / abs(h[0])

        d1, d2 = drift(2e-3), drift(1e-3)
        assert d1 < 1e-3
        assert d1 / d2 > 3.0  # second order: ~4x per halving

    def test_blowup_flagging_counted(self):
        p = md.ModelParams(gamma=0.0, alpha=0.1, M=8)
        ic = md.IntegratorConfig(dt=0.01, blowup_guard=1e-4)
        spec = nz.NoiseSpec.power_profile(2, 1.0, 2.0)
        rec = md.simulate_ensemble(np.zeros(8, complex), p, ic, spec, 0.2, seed=12,
                                   traj_ids=np.arange(4))
        assert rec.excluded.all()

    def test_truncated_matches_full_below_radius(self):
        spec = nz.NoiseSpec.power_profile(4, 0.05, 2.0)
        ic = md.IntegratorConfig(dt=1e-3, record_every=100)
        u0 = 0.2 * basis_mode(32, 1)
        full = md.ModelParams(gamma=0.05, alpha=1.0, M=32)
        trunc = md.ModelParams(gamma=0.05, alpha=1.0, M=32, truncation=2.0)
        a = md.simulate_ensemble(u0, full, ic, spec, 1.0, seed=13)
        b = md.simulate_ensemble(u0, trunc, ic, spec, 1.0, seed=13)
        # sup |u|^2 stays far below R = 2, so phi_R is identically 1
        assert np.max(np.abs(a.final - b.final)) < 1e-12

    def test_lyapunov_envelope_constant_across_gamma(self):
        # fitted C in E Phi(t) <= e^{-alpha t/2} Phi(u0) + C varies < 3x in gamma
        spec = nz.NoiseSpec.power_profile(4, 0.1, 2.0)
        u0 = 0.5 * basis_mode(32, 1)
        chats = []
        for g in (0.0, 0.01, 0.1):
            p = md.ModelParams(gamma=g, alpha=1.0, M=32)
            ic = md.IntegratorConfig(dt=2e-3, record_every=100)
            rec = md.simulate_ensemble(u0, p, ic, spec, 5.0, seed=14,
                                       traj_ids=np.arange(100), consts=CONSTS)
            mean_phi = rec.energy.phi.mean(axis=1)
            phi0 = mean_phi[0]
            chat = np.max(mean_phi - np.exp(-0.5 * 1.0 * rec.times) * phi0)
            chats.append(max(chat, 1e-12))
        assert max(chats) / min(chats) < 3.0


def eta_run(spec, alpha, T, dt, seed, n_traj=1, record_every=1):
    """The linear process eta: gamma = 0, the cubic off, zero data; one
    unforced mode stands in when N = 0."""
    params = md.ModelParams(gamma=0.0, alpha=alpha, M=max(spec.N, 1), nonlinear=False)
    return md.simulate_ensemble(np.zeros(params.M, complex), params,
                                md.IntegratorConfig(dt=dt, record_every=record_every), spec,
                                T, seed, traj_ids=np.arange(n_traj), record_states=True)


class TestEta:
    def test_zero_noise(self):
        rec = eta_run(nz.NoiseSpec(np.zeros(0)), 1.0, 1.0, 0.1, seed=15)
        assert np.all(rec.states == 0)

    def test_stationary_variance(self):
        spec = nz.NoiseSpec.power_profile(4, 0.3, 2.0)
        alpha = 0.8
        rec = eta_run(spec, alpha, T=10 / alpha, dt=0.25, seed=16, n_traj=10_000,
                      record_every=10)
        final = rec.states[-1]
        emp = np.mean(np.abs(final) ** 2, axis=0)
        se = np.std(np.abs(final) ** 2, axis=0) / np.sqrt(final.shape[0])
        theory = nz.ou_mode_variance(spec, alpha, rec.times[-1])
        assert np.all(np.abs(emp - theory) <= 3 * se)

    def test_small_ball_frequency_positive(self):
        # P(sup_{[0,2]} ||eta||_{H^2} <= 1.5) observed > 0 at the default profile
        spec = nz.NoiseSpec.power_profile(8, 0.05, 2.0)
        rec = eta_run(spec, 1.0, T=2.0, dt=0.05, seed=17, n_traj=400)
        h2 = np.sqrt(fn.norm_hr_sq(rec.states, 2.0))  # (n_rec, n_traj)
        sup = h2.max(axis=0)
        assert np.mean(sup <= 1.5) > 0.0
