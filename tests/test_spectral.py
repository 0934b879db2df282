import numpy as np
import pytest

from glnls import spectral as sp


def random_field(rng, M):
    return rng.standard_normal(M) + 1j * rng.standard_normal(M)


# (modes, grid points) on both sides of sp.DENSE_MAX_POINTS: the 2x
# de-aliasing grid, the odd 2M+1 grid of l4_norm4, and the M = 512 grid
CROSSOVER_GRIDS = [(64, 128), (64, 129), (512, 1024)]


class TestTransforms:
    def test_e1_at_half(self):
        # sqrt(2) sin(pi/2) evaluated through the transform, M = 1 puts the
        # single node at x = 1/2
        grid = sp.PhysicalGrid(1)
        assert grid.nodes[0] == pytest.approx(0.5)
        val = sp.to_physical(np.array([1.0 + 0j]), grid)
        assert val[0] == pytest.approx(np.sqrt(2.0), abs=1e-14)

    def test_zero_field(self):
        assert np.all(sp.to_physical(np.zeros(16, complex)) == 0)
        assert np.all(sp.to_spectral(np.zeros(16, complex)) == 0)

    @pytest.mark.parametrize("M", [8, 64, 256])
    def test_roundtrip_identity(self, M):
        rng = np.random.default_rng(M)
        a = random_field(rng, M)
        back = sp.to_spectral(sp.to_physical(a))
        assert np.max(np.abs(back - a)) / np.max(np.abs(a)) < 1e-10
        # and the other composition order on samples
        v = rng.standard_normal(M) + 1j * rng.standard_normal(M)
        again = sp.to_physical(sp.to_spectral(v))
        assert np.max(np.abs(again - v)) / np.max(np.abs(v)) < 1e-10

    def test_fast_matches_direct_oracle(self):
        rng = np.random.default_rng(1)
        a = random_field(rng, 48)
        assert np.allclose(sp.to_physical(a), sp.to_physical_direct(a), atol=1e-11)
        v = sp.to_physical(a)
        assert np.allclose(sp.to_spectral(v), sp.to_spectral_direct(v), atol=1e-11)

    def test_analysis_of_pure_modes(self):
        # samples of sqrt(2) sin(pi x) -> (1, 0, ..., 0)
        M = 12
        nodes = sp.PhysicalGrid(M).nodes
        samples = np.sqrt(2.0) * np.sin(np.pi * nodes)
        a = sp.to_spectral(samples.astype(complex))
        expect = np.zeros(M, complex)
        expect[0] = 1.0
        assert np.max(np.abs(a - expect)) < 1e-12
        # sqrt(2) sin(2 pi x) + i sqrt(2) sin(3 pi x) -> (0, 1, i, 0, ...)
        samples = np.sqrt(2.0) * (np.sin(2 * np.pi * nodes) + 1j * np.sin(3 * np.pi * nodes))
        a = sp.to_spectral(samples)
        expect = np.zeros(M, complex)
        expect[1] = 1.0
        expect[2] = 1j
        assert np.max(np.abs(a - expect)) < 1e-12

    def test_batched_transform(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((5, 16)) + 1j * rng.standard_normal((5, 16))
        v = sp.to_physical(a)
        assert v.shape == (5, 16)
        for i in range(5):
            assert np.allclose(v[i], sp.to_physical(a[i]))

    # K = 2048 is where oracle angles left unreduced were off by 2.3e-11
    @pytest.mark.parametrize("M,K", CROSSOVER_GRIDS + [(1024, 2048)])
    def test_routes_match_direct_oracle(self, M, K):
        rng = np.random.default_rng(K)
        a = rng.standard_normal((3, M)) + 1j * rng.standard_normal((3, M))
        grid = sp.PhysicalGrid(K)
        v = sp.to_physical(a, grid)
        # absolute 1e-11: allclose's default rtol would admit errors of 1e-5 |v|
        assert np.max(np.abs(v - sp.to_physical_direct(a, grid))) < 1e-11
        assert np.max(np.abs(sp.to_spectral(v, M) - sp.to_spectral_direct(v, M))) < 1e-11

    @pytest.mark.parametrize("M,K", CROSSOVER_GRIDS)
    def test_rows_bit_identical_across_batches(self, M, K):
        rng = np.random.default_rng(K + 1)
        a = rng.standard_normal((64, M)) + 1j * rng.standard_normal((64, M))
        grid = sp.PhysicalGrid(K)
        v = sp.to_physical(a, grid)
        back = sp.to_spectral(v, M)
        for rows in (slice(5, 6), slice(5, 7)):
            assert np.array_equal(sp.to_physical(a[rows], grid), v[rows])
            assert np.array_equal(sp.to_spectral(v[rows], M), back[rows])
        assert np.array_equal(sp.to_physical(a[5], grid), v[5])
        assert np.array_equal(sp.to_spectral(v[5], M), back[5])

    def test_crossover_covered(self):
        Ks = [K for _, K in CROSSOVER_GRIDS]
        assert min(Ks) <= sp.DENSE_MAX_POINTS < max(Ks)

    def test_cached_matrices_read_only(self):
        mats = sp._sine_matrices(4, 9)
        assert sp._sine_matrices(4, 9) is mats
        for S in mats:
            with pytest.raises(ValueError):
                S[0, 0] = 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(sp.DimensionMismatchError):
            sp.to_physical(np.ones(8, complex), sp.PhysicalGrid(4))
        with pytest.raises(sp.DimensionMismatchError):
            sp.to_spectral(np.ones(4, complex), M=8)


class TestEigtable:
    def test_alpha_values(self):
        al = sp.eigenvalues(5)
        assert al[0] == pytest.approx(np.pi**2)
        assert np.all(np.diff(al) > 0)


class TestProjections:
    def test_p1_definition(self):
        a = np.array([1.0, 2.0, 3.0], dtype=complex)
        assert np.allclose(sp.project_low(a, 1), [1, 0, 0])

    def test_qn_full_is_zero(self):
        rng = np.random.default_rng(3)
        a = random_field(rng, 6)
        assert np.all(sp.project_high(a, 6) == 0)

    def test_low_plus_high_is_identity(self):
        rng = np.random.default_rng(4)
        a = random_field(rng, 10)
        for N in (1, 3, 10):
            assert np.allclose(sp.project_low(a, N) + sp.project_high(a, N), a)

    def test_parseval_split(self):
        rng = np.random.default_rng(5)
        a = random_field(rng, 32)
        for N in (1, 7, 32):
            low = np.sum(np.abs(sp.project_low(a, N)) ** 2)
            high = np.sum(np.abs(sp.project_high(a, N)) ** 2)
            assert low + high == pytest.approx(np.sum(np.abs(a) ** 2), rel=1e-12)

    def test_cutoff_out_of_range(self):
        a = np.zeros(4, complex)
        for bad in (0, 5):
            with pytest.raises(sp.DimensionMismatchError):
                sp.project_low(a, bad)


class TestInvariants:
    def test_parseval_against_grid_quadrature(self):
        # ||u||_H^2 in coefficients equals the interior quadrature of |u|^2
        rng = np.random.default_rng(6)
        for M in (8, 64):
            a = random_field(rng, M)
            v = sp.to_physical(a)
            quad = np.sum(np.abs(v) ** 2) / (M + 1)
            assert quad == pytest.approx(np.sum(np.abs(a) ** 2), rel=1e-8)

    def test_validate_field(self):
        with pytest.raises(ValueError):
            sp.validate_field(np.array([1.0, np.nan]))
        with pytest.raises(sp.DimensionMismatchError):
            sp.validate_field(np.ones(3), M=4)

    def test_pad_modes(self):
        a = np.arange(3, dtype=complex)
        padded = sp.pad_modes(a, 6)
        assert padded.shape == (6,)
        assert np.all(padded[3:] == 0)
        with pytest.raises(sp.DimensionMismatchError):
            sp.pad_modes(a, 2)
