import numpy as np
import pytest
from scipy.fft import dst

from glnls import spectral as sp


def random_field(rng, M):
    return rng.standard_normal(M) + 1j * rng.standard_normal(M)


# (modes, grid points) on both sides of sp.DENSE_MAX_POINTS: the 2M grid
# every field is sampled on, an odd grid (2M + 1 points), and the M = 512 grid
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

    @pytest.mark.parametrize("K", [514, 600, 1024, 2047])
    def test_one_call_dst_matches_scipy_complex_route(self, K):
        # the DST route transforms the interleaved float view in one call:
        # bit for bit scipy's dst of the complex array, divided as before,
        # for each field alone, in batches of 2, 3, 4, 5 and 8 and in a stack
        M = K // 2
        rng = np.random.default_rng(K + 2)
        a = rng.standard_normal((8, M)) + 1j * rng.standard_normal((8, M))
        v = rng.standard_normal((8, K)) + 1j * rng.standard_normal((8, K))
        grid = sp.PhysicalGrid(K)
        syn, ana = sp.to_physical(a, grid), sp.to_spectral(v, M)
        assert syn.tobytes() == (dst(sp.pad_modes(a, K), type=1, axis=-1)
                                 / np.sqrt(2.0)).tobytes()
        assert ana.tobytes() == (dst(v, type=1, axis=-1)[..., :M]
                                 / (np.sqrt(2.0) * (K + 1))).tobytes()
        for i in range(8):
            assert np.array_equal(sp.to_physical(a[i], grid), syn[i])
            assert np.array_equal(sp.to_spectral(v[i], M), ana[i])
        for n in (2, 3, 4, 5):
            assert np.array_equal(sp.to_physical(a[8 - n:], grid), syn[8 - n:])
            assert np.array_equal(sp.to_spectral(v[8 - n:], M), ana[8 - n:])
        assert np.array_equal(sp.to_physical(a.reshape(2, 4, M), grid),
                              syn.reshape(2, 4, K))
        assert np.array_equal(sp.to_spectral(v.reshape(2, 4, K), M), ana.reshape(2, 4, M))

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
