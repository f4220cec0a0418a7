import numpy as np
import pytest

from kerr_thermo import SystemParams, Truncation, gap_variance, spectrum


class TestSpectrum:
    def test_linear_ladder(self):
        params = SystemParams(delta=-3.5, chi=0.0, drive=0.0, n_th=0.0)
        eig = spectrum(params, Truncation(40))
        expected = np.sort(-3.5 * np.arange(40.0))
        np.testing.assert_allclose(eig, expected, atol=1e-12)

    def test_undriven_kerr_closed_form(self):
        # diagonal Hamiltonian: E_n = delta n + chi n(n-1), sorted ascending
        params = SystemParams(delta=-3.5, chi=0.5, drive=0.0, n_th=0.0)
        n = np.arange(60.0)
        expected = np.sort(-3.5 * n + 0.5 * n * (n - 1))
        np.testing.assert_allclose(spectrum(params, Truncation(60)), expected, atol=1e-10)

    def test_truncation_convergence_over_window(self):
        # dense-solver oracle at a larger cutoff
        params = SystemParams(delta=-3.5, chi=1.0, drive=1.0, n_th=0.0)
        small = spectrum(params, Truncation(72))
        large = spectrum(params, Truncation(92))
        np.testing.assert_allclose(small[:52], large[:52], atol=1e-8)


class TestGapVariance:
    def test_constant_gaps_have_zero_variance(self):
        params = SystemParams(delta=-2.0, chi=0.0, drive=0.0, n_th=0.0)
        eig = spectrum(params, Truncation(60))
        assert gap_variance(eig, 10, 40) == pytest.approx(0.0, abs=1e-20)
        np.testing.assert_allclose(np.diff(eig)[10:41], 2.0, atol=1e-12)

    def test_arithmetic_progression_closed_form(self):
        # gaps delta + 2 chi n over n = 30..50: Var = (2 chi)^2 N(N+1)/12, N = 21
        chi = 0.5
        params = SystemParams(delta=-3.5, chi=chi, drive=0.0, n_th=0.0)
        eig = spectrum(params, Truncation(80))
        variance = gap_variance(eig, 30, 50)
        brute = np.array([-3.5 + 2 * chi * n for n in range(30, 51)])
        assert variance == pytest.approx(float(brute.var(ddof=1)), abs=1e-12)
        assert variance == pytest.approx((2 * chi) ** 2 * 21 * 22 / 12.0, abs=1e-9)
        assert variance == pytest.approx(38.5, abs=1e-9)

    def test_window_bounds(self):
        eig = np.arange(10.0)
        with pytest.raises(ValueError, match="out of range"):
            gap_variance(eig, 5, 9)
        with pytest.raises(ValueError, match="out of range"):
            gap_variance(eig, -1, 5)
        with pytest.raises(ValueError, match="out of range"):
            gap_variance(eig, 5, 5)

    def test_shift_invariance_and_scaling(self, rng):
        eig = np.sort(rng.normal(size=40))
        base = gap_variance(eig, 5, 30)
        shifted = gap_variance(eig + 7.3, 5, 30)
        scaled = gap_variance(eig * 3.0, 5, 30)
        assert shifted == pytest.approx(base, rel=1e-9)
        assert scaled == pytest.approx(9.0 * base, rel=1e-12)

    def test_requires_sorted_input(self):
        with pytest.raises(ValueError, match="ascending"):
            gap_variance(np.array([0.0, 2.0, 1.0, 3.0]), 0, 1)

    def test_kerr_variance_grows_with_chi(self):
        # monotone trend of the gap variance over the Kerr coefficient
        params = [SystemParams(delta=-3.5, chi=c, drive=1.0, n_th=0.0) for c in (0.2, 0.5, 0.8, 1.1)]
        variances = [gap_variance(spectrum(p, Truncation(72)), 30, 50) for p in params]
        assert all(a < b for a, b in zip(variances, variances[1:]))
