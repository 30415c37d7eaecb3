import numpy as np
import pytest

from qillum.errors import NumericFailure
from _oracles import random_physical_cm, two_mode_symplectic_eigenvalues
from qillum.symplectic import (
    CovMatrix,
    is_physical,
    symplectic_eigenvalues,
    symplectic_form,
    williamson,
)


def tmsv_cm(ns: float, ni: float, c: float) -> np.ndarray:
    nu = 2 * ns + 1
    mu = 2 * ni + 1
    z = np.diag([1.0, -1.0])
    top = np.hstack([nu * np.eye(2), c * z])
    bot = np.hstack([c * z, mu * np.eye(2)])
    return 0.5 * np.vstack([top, bot])


def two_mode_squeezer(r: float) -> np.ndarray:
    z = np.diag([1.0, -1.0])
    return np.block([[np.cosh(r) * np.eye(2), np.sinh(r) * z],
                     [np.sinh(r) * z, np.cosh(r) * np.eye(2)]])


def assert_williamson(dec, m, spectrum_rtol=1e-12):
    """Both reconstruction invariants, a descending spectrum, and its agreement with the eigvals route."""
    omega = symplectic_form(len(m) // 2)
    s = dec.s_matrix
    assert np.abs(s @ omega @ s.T - omega).max() < 1e-10
    assert np.abs(s @ dec.diagonal_form() @ s.T - m).max() < 1e-9
    assert np.all(np.diff(dec.spectrum) <= 0.0)
    want = symplectic_eigenvalues(CovMatrix(m))
    assert np.allclose(dec.spectrum, want, rtol=spectrum_rtol, atol=0.0)


class TestSymplecticForm:
    def test_one_mode(self):
        assert np.array_equal(symplectic_form(1), np.array([[0.0, 1.0], [-1.0, 0.0]]))

    def test_two_modes_direct_sum(self):
        omega = symplectic_form(2)
        block = np.array([[0.0, 1.0], [-1.0, 0.0]])
        assert np.array_equal(omega[:2, :2], block)
        assert np.array_equal(omega[2:, 2:], block)
        assert np.all(omega[:2, 2:] == 0) and np.all(omega[2:, :2] == 0)

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_orthogonal_antisymmetric(self, n):
        omega = symplectic_form(n)
        assert np.allclose(omega @ omega.T, np.eye(2 * n))
        assert np.allclose(omega @ omega, -np.eye(2 * n))
        assert np.array_equal(omega, -omega.T)

    def test_zero_modes_rejected(self):
        with pytest.raises(ValueError):
            symplectic_form(0)


class TestCovMatrix:
    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            CovMatrix(np.zeros((2, 4)))

    def test_rejects_odd_dimension(self):
        with pytest.raises(ValueError):
            CovMatrix(np.eye(3))

    def test_rejects_asymmetric(self):
        m = np.eye(2)
        m[0, 1] = 1e-6
        with pytest.raises(ValueError):
            CovMatrix(m)

    def test_entries_frozen(self):
        v = CovMatrix(0.5 * np.eye(2))
        with pytest.raises(ValueError):
            v.entries[0, 0] = 1.0

    def test_n_modes(self):
        assert CovMatrix(0.5 * np.eye(6)).n_modes == 3


class TestSymplecticEigenvalues:
    def test_vacuum(self):
        nus = symplectic_eigenvalues(CovMatrix(0.5 * np.eye(4)))
        assert np.allclose(nus, [0.5, 0.5])

    def test_diagonal_thermal_product(self):
        # return/idler product of thermal states with N_B=20, N_I=0.01
        v = CovMatrix(np.diag([20.5, 20.5, 0.51, 0.51]))
        assert np.allclose(symplectic_eigenvalues(v), [20.5, 0.51], atol=1e-12)

    def test_tmsv_against_invariant_formula(self):
        # maximally correlated (pure) source: oracle predicts nu = [1/2, 1/2]
        ns = ni = 0.01
        cq = 2 * np.sqrt(ns * (ni + 1))
        m = tmsv_cm(ns, ni, cq)
        oracle = two_mode_symplectic_eigenvalues(m)
        assert np.allclose(oracle, [0.5, 0.5], atol=1e-12)
        nus = symplectic_eigenvalues(CovMatrix(m))
        assert np.allclose(nus, oracle, atol=1e-10)

    def test_mixed_source_against_invariant_formula(self):
        # idler at least as bright as the signal, the regime where c <= c_q
        # guarantees physicality
        rng = np.random.default_rng(7)
        for _ in range(50):
            ns = rng.uniform(0.0, 3.0)
            ni = ns + rng.uniform(0.0, 2.0)
            c = rng.uniform(0.0, 1.0) * 2 * np.sqrt(ns * (ni + 1))
            m = tmsv_cm(ns, ni, c)
            got = symplectic_eigenvalues(CovMatrix(m))
            want = np.sort(two_mode_symplectic_eigenvalues(m))[::-1]
            assert np.allclose(got, want, rtol=1e-10, atol=1e-12)

    def test_rejects_non_positive_definite(self):
        with pytest.raises(ValueError):
            symplectic_eigenvalues(CovMatrix(np.diag([1.0, -0.5])))

    def test_conjugate_pairing(self):
        rng = np.random.default_rng(11)
        omega = symplectic_form(2)
        for _ in range(25):
            m = random_physical_cm(rng, 2)
            eig = np.linalg.eigvals(omega @ m)
            assert np.abs(eig.real).max() < 1e-10 * max(1.0, np.abs(eig).max())
            up = np.sort(eig.imag[eig.imag > 0])
            down = np.sort(-eig.imag[eig.imag < 0])
            assert np.allclose(up, down, rtol=1e-10)


class TestWilliamson:
    def test_already_diagonal(self):
        v = CovMatrix(np.diag([2.0, 2.0, 0.7, 0.7]))
        dec = williamson(v)
        assert np.allclose(dec.spectrum, [2.0, 0.7])
        assert np.allclose(dec.s_matrix @ dec.s_matrix.T, np.eye(4), atol=1e-12)

    def test_tmsv_round_trip(self):
        ns = ni = 0.01
        cq = 2 * np.sqrt(ns * (ni + 1))
        m = tmsv_cm(ns, ni, cq)
        dec = williamson(CovMatrix(m))
        omega = symplectic_form(2)
        assert np.allclose(dec.spectrum, [0.5, 0.5], atol=1e-9)
        assert np.abs(dec.s_matrix @ omega @ dec.s_matrix.T - omega).max() < 1e-10
        assert np.abs(dec.s_matrix @ dec.diagonal_form() @ dec.s_matrix.T - m).max() < 1e-9

    def test_spectrum_matches_symplectic_eigenvalues(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            m = random_physical_cm(rng, 2)
            v = CovMatrix(m)
            assert np.allclose(williamson(v).spectrum, symplectic_eigenvalues(v), rtol=1e-9)

    @pytest.mark.parametrize("n_modes", [1, 2, 3])
    def test_round_trip_1000_random_cms(self, n_modes):
        # seeded property suite: both invariants on random physical CMs
        rng = np.random.default_rng(1234 + n_modes)
        omega = symplectic_form(n_modes)
        runs = 1000 // 3 + 1
        for _ in range(runs):
            m = random_physical_cm(rng, n_modes)
            dec = williamson(CovMatrix(m))
            assert np.abs(dec.s_matrix @ omega @ dec.s_matrix.T - omega).max() < 1e-10
            recon = dec.s_matrix @ dec.diagonal_form() @ dec.s_matrix.T
            assert np.abs(recon - m).max() < 1e-9
            assert np.all(dec.spectrum >= 0.5 - 1e-9)

    def test_degenerate_spectrum(self):
        # two identical thermal modes entangled by a symplectic mix
        rng = np.random.default_rng(99)
        for _ in range(20):
            m = random_physical_cm(rng, 2, nu_max=0.5000000001)
            dec = williamson(CovMatrix(m))
            assert np.allclose(dec.spectrum, [0.5, 0.5], atol=1e-8)
            recon = dec.s_matrix @ dec.diagonal_form() @ dec.s_matrix.T
            assert np.abs(recon - m).max() < 1e-9


class TestWilliamsonEighRoute:
    """The decomposition reads the real Schur data off eigh(i K), K = R Omega R."""

    def test_two_identical_thermal_modes(self):
        # a repeated nu leaves eigh free to return any basis of its eigenspace
        nu = 2.3
        s = two_mode_squeezer(0.7)
        assert np.abs(s @ symplectic_form(2) @ s.T - symplectic_form(2)).max() < 1e-14
        for m in (nu * np.eye(4), nu * s @ s.T):
            dec = williamson(CovMatrix(m))
            assert np.allclose(dec.spectrum, [nu, nu], rtol=1e-12, atol=0.0)
            assert_williamson(dec, m)

    @pytest.mark.parametrize("ns", [0.0, 0.01, 0.3, 2.0])
    def test_pure_two_mode_vacuum(self, ns):
        # two-mode squeezed vacuum at the quantum limit: every nu is 1/2
        m = tmsv_cm(ns, ns, 2 * np.sqrt(ns * (ns + 1)))
        dec = williamson(CovMatrix(m))
        assert np.allclose(dec.spectrum, [0.5, 0.5], rtol=1e-12, atol=0.0)
        assert_williamson(dec, m)

    def test_three_mode_random_states(self):
        # both routes lose accuracy with the condition number of V; at this
        # squeezing strength it stays below ~3e3, where they agree to 1e-12
        rng = np.random.default_rng(2026)
        for _ in range(20):
            m = random_physical_cm(rng, 3, strength=0.5)
            assert_williamson(williamson(CovMatrix(m)), m)

    def test_descending_order(self):
        m = np.diag([0.7, 0.7, 3.0, 3.0, 1.2, 1.2])
        dec = williamson(CovMatrix(m))
        assert np.allclose(dec.spectrum, [3.0, 1.2, 0.7], rtol=1e-12, atol=0.0)
        assert_williamson(dec, m)

    @pytest.mark.parametrize("m", [np.diag([2.0, 2.0]), np.diag([0.6, 4.0]),
                                   tmsv_cm(0.01, 0.02, 0.1)])
    def test_block_orientation(self, m):
        # swapping the (sqrt2 b, sqrt2 a) columns of a block flips its sign,
        # which would give S Omega S^T = -Omega
        dec = williamson(CovMatrix(m))
        omega = symplectic_form(len(m) // 2)
        form = dec.s_matrix @ omega @ dec.s_matrix.T
        assert np.abs(form - omega).max() < 1e-12
        assert np.abs(form + omega).max() > 1.0

    def test_residual_check_raises_numeric_failure(self, monkeypatch):
        # conjugated eigenvectors belong to -nu: every block comes out flipped,
        # and the unchanged 1e-8 residual check must catch it
        real_eigh = np.linalg.eigh

        def conjugated(a, *args, **kwargs):
            w, v = real_eigh(a, *args, **kwargs)
            return (w, v.conj()) if np.iscomplexobj(a) else (w, v)

        monkeypatch.setattr(np.linalg, "eigh", conjugated)
        with pytest.raises(NumericFailure, match="symplectic-form residual"):
            williamson(CovMatrix(tmsv_cm(0.01, 0.02, 0.1)))


class TestIsPhysical:
    def test_vacuum(self):
        assert is_physical(CovMatrix(0.5 * np.eye(4)))

    def test_super_quantum_correlation_unphysical(self):
        ns = ni = 0.01
        cq = 2 * np.sqrt(ns * (ni + 1))
        assert not is_physical(CovMatrix(tmsv_cm(ns, ni, 1.01 * cq)))

    def test_just_separable_physical(self):
        ns = ni = 0.01
        cd = 2 * np.sqrt(ns * ni)
        assert is_physical(CovMatrix(tmsv_cm(ns, ni, cd)))

    def test_non_symmetric_false(self):
        class Lax(CovMatrix):
            def __post_init__(self):  # bypass constructor validation on purpose
                object.__setattr__(self, "entries", np.asarray(self.entries, dtype=float))

        m = 0.5 * np.eye(2)
        m[0, 1] = 0.3
        assert not is_physical(Lax(m))

    def test_non_positive_definite_false(self):
        assert not is_physical(CovMatrix(np.diag([1.0, -1.0])))
