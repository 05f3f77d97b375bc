"""Tests for the dense Hermitian linear-algebra primitives."""

import numpy as np
import numpy.testing as npt
import pytest

from momentmap import linalg
from momentmap.errors import ValidationError
from momentmap.linalg import (
    _INV_SQRT2,
    _eigh,
    _exp_from_eigh,
    _frechet_kernel,
    _hermitian_coords,
    _hermitian_part,
    _hermitian_from_coords,
    _max_sup_norm,
    as_complex_matrix,
    as_hermitian,
    as_positive_definite,
    frechet_exp,
    frobenius_norm,
    hermitian_basis,
    hermitian_exp,
    hermitian_log,
    hermitian_part,
    metric_adjoint,
    sup_norm,
)


def random_hermitian(rng, n, scale=1.0):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return scale * 0.5 * (a + a.conj().T)


class TestConstructors:
    def test_rejects_non_2d(self):
        with pytest.raises(ValidationError):
            as_complex_matrix([1.0, 2.0])

    def test_rejects_nan(self):
        with pytest.raises(ValidationError):
            as_complex_matrix([[np.nan, 0.0], [0.0, 1.0]])

    def test_rejects_inf(self):
        with pytest.raises(ValidationError):
            as_complex_matrix([[0.0, 1j * np.inf], [0.0, 1.0]])

    def test_any_memory_layout(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
        for view in (a.T, np.asfortranarray(a), a[:, ::2], a.real.T, a[::-1, ::-2].T):
            got = as_complex_matrix(view)
            assert got.flags.c_contiguous
            npt.assert_array_equal(got, view)
        bad = np.asfortranarray([[0.0, 1.0], [np.nan, 2.0]])
        with pytest.raises(ValidationError, match="non-finite"):
            as_complex_matrix(bad)

    def test_hermitian_rejects_asymmetric(self):
        with pytest.raises(ValidationError):
            as_hermitian([[0.0, 1.0], [0.0, 0.0]])

    def test_hermitian_symmetrizes_exactly(self):
        rng = np.random.default_rng(0)
        a = random_hermitian(rng, 4)
        a[0, 1] += 1e-14  # below tolerance
        h = as_hermitian(a)
        npt.assert_array_equal(h, h.conj().T)

    def test_hermitian_validates_once(self, monkeypatch):
        # The input is checked and copied once; the symmetrisation is the
        # public hermitian_part's, bitwise.
        a = random_hermitian(np.random.default_rng(1), 3).T
        want = hermitian_part(a)
        calls = []
        check = linalg.as_complex_matrix

        def counted(*args, **kwargs):
            calls.append(1)
            return check(*args, **kwargs)

        monkeypatch.setattr(linalg, "as_complex_matrix", counted)
        assert as_hermitian(a).tobytes() == want.tobytes()
        assert len(calls) == 1

    def test_positive_definite_rejects_semidefinite(self):
        with pytest.raises(ValidationError):
            as_positive_definite([[1.0, 0.0], [0.0, 0.0]])

    def test_positive_definite_rejects_negative(self):
        with pytest.raises(ValidationError):
            as_positive_definite([[1.0, 0.0], [0.0, -2.0]])

    def test_norms_on_empty(self):
        e = np.zeros((0, 0))
        assert sup_norm(e) == 0.0
        assert frobenius_norm(e) == 0.0

    @pytest.mark.parametrize("shape", [(1, 1), (3, 3), (4, 2), (2, 5), (12, 12)])
    def test_sup_norm_bitwise_equal_to_norm_2(self, shape):
        rng = np.random.default_rng(sum(shape))
        for a in (
            rng.standard_normal(shape),
            rng.standard_normal(shape) + 1j * rng.standard_normal(shape),
        ):
            assert sup_norm(a) == float(np.linalg.norm(a.astype(np.complex128), 2))


class TestExpLog:
    def test_exp_zero_is_identity(self):
        npt.assert_allclose(hermitian_exp(np.zeros((2, 2))), np.eye(2), atol=1e-15)

    def test_exp_diagonal(self):
        s = np.diag([np.log(2.0), np.log(3.0)]).astype(complex)
        npt.assert_allclose(hermitian_exp(s), np.diag([2.0, 3.0]), rtol=1e-14)

    def test_log_identity_is_zero(self):
        npt.assert_allclose(hermitian_log(np.eye(3)), np.zeros((3, 3)), atol=1e-15)

    def test_log_diagonal(self):
        npt.assert_allclose(
            hermitian_log(np.diag([2.0, 3.0])),
            np.diag([np.log(2.0), np.log(3.0)]),
            rtol=1e-14,
        )

    def test_exp_inverse_identity(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            s = random_hermitian(rng, 5)
            p = hermitian_exp(s) @ hermitian_exp(-s)
            npt.assert_allclose(p, np.eye(5), atol=1e-12)

    def test_exp_output_positive_definite(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            s = random_hermitian(rng, 4, scale=3.0)
            w = np.linalg.eigvalsh(hermitian_exp(s))
            assert w[0] > 0

    def test_roundtrip(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            s = random_hermitian(rng, 4)
            h = hermitian_exp(s)
            npt.assert_allclose(hermitian_log(h), s, atol=1e-10 * max(1.0, sup_norm(s)))


class TestMetricAdjoint:
    def test_identity_metrics_give_conjugate_transpose(self):
        rng = np.random.default_rng(10)
        t = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
        adj = metric_adjoint(t, np.eye(2), np.eye(3))
        npt.assert_allclose(adj, t.conj().T, atol=1e-15)

    def test_diagonal_metric_example(self):
        # h_src^-1 T^dagger h_dst = diag(1, 1/4) E21 diag(1, 4): entry (2,1) = 1/4.
        t = np.array([[0.0, 1.0], [0.0, 0.0]])
        h = np.diag([1.0, 4.0])
        adj = metric_adjoint(t, h, h)
        npt.assert_allclose(adj, np.array([[0.0, 0.0], [0.25, 0.0]]), atol=1e-15)

    def test_pairing_identity(self):
        # <T x, y>_{h_dst} = <x, adj y>_{h_src} with <x,y>_h = y^dagger h x.
        rng = np.random.default_rng(11)
        for _ in range(30):
            d_src, d_dst = rng.integers(1, 5, size=2)
            t = rng.standard_normal((d_dst, d_src)) + 1j * rng.standard_normal((d_dst, d_src))
            h_src = make_pd(rng, d_src)
            h_dst = make_pd(rng, d_dst)
            adj = metric_adjoint(t, h_src, h_dst)
            x = rng.standard_normal(d_src) + 1j * rng.standard_normal(d_src)
            y = rng.standard_normal(d_dst) + 1j * rng.standard_normal(d_dst)
            lhs = y.conj() @ h_dst @ (t @ x)
            rhs = (adj @ y).conj() @ h_src @ x
            assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))

    def test_anti_homomorphism(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            d1, d2, d3 = rng.integers(1, 5, size=3)
            t = rng.standard_normal((d2, d1)) + 1j * rng.standard_normal((d2, d1))
            s = rng.standard_normal((d3, d2)) + 1j * rng.standard_normal((d3, d2))
            h1, h2, h3 = make_pd(rng, d1), make_pd(rng, d2), make_pd(rng, d3)
            lhs = metric_adjoint(s @ t, h1, h3)
            rhs = metric_adjoint(t, h1, h2) @ metric_adjoint(s, h2, h3)
            npt.assert_allclose(lhs, rhs, atol=1e-12 * max(1.0, sup_norm(lhs)))

    def test_double_adjoint(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            d_src, d_dst = rng.integers(1, 6, size=2)
            t = rng.standard_normal((d_dst, d_src)) + 1j * rng.standard_normal((d_dst, d_src))
            h_src = make_pd(rng, d_src)
            h_dst = make_pd(rng, d_dst)
            back = metric_adjoint(metric_adjoint(t, h_src, h_dst), h_dst, h_src)
            npt.assert_allclose(back, t, atol=1e-12 * max(1.0, sup_norm(t)))

    def test_shape_mismatch(self):
        with pytest.raises(ValidationError):
            metric_adjoint(np.zeros((2, 3)), np.eye(2), np.eye(2))

    @pytest.mark.parametrize("h_src", [np.zeros((2, 2)), -np.eye(2)])
    def test_rejects_a_metric_that_is_not_positive_definite(self, h_src):
        with pytest.raises(ValidationError, match="source metric: not positive-definite"):
            metric_adjoint(np.ones((2, 2)), h_src, np.eye(2))
        with pytest.raises(ValidationError, match="target metric: not positive-definite"):
            metric_adjoint(np.ones((2, 2)), np.eye(2), h_src)


def make_pd(rng, n):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return a @ a.conj().T + n * np.eye(n)


class TestFrechetExp:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(14)
        eps = 1e-6
        for _ in range(15):
            n = int(rng.integers(1, 5))
            s = random_hermitian(rng, n)
            x = random_hermitian(rng, n)
            d = frechet_exp(s, x)
            fd = (hermitian_exp(s + eps * x) - hermitian_exp(s - eps * x)) / (2 * eps)
            npt.assert_allclose(d, fd, atol=1e-7 * max(1.0, sup_norm(d)))

    def test_commuting_case(self):
        # At a diagonal base point with a diagonal direction, the derivative
        # is exp(s) x.
        s = np.diag([0.3, -1.2]).astype(complex)
        x = np.diag([2.0, 5.0]).astype(complex)
        npt.assert_allclose(frechet_exp(s, x), hermitian_exp(s) @ x, rtol=1e-12)

    def test_trace_self_adjoint(self):
        rng = np.random.default_rng(15)
        for _ in range(20):
            n = int(rng.integers(1, 5))
            s = random_hermitian(rng, n)
            x = random_hermitian(rng, n)
            y = random_hermitian(rng, n)
            lhs = np.trace(y @ frechet_exp(s, x))
            rhs = np.trace(frechet_exp(s, y) @ x)
            assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(lhs))

    def test_degenerate_eigenvalues(self):
        # Repeated eigenvalues exercise the sinch limit.
        s = np.zeros((3, 3), dtype=complex)
        rng = np.random.default_rng(16)
        x = random_hermitian(rng, 3)
        npt.assert_allclose(frechet_exp(s, x), x, atol=1e-13)


def reference_hermitian_basis(n):
    """The basis as the list it was built as before it became a stack."""
    basis = []
    for j in range(n):
        e = np.zeros((n, n), dtype=np.complex128)
        e[j, j] = 1.0
        basis.append(e)
    for j in range(n):
        for k in range(j + 1, n):
            e = np.zeros((n, n), dtype=np.complex128)
            e[j, k] = e[k, j] = _INV_SQRT2
            f = np.zeros((n, n), dtype=np.complex128)
            f[j, k], f[k, j] = 1j * _INV_SQRT2, -1j * _INV_SQRT2
            basis += [e, f]
    return basis


class TestHermitianPart:
    def test_stack_is_bitwise_the_per_matrix_symmetrisation(self):
        rng = np.random.default_rng(5)
        for n in (1, 2, 5):
            stack = rng.standard_normal((7, n, n)) + 1j * rng.standard_normal((7, n, n))
            got = _hermitian_part(stack)
            for a, g in zip(stack, got):
                assert g.tobytes() == (0.5 * (a + a.conj().T)).tobytes()
                assert _hermitian_part(a).tobytes() == g.tobytes()


def spectral_cases(seed):
    """Hermitian matrices, and their negatives, on which the eigensolver
    identities are pinned: zero, integer diagonals with repeated entries,
    repeated spectra in a random unitary frame, and random matrices of
    dimension 1 to 8 at three scales."""
    rng = np.random.default_rng(seed)
    cases = [np.zeros((d, d), dtype=np.complex128) for d in (1, 2, 4)]
    cases += [np.diag(w).astype(np.complex128) for w in ([3.0], [1, 1, -2, 3, 3], [2, 2, 2, 2])]
    for d in (2, 3, 4, 6):
        q, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
        w = rng.integers(-1, 2, d).astype(float)
        cases.append(_hermitian_part((q * w) @ q.conj().T))
    for d in range(1, 9):
        cases += [random_hermitian(rng, d, scale) for scale in (0.1, 1.0, 20.0)]
    return cases + [-s for s in cases]


class TestEighIdentities:
    """The stacked spectral evaluation of the Kempf-Ness functional rests on
    these properties of LAPACK's Hermitian eigensolver; a numpy or LAPACK
    upgrade that breaks one fails here by name."""

    def test_halving_commutes_with_eigh(self):
        # Halved as floats, so that every zero keeps its sign: numpy's complex
        # product ``0.5 * s`` can turn a real part -0.0 into +0.0, and the
        # Householder reflector reads that sign.
        for s in spectral_cases(20):
            w, u = _eigh(s)
            half_w, half_u = _eigh((0.5 * s.view(np.float64)).view(np.complex128))
            assert half_w.tobytes() == (0.5 * w).tobytes()
            assert half_u.tobytes() == u.tobytes()

    def test_stacked_eigh_is_per_slice(self):
        cases = spectral_cases(21)
        for d in sorted({s.shape[0] for s in cases}):
            stack = np.stack([s for s in cases if s.shape[0] == d])
            w, u = _eigh(stack)
            exp, kernel = _exp_from_eigh(w, u), _frechet_kernel(w)
            for i, s in enumerate(stack):
                wi, ui = _eigh(s)
                assert (wi.tobytes(), ui.tobytes()) == (w[i].tobytes(), u[i].tobytes())
                assert _exp_from_eigh(wi, ui).tobytes() == exp[i].tobytes()
                assert _frechet_kernel(wi).tobytes() == kernel[i].tobytes()

    def test_stacked_sup_norm_is_per_matrix(self):
        rng = np.random.default_rng(22)
        mats = [rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
                for shape in [(3, 3), (0, 0), (2, 5), (3, 3), (1, 1), (5, 2), (3, 3)]]
        mats.append([[1.0, 2.0], [3.0, 4.0]])  # a real nested list, coerced
        for k in range(len(mats) + 1):
            want = max((sup_norm(m) for m in mats[:k]), default=0.0)
            assert np.float64(_max_sup_norm(mats[:k])).tobytes() == np.float64(want).tobytes()


class TestHermitianBasis:
    def test_stack_equals_the_list(self):
        assert hermitian_basis(0).shape == (0, 0, 0)
        assert hermitian_basis(0).dtype == np.complex128
        for n in range(1, 9):
            got = hermitian_basis(n)
            assert got.shape == (n * n, n, n) and got.dtype == np.complex128
            assert got.tobytes() == np.array(reference_hermitian_basis(n)).tobytes()

    def test_orthonormal_and_complete(self):
        n = 3
        basis = hermitian_basis(n)
        assert len(basis) == n * n
        for i, a in enumerate(basis):
            npt.assert_allclose(a, a.conj().T, atol=1e-15)
            for j, b in enumerate(basis):
                ip = np.real(np.trace(a @ b))
                npt.assert_allclose(ip, 1.0 if i == j else 0.0, atol=1e-14)

    def test_closed_form_pairing_is_bitwise_the_trace_loop(self):
        rng = np.random.default_rng(21)
        for n in range(9):
            basis = hermitian_basis(n)
            for _ in range(20):
                m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                m[rng.random((n, n)) < 0.3] = 0.0
                want = np.array([float(np.trace(m @ c).real) for c in basis])
                assert _hermitian_coords(m).tobytes() == want.tobytes()

    def test_closed_form_assembly_is_bitwise_the_accumulation(self):
        rng = np.random.default_rng(22)
        for n in range(9):
            basis = hermitian_basis(n)
            for _ in range(20):
                x = rng.standard_normal(n * n)
                x[rng.random(n * n) < 0.2] = 0.0
                x[rng.random(n * n) < 0.2] = -0.0
                want = np.zeros((n, n), dtype=np.complex128)
                for coeff, c in zip(x, basis):
                    want = want + coeff * c
                assert _hermitian_from_coords(x, n).tobytes() == want.tobytes()
