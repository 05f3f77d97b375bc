"""Tests for the moment-map residual, Kempf-Ness functional, and Hamiltonians."""

import numpy as np
import numpy.testing as npt
import pytest

from momentmap import moment
from momentmap.errors import ValidationError
from momentmap.linalg import _frechet_exp, _hermitian_exp, hermitian_basis, hermitian_exp, sup_norm
from momentmap.moment import (
    KahlerData,
    _eigenpairs,
    _kempf_ness_gradient,
    _kempf_ness_value,
    _king_residual,
    _spectra,
    gauge_variation,
    hamiltonian_projector,
    hamiltonian_trivial,
    identity_metric,
    kempf_ness_gradient,
    kempf_ness_value,
    king_residual,
    poisson_bracket_check,
    zero_displacement,
)
from momentmap.quiver import Arrow, Quiver, Representation, direct_sum, random_representation
from momentmap.solver import _family_sup


def rand_herm(rng, n, scale=1.0):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return scale * 0.5 * (a + a.conj().T)


def rand_antiherm(rng, n):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return 0.5 * (a - a.conj().T)


def rand_unitary(rng, n):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, _ = np.linalg.qr(a)
    return q


def loop_quiver(n_loops=1):
    return Quiver(("v",), tuple(Arrow(f"l{i}", "v", "v") for i in range(n_loops)))


def two_vertex_quiver():
    return Quiver(
        ("1", "2"),
        (Arrow("a", "1", "2"), Arrow("b", "2", "1"), Arrow("l", "1", "1")),
    )


def mixed_case():
    """A loop, parallel arrows, a zero-dimensional vertex, nonzero eta,
    non-unit weights and a displacement of sup norm about 3."""
    q = Quiver(
        ("a", "b", "c", "d", "z"),
        (Arrow("l", "a", "a"), Arrow("p1", "a", "b"), Arrow("p2", "a", "b"),
         Arrow("r", "b", "c"), Arrow("s", "c", "a"), Arrow("t", "c", "d"),
         Arrow("u", "z", "a"), Arrow("w", "b", "z")),
    )
    dims = {"a": 3, "b": 2, "c": 2, "d": 1, "z": 0}
    rep = random_representation(q, dims, seed=7)
    eta = {"a": 1.0, "b": -0.5, "c": -1.5, "d": 1.0, "z": 0.7}
    weights = {"l": 0.7, "p1": 1.3, "p2": 2.1, "r": 0.4, "s": 1.7, "t": 0.6, "u": 0.9, "w": 1.1}
    rng = np.random.default_rng(3)
    s = {v: rand_herm(rng, dims[v]) for v in q.vertices}
    top = max(sup_norm(m) for m in s.values())
    return rep, {v: 3.0 * m / top for v, m in s.items()}, eta, weights


def reference_gradient(rep, s, eta, w):
    """The gradient with every exponential and Frechet derivative evaluated
    on its own, each with its own eigendecomposition."""
    q = rep.quiver
    exp_pos = {v: _hermitian_exp(s[v]) for v in q.vertices}
    exp_neg = {v: _hermitian_exp(-s[v]) for v in q.vertices}
    p_acc = {v: np.zeros((rep.dims[v], rep.dims[v]), dtype=np.complex128) for v in q.vertices}
    q_acc = {v: np.zeros((rep.dims[v], rep.dims[v]), dtype=np.complex128) for v in q.vertices}
    for a in q.arrows:
        t = rep.matrices[a.name]
        if t.size == 0:
            continue
        p_acc[a.dst] = p_acc[a.dst] + w[a.name] * (t @ exp_neg[a.src] @ t.conj().T)
        q_acc[a.src] = q_acc[a.src] + w[a.name] * (t.conj().T @ exp_pos[a.dst] @ t)
    grad = {}
    for v in q.vertices:
        d = rep.dims[v]
        if d == 0:
            grad[v] = np.zeros((0, 0), dtype=np.complex128)
            continue
        p, qv = p_acc[v], q_acc[v]
        g = (
            _frechet_exp(s[v], 0.5 * (p + p.conj().T))
            - _frechet_exp(-s[v], 0.5 * (qv + qv.conj().T))
            + eta[v] * np.eye(d, dtype=np.complex128)
        )
        grad[v] = 0.5 * (g + g.conj().T)
    return grad


def random_families(count=16):
    """Random points on a quiver with a zero-dimensional vertex, 1x1
    vertices, mixed dimensions, loops and parallel arrows: representation,
    displacement family, eta and weights.  Every other family has repeated
    eigenvalues +-scale in a random frame, where the spectrum of ``-s_v`` is
    not the reversed spectrum of ``s_v``."""
    q = Quiver(
        ("a", "b", "c", "d", "e", "z"),
        (Arrow("l", "a", "a"), Arrow("p1", "a", "b"), Arrow("p2", "a", "b"),
         Arrow("r", "b", "c"), Arrow("m", "c", "d"), Arrow("k", "d", "d"),
         Arrow("n", "d", "e"), Arrow("o", "e", "a"), Arrow("u", "z", "a")),
    )
    for seed in range(count):
        rng = np.random.default_rng(seed)
        dims = {"a": 3, "b": 1, "c": 2, "d": 1, "e": 3, "z": 0}
        dims.update(a=int(rng.integers(1, 5)), c=int(rng.integers(1, 5)))
        rep = random_representation(q, dims, seed=seed)
        scale = (0.1, 1.0, 4.0)[seed % 3]
        s = {v: rand_herm(rng, dims[v], scale) for v in q.vertices}
        if seed % 2:
            for v in q.vertices:
                u = rand_unitary(rng, dims[v])
                s[v] = 0.5 * ((u * rng.choice([-scale, scale], dims[v])) @ u.conj().T)
                s[v] = s[v] + s[v].conj().T
        eta = {v: float(rng.standard_normal()) for v in q.vertices}
        weights = {a.name: float(rng.uniform(0.5, 2.0)) for a in q.arrows}
        yield rep, s, eta, weights


def reference_value(rep, s, eta, w):
    """The functional with each exponential on its own eigendecomposition."""
    total = 0.0
    for a in rep.quiver.arrows:
        t = rep.matrices[a.name]
        if t.size:
            m = _hermitian_exp(0.5 * s[a.dst]) @ t @ _hermitian_exp(-0.5 * s[a.src])
            total += w[a.name] * float(np.linalg.norm(m) ** 2)
    for v in rep.quiver.vertices:
        total += eta[v] * float(np.trace(s[v]).real)
    return total


class TestStackedKernelsMatchPerVertex:
    """One stacked eigh per vertex dimension and one stacked SVD per shape
    give, bitwise, what a decomposition per vertex and sign gives."""

    def test_value_gradient_and_metric(self):
        for rep, s, eta, w in random_families():
            eig = _eigenpairs(s)
            assert len(eig) == len(set(rep.dims.values()))
            value = _kempf_ness_value(rep, s, eta, w, eig)
            assert np.float64(value).tobytes() == np.float64(reference_value(rep, s, eta, w)).tobytes()
            spectra = _spectra(eig)
            got = _kempf_ness_gradient(rep, s, eta, w, spectra)
            want = reference_gradient(rep, s, eta, w)
            for v in rep.quiver.vertices:
                assert got[v].tobytes() == want[v].tobytes()
                assert spectra[v][0][0].tobytes() == _hermitian_exp(s[v]).tobytes()
                assert spectra[v][1][0].tobytes() == _hermitian_exp(-s[v]).tobytes()

    def test_residual_and_family_sup_norms(self):
        for rep, s, eta, w in random_families():
            metric = {v: _hermitian_exp(s[v]) for v in rep.quiver.vertices}
            res = _king_residual(rep, metric, eta, w)
            want = max(sup_norm(b) for b in res.blocks.values())
            assert np.float64(res.sup).tobytes() == np.float64(want).tobytes()
            for family in (s, res.blocks, _kempf_ness_gradient(rep, s, eta, w)):
                want = max(sup_norm(m) for m in family.values())
                assert np.float64(_family_sup(family)).tobytes() == np.float64(want).tobytes()


class TestKingResidual:
    def test_zero_representation(self):
        q = loop_quiver()
        rep = Representation(q, {"v": 2}, {"l0": np.zeros((2, 2))})
        res = king_residual(rep, identity_metric(rep), {"v": 0.0})
        npt.assert_allclose(res.blocks["v"], np.zeros((2, 2)), atol=1e-15)
        assert res.sup == 0.0

    def test_identity_metric_commutator_form(self):
        # With h = Id and unit weights the residual is
        # sum_a over out-arrows T^dagger T - sum over in-arrows T T^dagger - eta.
        q = loop_quiver()
        rng = np.random.default_rng(0)
        t = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        rep = Representation(q, {"v": 3}, {"l0": t})
        res = king_residual(rep, identity_metric(rep), {"v": 0.0})
        expected = t.conj().T @ t - t @ t.conj().T
        npt.assert_allclose(res.blocks["v"], expected, atol=1e-13)

    def test_normal_matrix_solves_at_identity(self):
        q = loop_quiver()
        rng = np.random.default_rng(1)
        u = rand_unitary(rng, 3)
        t = u @ np.diag([1.0 + 2.0j, -0.5, 3.0j]) @ u.conj().T
        rep = Representation(q, {"v": 3}, {"l0": t})
        res = king_residual(rep, identity_metric(rep), {"v": 0.0})
        assert res.sup < 1e-13

    def test_trace_identity(self):
        rng = np.random.default_rng(2)
        q = two_vertex_quiver()
        rep = random_representation(q, {"1": 2, "2": 3}, seed=5)
        eta = {"1": 1.5, "2": -1.0}
        for _ in range(10):
            metric = {
                "1": hermitian_exp(rand_herm(rng, 2)),
                "2": hermitian_exp(rand_herm(rng, 3)),
            }
            res = king_residual(rep, metric, eta)
            expected = -(eta["1"] * 2 + eta["2"] * 3)
            assert abs(res.trace_sum - expected) < 1e-10 * max(1.0, res.sup)

    def test_unitary_equivariance(self):
        rng = np.random.default_rng(3)
        q = two_vertex_quiver()
        rep = random_representation(q, {"1": 3, "2": 2}, seed=8)
        eta = {"1": 2.0, "2": -3.0}
        metric = {
            "1": hermitian_exp(rand_herm(rng, 3)),
            "2": hermitian_exp(rand_herm(rng, 2)),
        }
        res = king_residual(rep, metric, eta)
        g = {"1": rand_unitary(rng, 3), "2": rand_unitary(rng, 2)}
        mats = {
            a.name: g[a.dst] @ rep.matrices[a.name] @ g[a.src].conj().T
            for a in q.arrows
        }
        rep_g = Representation(q, rep.dims, mats)
        metric_g = {v: g[v] @ metric[v] @ g[v].conj().T for v in q.vertices}
        res_g = king_residual(rep_g, metric_g, eta)
        for v in q.vertices:
            npt.assert_allclose(
                res_g.blocks[v],
                g[v] @ res.blocks[v] @ g[v].conj().T,
                atol=1e-12 * max(1.0, res.sup),
            )

    def test_scaling_covariance(self):
        rng = np.random.default_rng(4)
        q = two_vertex_quiver()
        rep = random_representation(q, {"1": 2, "2": 2}, seed=9)
        eta = {"1": 1.0, "2": -1.0}
        metric = {
            "1": hermitian_exp(rand_herm(rng, 2)),
            "2": hermitian_exp(rand_herm(rng, 2)),
        }
        c = 3.5
        base = king_residual(rep, metric, eta)
        scaled = king_residual(
            rep,
            metric,
            {v: c * eta[v] for v in eta},
            KahlerData({a.name: c for a in q.arrows}),
        )
        for v in q.vertices:
            npt.assert_allclose(scaled.blocks[v], c * base.blocks[v], atol=1e-12)

    def test_direct_sum_block_structure(self):
        q = loop_quiver(2)
        r1 = random_representation(q, {"v": 2}, seed=1)
        r2 = random_representation(q, {"v": 1}, seed=2)
        s = direct_sum(r1, r2)
        rng = np.random.default_rng(5)
        h1 = hermitian_exp(rand_herm(rng, 2))
        h2 = hermitian_exp(rand_herm(rng, 1))
        h_sum = np.zeros((3, 3), dtype=complex)
        h_sum[:2, :2] = h1
        h_sum[2:, 2:] = h2
        res_sum = king_residual(s, {"v": h_sum}, {"v": 0.0})
        res1 = king_residual(r1, {"v": h1}, {"v": 0.0})
        res2 = king_residual(r2, {"v": h2}, {"v": 0.0})
        npt.assert_allclose(res_sum.blocks["v"][:2, :2], res1.blocks["v"], atol=1e-13)
        npt.assert_allclose(res_sum.blocks["v"][2:, 2:], res2.blocks["v"], atol=1e-13)
        npt.assert_allclose(res_sum.blocks["v"][:2, 2:], np.zeros((2, 1)), atol=1e-13)

    def test_metric_self_adjointness_of_blocks(self):
        # h_v mu_v is Hermitian, so the residual spectrum is real.
        rng = np.random.default_rng(6)
        q = two_vertex_quiver()
        rep = random_representation(q, {"1": 3, "2": 2}, seed=12)
        metric = {
            "1": hermitian_exp(rand_herm(rng, 3)),
            "2": hermitian_exp(rand_herm(rng, 2)),
        }
        res = king_residual(rep, metric, {"1": 1.0, "2": -1.5})
        for v in q.vertices:
            hm = metric[v] @ res.blocks[v]
            assert sup_norm(hm - hm.conj().T) < 1e-12 * max(1.0, sup_norm(hm))

    def test_positivity_checked_at_the_boundary_only(self):
        # exp(s) is positive-definite by construction, but at ||s|| = 20 in a
        # rotated frame its computed spectrum can dip below zero; the kernel
        # the solver runs must still return, the public function still checks.
        rep = random_representation(loop_quiver(), {"v": 3}, seed=4)
        eta, weights = {"v": 0.0}, {"l0": 1.0}
        indefinite = 0
        for seed in range(8):
            u = rand_unitary(np.random.default_rng(seed), 3)
            s = u @ np.diag([-20.0, 0.0, 20.0]) @ u.conj().T
            h = _hermitian_exp(0.5 * (s + s.conj().T))
            indefinite += bool(np.linalg.eigvalsh(h)[0] <= 0)
            res = _king_residual(rep, {"v": h}, eta, weights)
            assert np.all(np.isfinite(res.blocks["v"]))
        assert indefinite > 0
        with pytest.raises(ValidationError, match="not positive-definite"):
            king_residual(rep, {"v": -np.eye(3)}, eta)

    def test_bad_weights_rejected(self):
        q = loop_quiver()
        rep = random_representation(q, {"v": 2}, seed=0)
        with pytest.raises(ValidationError):
            king_residual(rep, identity_metric(rep), {"v": 0.0}, KahlerData({"l0": -1.0}))
        with pytest.raises(ValidationError):
            king_residual(rep, identity_metric(rep), {"v": 0.0}, KahlerData({"z": 1.0}))


class TestKempfNessValue:
    def test_frobenius_at_zero_displacement(self):
        q = loop_quiver()
        t = np.array([[1.0, 1.0], [0.0, 2.0]], dtype=complex)
        rep = Representation(q, {"v": 2}, {"l0": t})
        val = kempf_ness_value(rep, zero_displacement(rep), {"v": 0.0})
        npt.assert_allclose(val, 6.0, rtol=1e-14)

    def test_matches_unstable_evaluation(self):
        rng = np.random.default_rng(7)
        q = two_vertex_quiver()
        rep = random_representation(q, {"1": 2, "2": 3}, seed=3)
        eta = {"1": 1.5, "2": -1.0}
        s = {"1": rand_herm(rng, 2), "2": rand_herm(rng, 3)}
        val = kempf_ness_value(rep, s, eta)
        h = {v: hermitian_exp(s[v]) for v in s}
        h_inv = {v: np.linalg.inv(h[v]) for v in s}
        naive = sum(
            np.trace(h_inv[a.src] @ rep.matrices[a.name].conj().T @ h[a.dst] @ rep.matrices[a.name]).real
            for a in q.arrows
        )
        naive += sum(eta[v] * np.trace(s[v]).real for v in s)
        npt.assert_allclose(val, naive, rtol=1e-12)

    def test_gauge_invariance(self):
        rng = np.random.default_rng(8)
        q = two_vertex_quiver()
        rep = random_representation(q, {"1": 2, "2": 2}, seed=4)
        eta = {"1": 1.0, "2": -1.0}
        s = {"1": rand_herm(rng, 2), "2": rand_herm(rng, 2)}
        g = {v: rand_unitary(rng, 2) for v in q.vertices}
        mats = {
            a.name: g[a.dst] @ rep.matrices[a.name] @ g[a.src].conj().T for a in q.arrows
        }
        rep_g = Representation(q, rep.dims, mats)
        s_g = {v: g[v] @ s[v] @ g[v].conj().T for v in s}
        npt.assert_allclose(
            kempf_ness_value(rep, s, eta), kempf_ness_value(rep_g, s_g, eta), rtol=1e-12
        )

    def test_second_difference_nonnegative(self):
        # Convexity diagnostic along straight displacement lines.
        rng = np.random.default_rng(9)
        q = two_vertex_quiver()
        dims = {"1": 2, "2": 2}
        eta = {"1": 0.0, "2": 0.0}
        step = 1e-3
        for trial in range(25):
            rep = random_representation(q, dims, seed=100 + trial)
            s = {v: rand_herm(rng, 2, scale=1.5) for v in dims}
            x = {v: rand_herm(rng, 2) for v in dims}

            def val(t):
                return kempf_ness_value(rep, {v: s[v] + t * x[v] for v in dims}, eta)

            second = val(step) - 2.0 * val(0.0) + val(-step)
            assert second >= -1e-6


class TestKempfNessGradient:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(10)
        q = two_vertex_quiver()
        rep = random_representation(q, {"1": 2, "2": 3}, seed=6)
        eta = {"1": 1.5, "2": -1.0}
        s = {"1": rand_herm(rng, 2), "2": rand_herm(rng, 3)}
        grad = kempf_ness_gradient(rep, s, eta)
        eps = 1e-5
        for v, n in (("1", 2), ("2", 3)):
            for basis_elt in hermitian_basis(n):
                sp = dict(s)
                sp[v] = s[v] + eps * basis_elt
                sm = dict(s)
                sm[v] = s[v] - eps * basis_elt
                fd = (kempf_ness_value(rep, sp, eta) - kempf_ness_value(rep, sm, eta)) / (2 * eps)
                an = float(np.trace(grad[v] @ basis_elt).real)
                assert abs(fd - an) <= 1e-6 * max(1.0, abs(an))

    def test_jordan_block_gradient(self):
        q = loop_quiver()
        rep = Representation(q, {"v": 2}, {"l0": np.array([[0.0, 1.0], [0.0, 0.0]])})
        g = kempf_ness_gradient(rep, zero_displacement(rep), {"v": 0.0})
        npt.assert_allclose(g["v"], np.diag([1.0, -1.0]), atol=1e-14)

    def test_vanishes_where_residual_vanishes(self):
        q = loop_quiver()
        rng = np.random.default_rng(11)
        u = rand_unitary(rng, 3)
        t = u @ np.diag([2.0, 1.0 - 1.0j, -0.7j]) @ u.conj().T
        rep = Representation(q, {"v": 3}, {"l0": t})
        g = kempf_ness_gradient(rep, zero_displacement(rep), {"v": 0.0})
        assert sup_norm(g["v"]) < 1e-13

    def test_bitwise_equal_to_separately_evaluated_kernels(self):
        rep, s, eta, weights = mixed_case()
        assert 2.9 < max(sup_norm(m) for m in s.values()) < 3.1
        got = _kempf_ness_gradient(rep, s, eta, weights)
        want = reference_gradient(rep, s, eta, weights)
        assert list(got) == list(want)
        for v in rep.quiver.vertices:
            assert np.array_equal(got[v], want[v])
            assert got[v].tobytes() == want[v].tobytes()

    def test_gradient_blocks_hermitian(self):
        rng = np.random.default_rng(12)
        q = two_vertex_quiver()
        rep = random_representation(q, {"1": 3, "2": 2}, seed=7)
        s = {"1": rand_herm(rng, 3), "2": rand_herm(rng, 2)}
        g = kempf_ness_gradient(rep, s, {"1": 1.0, "2": -1.5})
        for v in q.vertices:
            npt.assert_array_equal(g[v], g[v].conj().T)


class TestHamiltonians:
    def test_single_vertex_eta_term(self):
        # One vertex, no arrows, u = i*theta: H = -eta * theta.
        q = Quiver(("v",), ())
        rep = Representation(q, {"v": 1}, {})
        theta = 0.7
        h = hamiltonian_trivial({"v": np.array([[1j * theta]])}, rep, {"v": 0.0})
        assert h == 0.0
        q2 = Quiver(("v", "w"), ())
        rep2 = Representation(q2, {"v": 1, "w": 1}, {})
        h2 = hamiltonian_trivial(
            {"v": np.array([[1j * theta]]), "w": np.zeros((1, 1))},
            rep2,
            {"v": 2.0, "w": -2.0},
        )
        npt.assert_allclose(h2, -2.0 * theta, rtol=1e-14)

    def test_real_linearity_in_u(self):
        rng = np.random.default_rng(13)
        q = two_vertex_quiver()
        rep = random_representation(q, {"1": 2, "2": 2}, seed=8)
        eta = {"1": 1.0, "2": -1.0}
        u1 = {v: rand_antiherm(rng, 2) for v in q.vertices}
        u2 = {v: rand_antiherm(rng, 2) for v in q.vertices}
        a, b = 2.5, -1.25
        combo = {v: a * u1[v] + b * u2[v] for v in q.vertices}
        lhs = hamiltonian_trivial(combo, rep, eta)
        rhs = a * hamiltonian_trivial(u1, rep, eta) + b * hamiltonian_trivial(u2, rep, eta)
        npt.assert_allclose(lhs, rhs, atol=1e-12)

    def test_rejects_non_antihermitian(self):
        q = loop_quiver()
        rep = random_representation(q, {"v": 2}, seed=0)
        with pytest.raises(ValidationError):
            hamiltonian_trivial({"v": np.eye(2, dtype=complex)}, rep, {"v": 0.0})

    def test_projector_identity_reduces_to_trivial(self):
        rng = np.random.default_rng(14)
        q = two_vertex_quiver()
        rep = random_representation(q, {"1": 2, "2": 3}, seed=9)
        eta = {"1": 1.5, "2": -1.0}
        u = {"1": rand_antiherm(rng, 2), "2": rand_antiherm(rng, 3)}
        proj = identity_metric(rep)
        npt.assert_allclose(
            hamiltonian_projector(u, rep, proj, eta),
            hamiltonian_trivial(u, rep, eta),
            rtol=1e-14,
        )

    def test_projector_compression_matches_small_model(self):
        # Rank-1 projector inside a 2-dim ambient fiber at each vertex:
        # the value equals the Hamiltonian of the compressed 1-dim data.
        q = Quiver(("1", "2"), (Arrow("a", "1", "2"),))
        z = 0.8 - 0.3j
        x_small = np.array([[z]])
        u_small = {"1": np.array([[0.9j]]), "2": np.array([[-0.4j]])}
        rep_small = Representation(q, {"1": 1, "2": 1}, {"a": x_small})
        eta = {"1": 3.0, "2": -3.0}
        h_small = hamiltonian_trivial(u_small, rep_small, eta)

        p = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
        x_amb = np.array([[z, 0.0], [0.0, 0.0]], dtype=complex)
        rep_amb = Representation(q, {"1": 2, "2": 2}, {"a": x_amb})
        u_amb = {
            "1": np.array([[0.9j, 0.0], [0.0, 0.0]]),
            "2": np.array([[-0.4j, 0.0], [0.0, 0.0]]),
        }
        h_amb = hamiltonian_projector(u_amb, rep_amb, {"1": p, "2": p}, eta)
        npt.assert_allclose(h_amb, h_small, rtol=1e-14)

    def test_projector_validations(self):
        q = Quiver(("1", "2"), (Arrow("a", "1", "2"),))
        rep = Representation(q, {"1": 2, "2": 2}, {"a": np.eye(2, dtype=complex)})
        eta = {"1": 0.0, "2": 0.0}
        u = {"1": np.zeros((2, 2)), "2": np.zeros((2, 2))}
        good = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
        with pytest.raises(ValidationError, match="idempotent"):
            hamiltonian_projector(u, rep, {"1": 0.5 * good, "2": good}, eta)
        with pytest.raises(ValidationError, match="arrow"):
            hamiltonian_projector(u, rep, {"1": good, "2": good}, eta)

    def test_projector_rejects_unsupported_u(self):
        q = Quiver(("1",), ())
        rep = Representation(q, {"1": 2}, {})
        p = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
        u = {"1": np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)}
        with pytest.raises(ValidationError, match="supported"):
            hamiltonian_projector(u, rep, {"1": p}, {"1": 0.0})


class TestPoissonBracket:
    def test_zero_direction(self):
        q = two_vertex_quiver()
        rep = random_representation(q, {"1": 2, "2": 2}, seed=10)
        rng = np.random.default_rng(15)
        u1 = {v: rand_antiherm(rng, 2) for v in q.vertices}
        u0 = {v: np.zeros((2, 2), dtype=complex) for v in q.vertices}
        lhs, rhs = poisson_bracket_check(u1, u0, rep, {"1": 1.0, "2": -1.0})
        assert lhs == 0.0 and rhs == 0.0

    def test_equal_directions(self):
        q = two_vertex_quiver()
        rep = random_representation(q, {"1": 2, "2": 2}, seed=11)
        rng = np.random.default_rng(16)
        u = {v: rand_antiherm(rng, 2) for v in q.vertices}
        lhs, rhs = poisson_bracket_check(u, u, rep, {"1": 1.0, "2": -1.0})
        assert abs(lhs) < 1e-12 and abs(rhs) < 1e-12

    def test_identity_on_random_samples(self):
        rng = np.random.default_rng(17)
        q = two_vertex_quiver()
        eta = {"1": 2.0, "2": -2.0}
        weights = KahlerData({"a": 0.7, "b": 1.3, "l": 2.0})
        for k in range(50):
            rep = random_representation(q, {"1": 2, "2": 2}, seed=200 + k)
            u1 = {v: rand_antiherm(rng, 2) for v in q.vertices}
            u2 = {v: rand_antiherm(rng, 2) for v in q.vertices}
            lhs, rhs = poisson_bracket_check(u1, u2, rep, eta, weights)
            assert abs(lhs - rhs) < 1e-10

    def test_each_direction_is_checked_once(self, monkeypatch):
        calls = []
        check = moment._check_gauge_directions

        def counted(*args, **kwargs):
            calls.append(1)
            return check(*args, **kwargs)

        monkeypatch.setattr(moment, "_check_gauge_directions", counted)
        q = two_vertex_quiver()
        rep = random_representation(q, {"1": 2, "2": 2}, seed=10)
        rng = np.random.default_rng(15)
        u1, u2 = ({v: rand_antiherm(rng, 2) for v in q.vertices} for _ in range(2))
        poisson_bracket_check(u1, u2, rep, {"1": 1.0, "2": -1.0})
        assert len(calls) == 2


class TestGaugeVariation:
    def test_componentwise_formula(self):
        q = Quiver(("1", "2"), (Arrow("a", "1", "2"),))
        rep = random_representation(q, {"1": 2, "2": 3}, seed=12)
        rng = np.random.default_rng(18)
        u = {"1": rand_antiherm(rng, 2), "2": rand_antiherm(rng, 3)}
        var = gauge_variation(rep, u)
        t = rep.matrices["a"]
        npt.assert_allclose(var["a"], u["2"] @ t - t @ u["1"], atol=1e-15)

    def test_matches_group_action_derivative(self):
        # d/dt at 0 of exp(t u_t) T exp(-t u_s) equals the bracket.
        q = loop_quiver()
        rep = random_representation(q, {"v": 3}, seed=13)
        rng = np.random.default_rng(19)
        u = {"v": rand_antiherm(rng, 3)}
        var = gauge_variation(rep, u)
        eps = 1e-6
        from scipy.linalg import expm

        t = rep.matrices["l0"]
        fd = (expm(eps * u["v"]) @ t @ expm(-eps * u["v"]) - expm(-eps * u["v"]) @ t @ expm(eps * u["v"])) / (2 * eps)
        npt.assert_allclose(var["l0"], fd, atol=1e-8)
