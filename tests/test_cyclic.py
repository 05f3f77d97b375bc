"""Tests for the cyclic-functional reconstruction of the Hamiltonian."""

import numpy as np
import numpy.testing as npt
import pytest

from momentmap.cyclic import (
    BElement,
    ConnectionData,
    CyclicComponent,
    TripleTensor,
    cyclic_basis,
    trace_C3,
    universal_hamiltonian,
    xi_evaluate,
    xi_welldefinedness_probe,
)
from momentmap.errors import ValidationError
from momentmap.moment import (
    KahlerData,
    hamiltonian_projector,
    hamiltonian_trivial,
    identity_metric,
)
from momentmap.quiver import Arrow, Quiver, Representation, random_representation


def two_vertex_quiver():
    return Quiver(("x", "y"), (Arrow("a", "x", "y"),))


def loop_quiver():
    return Quiver(("v",), (Arrow("al", "v", "v"),))


def rand_antiherm(n, rng):
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return m - m.conj().T


def rand_pd(n, rng):
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return m @ m.conj().T + n * np.eye(n)


def rand_quiver_rep(rng, max_vertices=3, max_dim=3):
    """Random connected-ish quiver with a random representation."""
    nv = int(rng.integers(1, max_vertices + 1))
    verts = tuple(f"v{i}" for i in range(nv))
    na = int(rng.integers(1, 2 * nv + 1))
    arrows = tuple(
        Arrow(f"a{i}", verts[int(rng.integers(nv))], verts[int(rng.integers(nv))])
        for i in range(na)
    )
    quiver = Quiver(verts, arrows)
    dims = {v: int(rng.integers(1, max_dim + 1)) for v in verts}
    rep = random_representation(quiver, dims, seed=int(rng.integers(10**6)))
    return quiver, dims, rep


def metric_gauge_direction(dims, metric, rng):
    """Random direction in the Lie algebra of the metric's unitary group."""
    u = {}
    for v, d in dims.items():
        u[v] = np.linalg.solve(metric[v], rand_antiherm(d, rng))
    return u


class TestCyclicBasis:
    def test_order_and_endpoints(self):
        comps = cyclic_basis(two_vertex_quiver())
        assert comps == (
            CyclicComponent("vertex", "x", "x", "x"),
            CyclicComponent("vertex", "y", "y", "y"),
            CyclicComponent("arrow", "a", "x", "y"),
            CyclicComponent("arrowbar", "a", "y", "x"),
        )

    def test_count(self):
        q = Quiver(
            ("x", "y", "z"),
            (Arrow("a", "x", "y"), Arrow("b", "y", "z"), Arrow("l", "z", "z")),
        )
        assert len(cyclic_basis(q)) == 3 + 2 * 3


class TestBElement:
    def test_partial_mappings_fill_zero(self):
        q = two_vertex_quiver()
        b = BElement.vertex_element(q, {"x": 2.0})
        assert b.vertex_part == {"x": 2.0 + 0j, "y": 0j}
        assert b.arrow_part == {"a": 0j}
        assert b.arrowbar_part == {"a": 0j}

    def test_unknown_key_rejected(self):
        q = two_vertex_quiver()
        with pytest.raises(ValidationError):
            BElement.arrow_element(q, {"nope": 1.0})

    def test_nonfinite_rejected(self):
        q = two_vertex_quiver()
        with pytest.raises(ValidationError):
            BElement.vertex_element(q, {"x": float("nan")})

    def test_left_mul_routes_through_left_vertex(self):
        q = two_vertex_quiver()
        b = BElement(q, {"x": 1.0, "y": 2.0}, {"a": 3.0}, {"a": 5.0})
        f = {"x": 10.0, "y": 100.0}
        fb = b.left_mul(f)
        assert fb.vertex_part == {"x": 10.0 + 0j, "y": 200.0 + 0j}
        # arrow a: x -> y acts from fibre x, so f acts through x on the left
        assert fb.arrow_part == {"a": 30.0 + 0j}
        # its conjugate runs y -> x, so f acts through y on the left
        assert fb.arrowbar_part == {"a": 500.0 + 0j}

    def test_right_mul_routes_through_right_vertex(self):
        q = two_vertex_quiver()
        b = BElement(q, {"x": 1.0, "y": 2.0}, {"a": 3.0}, {"a": 5.0})
        f = {"x": 10.0, "y": 100.0}
        bf = b.right_mul(f)
        assert bf.vertex_part == {"x": 10.0 + 0j, "y": 200.0 + 0j}
        assert bf.arrow_part == {"a": 300.0 + 0j}
        assert bf.arrowbar_part == {"a": 50.0 + 0j}

    def test_component_value(self):
        q = two_vertex_quiver()
        b = BElement(q, {"x": 1.0, "y": 2.0}, {"a": 3.0}, {"a": 5.0})
        comps = cyclic_basis(q)
        assert [b.component_value(c) for c in comps] == [1.0, 2.0, 3.0, 5.0]


class TestTripleTensor:
    def test_zero(self):
        t = TripleTensor.zero(two_vertex_quiver())
        assert t.cube.shape == (4, 4, 4)
        npt.assert_array_equal(t.cube, 0)

    def test_outer_coefficients(self):
        q = two_vertex_quiver()
        b1 = BElement(q, {"x": 2.0}, {}, {})
        b2 = BElement(q, {}, {"a": 3.0}, {})
        b3 = BElement(q, {}, {}, {"a": 5.0})
        t = TripleTensor.outer(b1, b2, b3)
        assert t.coefficient(("vertex", "x"), ("arrow", "a"), ("arrowbar", "a")) == 30.0
        assert np.count_nonzero(t.cube) == 1

    def test_cycled_rotates_slots(self):
        q = two_vertex_quiver()
        rng = np.random.default_rng(3)
        n = len(cyclic_basis(q))
        cube = rng.standard_normal((n, n, n)) + 1j * rng.standard_normal((n, n, n))
        t = TripleTensor(q, cyclic_basis(q), cube)
        r = t.cycled()
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    assert r.cube[i, j, k] == cube[k, i, j]

    def test_triple_cycle_is_identity(self):
        q = two_vertex_quiver()
        rng = np.random.default_rng(4)
        n = len(cyclic_basis(q))
        cube = rng.standard_normal((n, n, n)) * 1j
        t = TripleTensor(q, cyclic_basis(q), cube)
        npt.assert_array_equal(t.cycled().cycled().cycled().cube, t.cube)

    def test_arithmetic(self):
        q = two_vertex_quiver()
        b = BElement.vertex_element(q, {"x": 1.0})
        t = TripleTensor.outer(b, b, b)
        s = (t + t) - t
        npt.assert_allclose(s.cube, t.cube)

    def test_bad_shape_rejected(self):
        q = two_vertex_quiver()
        with pytest.raises(ValidationError):
            TripleTensor(q, cyclic_basis(q), np.zeros((4, 4)))

    def test_wrong_components_rejected(self):
        q = two_vertex_quiver()
        comps = cyclic_basis(q)
        with pytest.raises(ValidationError):
            TripleTensor(q, comps[::-1], np.zeros((4, 4, 4)))

    def test_cube_is_readonly(self):
        t = TripleTensor.zero(two_vertex_quiver())
        with pytest.raises(ValueError):
            t.cube[0, 0, 0] = 1.0


class TestConnectionData:
    def test_trivial_adjoints_are_plain_adjoints(self):
        rng = np.random.default_rng(0)
        q = two_vertex_quiver()
        rep = random_representation(q, {"x": 2, "y": 3}, seed=1)
        conn = ConnectionData.trivial(rep)
        npt.assert_allclose(conn.adjoints["a"], rep.matrices["a"].conj().T)

    def test_metric_adjoint_formula(self):
        rng = np.random.default_rng(1)
        q = two_vertex_quiver()
        rep = random_representation(q, {"x": 2, "y": 3}, seed=2)
        h = {"x": rand_pd(2, rng), "y": rand_pd(3, rng)}
        conn = ConnectionData(rep, h)
        want = np.linalg.solve(h["x"], rep.matrices["a"].conj().T @ h["y"])
        npt.assert_allclose(conn.adjoints["a"], want, atol=1e-12)

    def test_non_positive_metric_rejected(self):
        rep = random_representation(two_vertex_quiver(), {"x": 2, "y": 2}, seed=3)
        bad = {"x": np.diag([1.0, -1.0]), "y": np.eye(2)}
        with pytest.raises(ValidationError):
            ConnectionData(rep, bad)

    def test_missing_vertex_rejected(self):
        rep = random_representation(two_vertex_quiver(), {"x": 2, "y": 2}, seed=4)
        with pytest.raises(ValidationError):
            ConnectionData(rep, {"x": np.eye(2)})


class TestTraceC3:
    def test_zero_direction_gives_zero_tensor(self):
        rep = random_representation(two_vertex_quiver(), {"x": 2, "y": 3}, seed=5)
        u = {"x": np.zeros((2, 2)), "y": np.zeros((3, 3))}
        t = trace_C3(u, ConnectionData.trivial(rep))
        npt.assert_array_equal(t.cube, 0)

    def test_hermitian_direction_rejected(self):
        rep = random_representation(two_vertex_quiver(), {"x": 2, "y": 2}, seed=6)
        u = {"x": np.eye(2), "y": np.eye(2)}
        with pytest.raises(ValidationError):
            trace_C3(u, ConnectionData.trivial(rep))

    def test_gauge_domain_follows_metric(self):
        # plain anti-Hermitian directions are rejected once the metric is
        # nontrivial; metric-unitary directions are accepted.
        rng = np.random.default_rng(7)
        rep = random_representation(two_vertex_quiver(), {"x": 2, "y": 2}, seed=7)
        h = {"x": rand_pd(2, rng), "y": rand_pd(2, rng)}
        conn = ConnectionData(rep, h)
        plain = {"x": rand_antiherm(2, rng), "y": rand_antiherm(2, rng)}
        with pytest.raises(ValidationError):
            trace_C3(plain, conn)
        twisted = metric_gauge_direction({"x": 2, "y": 2}, h, rng)
        trace_C3(twisted, conn)  # accepted

    def test_rank_one_free_module_oracle(self):
        # One vertex of dimension 1 with a loop: the closed-chain trace is the
        # elementary tensor (u, u*al, u*conj(al)) (x) (1, al, conj(al))^(x2).
        alpha = 0.7 - 0.3j
        rep = Representation(loop_quiver(), {"v": 1}, {"al": np.array([[alpha]])})
        u = {"v": np.array([[0.25j]])}
        t = trace_C3(u, ConnectionData.trivial(rep))
        q = loop_quiver()
        uu = 0.25j
        b_u = BElement(q, {"v": uu}, {"al": uu * alpha}, {"al": uu * np.conj(alpha)})
        b_1 = BElement(q, {"v": 1.0}, {"al": alpha}, {"al": np.conj(alpha)})
        oracle = TripleTensor.outer(b_u, b_1, b_1)
        npt.assert_array_equal(t.cube, oracle.cube)

    def test_two_vertex_brute_force_oracle(self):
        # Independent contraction: enumerate all component triples, decide
        # composability from a hand-built endpoint table, and multiply the
        # scalar operators directly.
        rng = np.random.default_rng(8)
        tmat = complex(rng.standard_normal(), rng.standard_normal())
        rep = Representation(two_vertex_quiver(), {"x": 1, "y": 1}, {"a": [[tmat]]})
        hx, hy = 1.7, 0.6
        conn = ConnectionData(rep, {"x": [[hx]], "y": [[hy]]})
        ux, uy = 0.4j, -1.1j  # scalar metric: plain imaginary works
        u = {"x": [[ux]], "y": [[uy]]}
        t = trace_C3(u, conn)

        tbar = np.conj(tmat) * hy / hx  # metric adjoint of a 1x1 arrow
        table = {
            ("vertex", "x"): ("x", "x", 1.0),
            ("vertex", "y"): ("y", "y", 1.0),
            ("arrow", "a"): ("x", "y", tmat),
            ("arrowbar", "a"): ("y", "x", tbar),
        }
        uval = {"x": ux, "y": uy}
        comps = cyclic_basis(rep.quiver)
        hits = 0
        for i, ci in enumerate(comps):
            for j, cj in enumerate(comps):
                for k, ck in enumerate(comps):
                    l1, r1, o1 = table[(ci.kind, ci.label)]
                    l2, r2, o2 = table[(cj.kind, cj.label)]
                    l3, r3, o3 = table[(ck.kind, ck.label)]
                    closed = r1 == l2 and r2 == l3 and r3 == l1
                    want = o3 * o2 * o1 * uval[l1] if closed else 0.0
                    got = t.cube[i, j, k]
                    npt.assert_allclose(got, want, atol=1e-15)
                    if closed:
                        hits += 1
        assert hits == 8  # 2 vertex cycles + 3+3 rotations of the arrow pair

    def test_support_is_composable(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            quiver, dims, rep = rand_quiver_rep(rng)
            u = {v: rand_antiherm(dims[v], rng) for v in quiver.vertices}
            t = trace_C3(u, ConnectionData.trivial(rep))
            comps = t.components
            for i, ci in enumerate(comps):
                for j, cj in enumerate(comps):
                    for k, ck in enumerate(comps):
                        closed = (
                            ci.right == cj.left
                            and cj.right == ck.left
                            and ck.right == ci.left
                        )
                        if not closed:
                            assert t.cube[i, j, k] == 0


class TestXiEvaluate:
    def test_zero_tensor(self):
        t = TripleTensor.zero(two_vertex_quiver())
        assert xi_evaluate(t, {"x": 1.0, "y": -1.0}) == 0

    def test_vertex_diagonal_weight(self):
        q = two_vertex_quiver()
        ind = BElement.vertex_element(q, {"x": 1.0})
        t = TripleTensor.outer(ind, ind, ind)
        assert xi_evaluate(t, {"x": 1.7, "y": -0.4}) == pytest.approx(3.4, abs=0)

    def test_arrow_placement_weights(self):
        q = two_vertex_quiver()
        comps = cyclic_basis(q)
        n = len(comps)
        t0 = TripleTensor.zero(q)
        ia = t0.index("arrow", "a")
        ib = t0.index("arrowbar", "a")
        ivs = t0.index("vertex", "x")
        ivt = t0.index("vertex", "y")
        eta = {"x": 0.0, "y": 0.0}
        kah = KahlerData({"a": 2.5})
        minus = [(ia, ib, ivs), (ivs, ia, ib), (ib, ivs, ia)]
        plus = [(ib, ia, ivt), (ivt, ib, ia), (ia, ivt, ib)]
        for triple in minus:
            cube = np.zeros((n, n, n), complex)
            cube[triple] = 1.0
            assert xi_evaluate(TripleTensor(q, comps, cube), eta, kah) == -2.5
        for triple in plus:
            cube = np.zeros((n, n, n), complex)
            cube[triple] = 1.0
            assert xi_evaluate(TripleTensor(q, comps, cube), eta, kah) == 2.5

    def test_cyclic_invariance_random_cube(self):
        q = two_vertex_quiver()
        rng = np.random.default_rng(10)
        n = len(cyclic_basis(q))
        eta = {"x": 0.8, "y": -1.1}
        kah = KahlerData({"a": 1.3})
        for _ in range(20):
            cube = rng.standard_normal((n, n, n)) + 1j * rng.standard_normal((n, n, n))
            t = TripleTensor(q, cyclic_basis(q), cube)
            v0 = xi_evaluate(t, eta, kah)
            v1 = xi_evaluate(t.cycled(), eta, kah)
            v2 = xi_evaluate(t.cycled().cycled(), eta, kah)
            assert abs(v0 - v1) <= 1e-14 * max(1.0, abs(v0))
            assert abs(v0 - v2) <= 1e-14 * max(1.0, abs(v0))

    def test_cyclic_invariance_on_chain_traces(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            quiver, dims, rep = rand_quiver_rep(rng)
            u = {v: rand_antiherm(dims[v], rng) for v in quiver.vertices}
            eta = {v: float(rng.standard_normal()) for v in quiver.vertices}
            t = trace_C3(u, ConnectionData.trivial(rep))
            v0 = xi_evaluate(t, eta)
            v1 = xi_evaluate(t.cycled(), eta)
            assert abs(v0 - v1) <= 1e-14 * max(1.0, abs(v0))

    def test_eta_validation(self):
        t = TripleTensor.zero(two_vertex_quiver())
        with pytest.raises(ValidationError):
            xi_evaluate(t, {"x": 1.0})


class TestUniversalHamiltonian:
    def test_zero_direction(self):
        rep = random_representation(two_vertex_quiver(), {"x": 2, "y": 3}, seed=12)
        u = {"x": np.zeros((2, 2)), "y": np.zeros((3, 3))}
        val = universal_hamiltonian(u, ConnectionData.trivial(rep), {"x": 1.0, "y": -1.0})
        assert val == 0.0

    def test_matches_direct_formula_identity_metric(self):
        rng = np.random.default_rng(13)
        worst = 0.0
        for _ in range(60):
            quiver, dims, rep = rand_quiver_rep(rng)
            u = {v: rand_antiherm(dims[v], rng) for v in quiver.vertices}
            eta = {v: float(rng.standard_normal()) for v in quiver.vertices}
            kah = KahlerData(
                {a.name: float(rng.uniform(0.5, 2.0)) for a in quiver.arrows}
            )
            via_xi = universal_hamiltonian(u, ConnectionData.trivial(rep), eta, kah)
            direct = hamiltonian_trivial(u, rep, eta, kah)
            worst = max(worst, abs(via_xi - direct))
        assert worst < 1e-10

    def test_matches_projector_compression_nontrivial_metric(self):
        # Embed the metric module isometrically into a larger trivial module:
        # phi = V L with h = L^dagger L and V an isometry.  The compressed
        # direction phi u phi^+ is anti-Hermitian exactly when u lies in the
        # metric's gauge algebra, and the compressed Hamiltonian must agree.
        rng = np.random.default_rng(14)
        worst = 0.0
        for _ in range(30):
            quiver, dims, rep = rand_quiver_rep(rng)
            metric = {v: rand_pd(dims[v], rng) for v in quiver.vertices}
            conn = ConnectionData(rep, metric)
            u = metric_gauge_direction(dims, metric, rng)
            eta = {v: float(rng.standard_normal()) for v in quiver.vertices}
            kah = KahlerData(
                {a.name: float(rng.uniform(0.5, 2.0)) for a in quiver.arrows}
            )
            via_xi = universal_hamiltonian(u, conn, eta, kah)

            ambient_dims = {v: dims[v] + 1 for v in quiver.vertices}
            phi, phiplus, proj = {}, {}, {}
            for v in quiver.vertices:
                chol = np.linalg.cholesky(metric[v])
                lower_to_upper = chol.conj().T  # h = L^dagger L
                g = rng.standard_normal((ambient_dims[v], ambient_dims[v]))
                g = g + 1j * rng.standard_normal(g.shape)
                qmat, _ = np.linalg.qr(g)
                isom = qmat[:, : dims[v]]
                phi[v] = isom @ lower_to_upper
                phiplus[v] = np.linalg.solve(lower_to_upper, isom.conj().T)
                proj[v] = isom @ isom.conj().T
            xmats = {
                a.name: phi[a.dst] @ rep.matrices[a.name] @ phiplus[a.src]
                for a in quiver.arrows
            }
            utilde = {v: phi[v] @ u[v] @ phiplus[v] for v in quiver.vertices}
            ambient = Representation(quiver, ambient_dims, xmats)
            compressed = hamiltonian_projector(utilde, ambient, proj, eta, kah)
            worst = max(worst, abs(via_xi - compressed))
        assert worst < 1e-10

    def test_rank_one_free_module_exact(self):
        rep = Representation(
            loop_quiver(), {"v": 1}, {"al": np.array([[0.7 - 0.3j]])}
        )
        u = {"v": np.array([[0.25j]])}
        eta = {"v": 1.3}
        via_xi = universal_hamiltonian(u, ConnectionData.trivial(rep), eta)
        direct = hamiltonian_trivial(u, rep, eta)
        assert abs(via_xi - direct) <= 1e-12

    def test_real_additivity_in_direction(self):
        rng = np.random.default_rng(15)
        quiver, dims, rep = rand_quiver_rep(rng)
        conn = ConnectionData.trivial(rep)
        eta = {v: float(rng.standard_normal()) for v in quiver.vertices}
        u1 = {v: rand_antiherm(dims[v], rng) for v in quiver.vertices}
        u2 = {v: rand_antiherm(dims[v], rng) for v in quiver.vertices}
        both = {v: u1[v] + u2[v] for v in quiver.vertices}
        scaled = {v: -1.75 * u1[v] for v in quiver.vertices}
        h1 = universal_hamiltonian(u1, conn, eta)
        h2 = universal_hamiltonian(u2, conn, eta)
        hb = universal_hamiltonian(both, conn, eta)
        hs = universal_hamiltonian(scaled, conn, eta)
        scale = max(1.0, abs(h1), abs(h2))
        assert abs(hb - (h1 + h2)) <= 1e-12 * scale
        assert abs(hs - (-1.75) * h1) <= 1e-12 * scale


class TestWelldefinednessProbe:
    def test_zero_samples(self):
        assert xi_welldefinedness_probe(0, seed=0) == 0.0

    def test_negative_samples_rejected(self):
        with pytest.raises(ValidationError):
            xi_welldefinedness_probe(-1)

    @pytest.mark.parametrize("samples", [True, 1.9])
    def test_non_integer_samples_rejected(self, samples):
        with pytest.raises(ValidationError, match="samples"):
            xi_welldefinedness_probe(samples)

    def test_numpy_integer_sample_count(self):
        assert xi_welldefinedness_probe(np.int64(3), seed=7) == xi_welldefinedness_probe(3, seed=7)

    def test_deviation_small(self):
        assert xi_welldefinedness_probe(150, seed=11) < 1e-12

    def test_deterministic_in_seed(self):
        a = xi_welldefinedness_probe(25, seed=7)
        b = xi_welldefinedness_probe(25, seed=7)
        assert a == b

    def test_single_arrow_slot_relation_exactly_zero(self):
        # A relation family whose slot pattern carries one arrow coordinate
        # has no matching weight pattern, so both sides evaluate to exactly 0.
        q = two_vertex_quiver()
        rng = np.random.default_rng(16)
        f1 = BElement.vertex_element(
            q, {v: complex(*rng.standard_normal(2)) for v in q.vertices}
        )
        f3 = BElement.vertex_element(
            q, {v: complex(*rng.standard_normal(2)) for v in q.vertices}
        )
        alpha = BElement.arrow_element(q, {"a": complex(*rng.standard_normal(2))})
        g = {v: complex(*rng.standard_normal(2)) for v in q.vertices}
        eta = {"x": 0.9, "y": -2.0}
        left = xi_evaluate(TripleTensor.outer(f1.right_mul(g), alpha, f3), eta)
        right = xi_evaluate(TripleTensor.outer(f1, alpha.left_mul(g), f3), eta)
        assert left == 0
        assert right == 0

    def test_all_vertex_relation_agrees_and_is_nontrivial(self):
        q = loop_quiver()
        rng = np.random.default_rng(17)
        vals = [
            {"v": complex(*rng.standard_normal(2))} for _ in range(4)
        ]
        f1, f2, f3 = (BElement.vertex_element(q, v) for v in vals[:3])
        g = vals[3]
        eta = {"v": 1.0}
        left = xi_evaluate(TripleTensor.outer(f1.right_mul(g), f2, f3), eta)
        right = xi_evaluate(TripleTensor.outer(f1, f2.left_mul(g), f3), eta)
        assert abs(left) > 0.01  # generic sample is nontrivial
        assert abs(left - right) < 1e-12
