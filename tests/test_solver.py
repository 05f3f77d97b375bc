"""Tests for the Kempf-Ness metric solver and destabilizer extraction."""

import hashlib
import sys
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from momentmap import linalg, solver
from momentmap.errors import NumericError, ValidationError
from momentmap.linalg import hermitian_basis, hermitian_log, sup_norm
from momentmap.moment import (
    _eigenpairs,
    _kempf_ness_gradient,
    _kempf_ness_value,
    _spectra,
    kempf_ness_value,
    king_residual,
)
from momentmap.quiver import (
    Arrow,
    Quiver,
    Representation,
    direct_sum,
    random_representation,
)
from momentmap.solver import (
    DestabilizerCandidate,
    SolveOptions,
    SolveStatus,
    extract_destabilizer,
    solve_metric,
)


def loop_quiver(n_loops=1):
    return Quiver(("v",), tuple(Arrow(f"l{i}", "v", "v") for i in range(n_loops)))


def rand_unitary(rng, n):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, _ = np.linalg.qr(a)
    return q


def loop_rep(t):
    t = np.asarray(t, dtype=complex)
    return Representation(loop_quiver(), {"v": t.shape[0]}, {"l0": t})


def generic_sum_rep(seed, dim=2):
    """Direct sum of two independently sampled generic one-loop reps."""
    q = loop_quiver()
    r1 = random_representation(q, {"v": dim}, seed=seed)
    r2 = random_representation(q, {"v": dim}, seed=seed + 1000)
    return direct_sum(r1, r2)


def mixed_case():
    """A loop, parallel arrows, a zero-dimensional vertex, nonzero eta,
    non-unit weights and a displacement of sup norm about 3; vertex ``d``
    is not adjacent to ``a``, so some Hessian blocks are untouched."""
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
    s = {}
    for v in q.vertices:
        a = rng.standard_normal((dims[v], dims[v])) + 1j * rng.standard_normal((dims[v], dims[v]))
        s[v] = 0.5 * (a + a.conj().T)
    top = max(sup_norm(m) for m in s.values())
    return rep, {v: 3.0 * m / top for v, m in s.items()}, eta, weights


def random_hermitian(rng, d, scale):
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return scale * (a + a.conj().T)


def zero_eta(rep):
    return {v: 0.0 for v in rep.quiver.vertices}


def unit_weights(rep):
    return {a.name: 1.0 for a in rep.quiver.arrows}


def cycle_case():
    """The 3-cycle with dimensions (4, 4, 4) and a displacement of order 1."""
    q = Quiver(
        ("x", "y", "z"),
        (Arrow("a", "x", "y"), Arrow("b", "y", "z"), Arrow("c", "z", "x")),
    )
    rep = random_representation(q, {"x": 4, "y": 4, "z": 4}, seed=5)
    rng = np.random.default_rng(5)
    return rep, {v: random_hermitian(rng, 4, 0.25) for v in q.vertices}


def loop_with_neighbour_case():
    """An 8x8 loop at ``v`` with arrows to and from a 3-dimensional ``u``."""
    q = Quiver(
        ("v", "u"),
        (Arrow("l", "v", "v"), Arrow("m", "v", "u"), Arrow("n", "u", "v")),
    )
    rep = random_representation(q, {"v": 8, "u": 3}, seed=9)
    rng = np.random.default_rng(9)
    return rep, {"v": random_hermitian(rng, 8, 0.3), "u": random_hermitian(rng, 3, 0.3)}


def count_eigh(monkeypatch):
    """List that grows by one per ``np.linalg.eigh`` call from now on."""
    calls = []
    eigh = np.linalg.eigh

    def counted(h):
        calls.append(1)
        return eigh(h)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    return calls


def count_calls(monkeypatch, name):
    """List that grows by one per call of ``solver.<name>`` from now on."""
    calls = []
    function = getattr(solver, name)

    def counted(*args):
        calls.append(1)
        return function(*args)

    monkeypatch.setattr(solver, name, counted)
    return calls


def reference_hessian(rep, s, eta, weights, scale):
    """The central-difference Hessian with the full gradient re-evaluated for
    every column and every entry paired by a trace."""
    basis_index = [(v, b) for v in rep.quiver.vertices for b in hermitian_basis(rep.dims[v])]
    n = len(basis_index)
    hess = np.zeros((n, n))
    eps = 1e-4 * scale
    for j, (v, b) in enumerate(basis_index):
        sp = dict(s)
        sp[v] = s[v] + eps * b
        sm = dict(s)
        sm[v] = s[v] - eps * b
        gp = _kempf_ness_gradient(rep, sp, eta, weights)
        gm = _kempf_ness_gradient(rep, sm, eta, weights)
        for i, (w, c) in enumerate(basis_index):
            hess[i, j] = float(np.trace((gp[w] - gm[w]) @ c).real) / (2 * eps)
    return 0.5 * (hess + hess.T), basis_index


class TestSolveOptions:
    def test_defaults(self):
        o = SolveOptions()
        assert o.tol == 1e-10
        assert o.max_iters == 10000
        assert solver.DIVERGENCE_NORM == 50.0
        assert solver.ARMIJO_C == 1e-4
        assert solver.BACKTRACK == 0.5
        assert solver.NEWTON_SWITCH_TOL == 1e-4

    def test_rejects_nonpositive_tol(self):
        with pytest.raises(ValidationError):
            SolveOptions(tol=0.0)
        with pytest.raises(ValidationError):
            SolveOptions(tol=-1e-10)

    def test_rejects_bad_iteration_budget(self):
        with pytest.raises(ValidationError):
            SolveOptions(max_iters=0)

    @pytest.mark.parametrize("budget", [2.5, True])
    def test_rejects_non_integer_iteration_budget(self, budget):
        with pytest.raises(ValidationError, match="max_iters"):
            SolveOptions(max_iters=budget)

    @pytest.mark.parametrize(
        "knob", ["backtrack", "armijo_c", "divergence_norm", "newton_switch_tol", "seed"]
    )
    def test_solver_constants_are_not_options(self, knob):
        with pytest.raises(TypeError):
            SolveOptions(**{knob: 0.5})


class TestSolveMetricExamples:
    def test_commuting_normal_tuple_converges_immediately(self):
        # A normal matrix already satisfies the equation at h = Id.
        rep = loop_rep(np.diag([2.0, 3.0]))
        out = solve_metric(rep, {"v": 0.0})
        assert out.status is SolveStatus.CONVERGED
        assert len(out.history) == 1
        assert out.history[0].iteration == 0
        npt.assert_allclose(out.metric["v"], np.eye(2), atol=1e-14)

    def test_upper_triangular_functional_reaches_eigenvalue_norm(self):
        # Infimum of the functional over the orbit is sum |lambda_i|^2 = 1 + 4.
        rep = loop_rep([[1.0, 1.0], [0.0, 2.0]])
        out = solve_metric(rep, {"v": 0.0})
        assert out.status is SolveStatus.CONVERGED
        assert out.final_sup < 1e-10
        assert abs(out.history[-1].functional - 5.0) < 1e-6

    def test_nilpotent_jordan_block_diverges(self):
        rep = loop_rep([[0.0, 1.0], [0.0, 0.0]])
        out = solve_metric(rep, {"v": 0.0})
        assert out.status is SolveStatus.DIVERGED
        assert out.metric is None
        cert = out.certificate
        assert cert is not None
        assert cert.subdims == {"v": 1}
        assert cert.slope == 0.0
        assert cert.invariance_defect < 1e-8
        # the candidate line is the kernel span{e1}
        col = cert.basis["v"][:, 0]
        overlap = abs(col[0])
        assert abs(overlap - 1.0) < 1e-6
        # orbit closure reaches the zero representation
        assert out.history[-1].functional < 1e-6

    def test_nilpotent_certificate_angle_to_kernel(self):
        rep = loop_rep([[0.0, 1.0], [0.0, 0.0]])
        out = solve_metric(rep, {"v": 0.0})
        col = out.certificate.basis["v"][:, 0]
        angle = np.arccos(min(1.0, abs(col[0]) / np.linalg.norm(col)))
        assert angle < 1e-3

    def test_exact_critical_point_converges(self):
        # In this frame the flow lands exactly on the solution of A2: the
        # gradient vanishes with the residual already within tol.
        quiver = Quiver(("1", "2"), (Arrow("a", "1", "2"),))
        t = np.array([[0.3901826690445255 - 0.04755041426056373j]])
        rep = Representation(quiver, {"1": 1, "2": 1}, {"a": t})
        eta = {"1": 1.0, "2": -1.0}
        out = solve_metric(rep, eta)
        assert out.status is SolveStatus.CONVERGED
        assert out.final_sup <= SolveOptions().tol
        assert king_residual(rep, out.metric, eta).sup <= SolveOptions().tol


    @pytest.mark.parametrize("d", range(2, 7))
    def test_canonical_jordan_loop_never_converges(self, d):
        # Nilpotent data has no solution.  The in-loop stationarity probe
        # keeps tiny steps from certifying one: without it the 2-, 3- and
        # 4-loops return Converged.
        rep = loop_rep(np.diag(np.ones(d - 1), 1))
        out = solve_metric(rep, {"v": 0.0}, opts=SolveOptions(max_iters=300))
        assert out.status is not SolveStatus.CONVERGED
        assert out.metric is None
        if out.status is SolveStatus.DIVERGED:
            assert out.certificate.subdims == {"v": 1}

    @pytest.mark.parametrize("d", [5, 6])
    def test_canonical_jordan_loop_diverges_to_one_line(self, d):
        # A rounding-level change in the Newton endgame turns the 6x6 loop's
        # certificate into {v: 5}; keep the benchmark's gate in tier 1.
        rep = loop_rep(np.diag(np.ones(d - 1), 1))
        out = solve_metric(rep, {"v": 0.0}, opts=SolveOptions(max_iters=300))
        assert out.status is SolveStatus.DIVERGED
        assert out.certificate.subdims == {"v": 1}


class TestNewtonEndgame:
    def test_hessian_bitwise_equal_to_full_reevaluation(self):
        rep, s, eta, weights = mixed_case()
        scale = max(1.0, solver._family_sup(s))
        assert 2.9 < scale < 3.1
        want, _ = reference_hessian(rep, s, eta, weights, scale)
        got = solver._finite_difference_hessian(rep, s, eta, weights, scale)
        assert np.array_equal(got, want)
        assert got.tobytes() == want.tobytes()
        # Perturbing "a" leaves the block of the non-adjacent vertex "d".
        assert got[17, :9].tolist() == [0.0] * 9

    def test_newton_direction_bitwise_equal_to_basis_loops(self):
        rep, s, eta, weights = mixed_case()
        grad = _kempf_ness_gradient(rep, s, eta, weights)
        hess, basis_index = reference_hessian(
            rep, s, eta, weights, max(1.0, solver._family_sup(s))
        )
        gvec = np.array([float(np.trace(grad[v] @ b).real) for v, b in basis_index])
        delta = np.linalg.solve(hess + 1e-3 * np.eye(len(gvec)), -gvec)
        want = {v: np.zeros_like(s[v]) for v in rep.quiver.vertices}
        for coeff, (v, b) in zip(delta, basis_index):
            want[v] = want[v] + coeff * b
        got, slope = solver._newton_direction(rep, s, eta, weights, grad, 1e-3)
        assert slope == float(delta @ gvec) < 0
        for v in rep.quiver.vertices:
            assert got[v].tobytes() == want[v].tobytes()

    def test_hessian_eigendecompositions(self, monkeypatch):
        # One stacked eigh over +-s_v at s (the three vertices share one
        # dimension), none when the caller passes those spectra, and one
        # stacked eigh per side and chunk of columns; a vertex of dimension 4
        # is a single chunk.  Re-evaluating the full gradient per column
        # takes 2 * 48 on this quiver.
        rep, s = cycle_case()
        eta, weights = zero_eta(rep), unit_weights(rep)
        base = _spectra(_eigenpairs(s))
        calls = count_eigh(monkeypatch)
        fresh = solver._finite_difference_hessian(rep, s, eta, weights, 1.0)
        assert len(calls) == 1 + 2 * 3
        given = solver._finite_difference_hessian(rep, s, eta, weights, 1.0, base)
        assert len(calls) == 1 + 2 * 3 + 2 * 3
        assert given.tobytes() == fresh.tobytes()

    def test_hessian_bitwise_equal_across_chunks(self, monkeypatch):
        # The 8x8 loop's 64 columns take four chunks of 16, its neighbour's
        # 9 columns one; the chunks and their order must not show.
        rep, s = loop_with_neighbour_case()
        eta, weights = {"v": 0.5, "u": -1.5}, {"l": 0.8, "m": 1.2, "n": 0.6}
        scale = max(1.0, solver._family_sup(s))
        want, _ = reference_hessian(rep, s, eta, weights, scale)
        calls = count_eigh(monkeypatch)
        got = solver._finite_difference_hessian(rep, s, eta, weights, scale)
        assert len(calls) == 2 + 2 * (4 + 1)
        assert got.tobytes() == want.tobytes()

    def test_hessian_transient_memory_is_bounded(self):
        # Stacking all 64 columns of the 8x8 loop at once peaks near 1.2 MB.
        rep = random_representation(loop_quiver(), {"v": 8}, seed=8)
        s = {"v": random_hermitian(np.random.default_rng(8), 8, 0.25)}
        tracemalloc.start()
        try:
            solver._finite_difference_hessian(rep, s, {"v": 0.0}, {"l0": 1.0}, 1.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("case", ["cycle444", "loop8", "jordan5"])
    def test_solves_unchanged_with_reference_hessian(self, monkeypatch, case):
        if case == "cycle444":
            rep = cycle_case()[0]
        elif case == "loop8":
            rep = random_representation(loop_quiver(), {"v": 8}, seed=8)
        else:
            rep = loop_rep(np.diag(np.ones(4), 1))
        opts = SolveOptions(max_iters=300)
        got = solve_metric(rep, zero_eta(rep), opts=opts)
        monkeypatch.setattr(
            solver, "_finite_difference_hessian",
            lambda rep, s, eta, weights, scale, base: reference_hessian(
                rep, s, eta, weights, scale
            )[0],
        )
        want = solve_metric(rep, zero_eta(rep), opts=opts)
        assert got.status is want.status
        assert got.status is (
            SolveStatus.DIVERGED if case == "jordan5" else SolveStatus.CONVERGED
        )
        assert got.history == want.history
        assert got.final_sup == want.final_sup
        if want.metric is None:
            assert got.metric is None
        else:
            for v in rep.quiver.vertices:
                assert got.metric[v].tobytes() == want.metric[v].tobytes()
        if want.certificate is None:
            assert got.certificate is None
        else:
            assert got.certificate.subdims == want.certificate.subdims
            assert got.certificate.slope == want.certificate.slope
            assert got.certificate.invariance_defect == want.certificate.invariance_defect
            for v in rep.quiver.vertices:
                assert got.certificate.basis[v].tobytes() == want.certificate.basis[v].tobytes()

    def test_overflowing_trial_is_a_backtrack(self):
        rep = random_representation(loop_quiver(), {"v": 2}, seed=4)
        eta, weights = {"v": 0.0}, {"l0": 1.0}
        s = {"v": np.zeros((2, 2), dtype=np.complex128)}
        grad = _kempf_ness_gradient(rep, s, eta, weights)
        trials = []

        def functional(point):
            # the exponential overflows past sup norm 1 in this model
            trials.append(sup_norm(point["v"]))
            if trials[-1] > 1.0:
                raise NumericError("matrix exponential overflowed")
            return _kempf_ness_value(rep, point, eta, weights)

        value = _kempf_ness_value(rep, s, eta, weights)
        big = {"v": -1e10 * grad["v"]}
        deriv = -1e10 * float(np.trace(grad["v"] @ grad["v"]).real)
        # a start of 1e300 times the direction is capped to a step of STEP_CAP
        step = solver._line_search(functional, s, big, 1e300, value, deriv)
        assert step is not None
        new_s, new_value = step
        assert new_value < value
        assert trials[0] == pytest.approx(solver.STEP_CAP)
        assert 0 < sup_norm(new_s["v"]) <= 1.0 < trials[-2]

    @pytest.mark.parametrize("kind", ["main", "rescue", "probe", "polish"])
    def test_numeric_error_in_a_trial_is_a_backtrack(self, monkeypatch, kind):
        # The first trial of one step kind raises NumericError; the search
        # halves the step and goes on.  For the rescue, the main step before
        # it is made to stall.
        line_search = solver._line_search
        calls, steps, trials = [], [], []

        def spied(evaluate, s, direction, *args, **kwargs):
            calls.append(1)
            if kind == "rescue" and len(calls) == 1:
                return None
            if steps:
                return line_search(evaluate, s, direction, *args, **kwargs)

            def failing(point):
                trials.append(max(sup_norm(point[v] - s[v]) for v in point))
                if len(trials) == 1:
                    raise NumericError("matrix exponential overflowed")
                return evaluate(point)

            steps.append(line_search(failing, s, direction, *args, **kwargs))
            return steps[0]

        monkeypatch.setattr(solver, "_line_search", spied)
        s = {"v": np.zeros((2, 2), dtype=np.complex128)}
        eta, weights = {"v": 0.0}, {"l0": 1.0}
        if kind in ("main", "rescue"):
            rep = random_representation(loop_quiver(), {"v": 2}, seed=4)
            out = solve_metric(rep, eta, opts=SolveOptions(max_iters=300))
            assert out.status is SolveStatus.CONVERGED
            assert out.history[1].functional < out.history[0].functional
        elif kind == "probe":
            rep = loop_rep(np.diag(np.ones(1), 1))  # escaping: the probe moves
            grad = _kempf_ness_gradient(rep, s, eta, weights)
            value = _kempf_ness_value(rep, s, eta, weights)

            def functional(point):
                return _kempf_ness_value(rep, point, eta, weights)

            assert solver._descent_probe(["v"], s, value, grad, functional)[1] < value
        else:
            rep = random_representation(loop_quiver(), {"v": 2}, seed=4)
            residual = king_residual(rep, {"v": np.eye(2)}, eta).sup
            _, res, metric = solver._refine_by_residual(
                rep, s, eta, weights, SolveOptions(), residual, None, None
            )
            assert res < residual and metric is not None
        assert steps[0] is not None and len(trials) >= 2
        assert trials[0] <= solver.STEP_CAP
        assert trials[1] == pytest.approx(solver.BACKTRACK * trials[0], rel=1e-12)

    @pytest.mark.parametrize("seed", [None, 0, 1, 2])
    def test_one_hessian_per_iterate(self, monkeypatch, seed):
        # The residual polish starts along the Newton direction its caller
        # just computed instead of rebuilding the Hessian at the same point.
        if seed is None:
            rep = cycle_case()[0]
        else:
            rep = random_representation(cycle_case()[0].quiver, {"x": 4, "y": 4, "z": 4}, seed)
        points = []
        hessian = solver._finite_difference_hessian

        def recorded(rep, s, *args):
            points.append(b"".join(s[v].tobytes() for v in rep.quiver.vertices))
            return hessian(rep, s, *args)

        monkeypatch.setattr(solver, "_finite_difference_hessian", recorded)
        out = solve_metric(rep, zero_eta(rep), opts=SolveOptions(max_iters=300))
        assert out.status is SolveStatus.CONVERGED
        assert points and len(points) == len(set(points))


def outcome_digest(out, vertices):
    """SHA-256 of every byte of a solve outcome: status, history, final
    residual, metric and certificate."""
    h = hashlib.sha256()
    h.update(out.status.value.encode())
    h.update(np.array(out.history, dtype=float).tobytes())
    h.update(np.float64(out.final_sup).tobytes())
    for v in vertices:
        if out.metric is not None:
            h.update(out.metric[v].tobytes())
        if out.certificate is not None:
            h.update(out.certificate.basis[v].tobytes())
    if out.certificate is not None:
        cert = out.certificate
        h.update(repr((cert.subdims, cert.slope, cert.invariance_defect)).encode())
    return h.hexdigest()


class TestSupNormsWhereRead:
    # Before the sup norms of the gradient and the last step were taken only
    # where they are read, these solves made 486 and 390 sup_norm calls; the
    # digests are the outcomes of that code.  Counted as SVDs, with the
    # residual's, they made 378 and 314 with one SVD per vertex; with one
    # stacked SVD per shape the three 4x4 vertices of cycle444 share one.
    CASES = {
        "cycle444": (126, "903833cbb6b17951760ab64dea293116fbf82f7f7f1b57a20bb8ba757b4ac5ac"),
        "jordan5": (314, "5da54e669c84cf23ecc4b4bd2a0eec709df15750524d946ec27759e42724f8ea"),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_outcome_unchanged_with_fewer_sup_norms(self, monkeypatch, case):
        calls, digest = self.CASES[case]
        rep = cycle_case()[0] if case == "cycle444" else loop_rep(np.diag(np.ones(4), 1))
        counted = []
        svd = np.linalg.svd

        def counting(*args, **kwargs):
            counted.append(1)
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting)
        out = solve_metric(rep, zero_eta(rep), opts=SolveOptions(max_iters=300))
        assert outcome_digest(out, rep.quiver.vertices) == digest
        assert len(counted) == calls


def kronecker_case():
    """The Kronecker quiver with three arrows, dimensions (2, 3), stable at
    eta = (3, -2)."""
    q = Quiver(("1", "2"), tuple(Arrow(f"k{i}", "1", "2") for i in range(3)))
    return random_representation(q, {"1": 2, "2": 3}, seed=3), {"1": 3.0, "2": -2.0}


class TestOneSpectralEvaluationPerPoint:
    """A King solve decomposes each point once, with one stacked eigh per
    vertex dimension, and reads the functional, gradient, metric and Newton
    Hessian at that point off it."""

    @pytest.mark.parametrize("case, groups", [("cycle444", 1), ("kronecker23", 2)])
    def test_one_eigh_per_dimension_and_evaluation(self, monkeypatch, case, groups):
        if case == "cycle444":
            rep = cycle_case()[0]
            eta = zero_eta(rep)
        else:
            rep, eta = kronecker_case()
        calls = count_eigh(monkeypatch)
        points = []  # (point, its eigenpairs, eigh calls after them)
        read = []  # eigenpairs read by functional evaluations
        eigenpairs, value, gradient = (
            solver._eigenpairs, solver._kempf_ness_value, solver._kempf_ness_gradient
        )

        def decomposed(s):
            before = len(calls)
            eig = eigenpairs(s)
            if all(m.ndim == 2 for m in s.values()):  # not a Hessian column stack
                assert len(calls) - before == groups
                points.append((s, eig, len(calls)))
            return eig

        def valued(rep, s, eta, w, eig=None):
            # a functional evaluation reads the fresh eigenpairs of its point
            assert points[-1][0] is s and points[-1][1] is eig and points[-1][2] == len(calls)
            assert not any(eig is seen for seen in read)
            read.append(eig)
            return value(rep, s, eta, w, eig)

        def differentiated(rep, s, eta, w, spectra=None):
            # the gradient at the point decomposed last, with no eigh since
            assert spectra is not None
            assert points[-1][0] is s and points[-1][2] == len(calls)
            return gradient(rep, s, eta, w, spectra)

        polished = count_calls(monkeypatch, "_refine_by_residual")
        monkeypatch.setattr(solver, "_eigenpairs", decomposed)
        monkeypatch.setattr(solver, "_kempf_ness_value", valued)
        monkeypatch.setattr(solver, "_kempf_ness_gradient", differentiated)
        out = solve_metric(rep, eta, opts=SolveOptions(max_iters=300))
        assert out.status is SolveStatus.CONVERGED
        assert len(read) > len(out.history) > 10
        # Each point is decomposed once, but for the polished iterate, whose
        # functional is evaluated again after the polish.
        again = len(points) - len({id(s) for s, _, _ in points})
        assert again <= len(polished) == 1


class TestProgrammingErrorsSurface:
    """Only a numerical failure rejects a line-search trial; any other
    error from a kernel is a bug and leaves the solver."""

    def test_validation_error_in_a_trial_leaves_solve_metric(self, monkeypatch):
        calls = []

        def broken(*args):
            calls.append(1)
            if len(calls) > 1:
                raise ValidationError("broken kernel")
            return _kempf_ness_value(*args)

        monkeypatch.setattr(solver, "_kempf_ness_value", broken)
        rep = random_representation(loop_quiver(), {"v": 2}, seed=4)
        with pytest.raises(ValidationError, match="broken kernel"):
            solve_metric(rep, {"v": 0.0})
        assert len(calls) == 2

    @pytest.mark.parametrize("good_calls", [0, 1])
    def test_validation_error_leaves_the_descent_probe(self, good_calls):
        # the probe takes the functional at s from its caller; the error
        # comes from its first trial, or from its second after a rejection
        rep = random_representation(loop_quiver(), {"v": 2}, seed=4)
        s = {"v": np.zeros((2, 2), dtype=np.complex128)}
        grad = _kempf_ness_gradient(rep, s, {"v": 0.0}, {"l0": 1.0})
        calls = []

        def broken(point):
            calls.append(1)
            if len(calls) > good_calls:
                raise ValidationError("broken kernel")
            return 1.0

        with pytest.raises(ValidationError, match="broken kernel"):
            solver._descent_probe(["v"], s, 1.0, grad, broken)
        assert len(calls) == good_calls + 1

    def test_validation_error_leaves_the_residual_polish(self, monkeypatch):
        def broken(s):
            raise ValidationError("broken kernel")

        # every polish trial is one spectral evaluation
        monkeypatch.setattr(solver, "_eigenpairs", broken)
        rep = random_representation(loop_quiver(), {"v": 2}, seed=4)
        s = {"v": np.zeros((2, 2), dtype=np.complex128)}
        eta, weights = {"v": 0.0}, {"l0": 1.0}
        with pytest.raises(ValidationError, match="broken kernel"):
            solver._refine_by_residual(rep, s, eta, weights, SolveOptions(), 1.0, None, None)


class TestSolveMetricInvariants:
    def test_history_functional_strictly_decreasing_until_final_polish(self):
        # Every accepted line-search step strictly decreases the functional.
        # The final record may instead come from the residual polish, which
        # runs at the basin floor where the functional is flat to machine
        # precision: it may rise by rounding noise but must repay that with
        # a strictly smaller residual.
        for seed in range(6):
            rep = generic_sum_rep(seed)
            out = solve_metric(rep, {"v": 0.0})
            vals = [h.functional for h in out.history]
            assert all(b < a for a, b in zip(vals[:-1], vals[1:-1])), f"seed {seed}"
            if len(vals) >= 2 and not vals[-1] < vals[-2]:
                rise = vals[-1] - vals[-2]
                assert rise <= 1e-12 * max(1.0, abs(vals[-2])), f"seed {seed}"
                assert out.history[-1].residual < out.history[-2].residual

    def test_history_tail_reports_the_returned_iterate(self):
        # Whatever the outcome, the last history record must describe the
        # iterate actually returned -- including when the endgame polish
        # moves it after the last accepted line-search step.
        quiver = Quiver(("p", "q"), (Arrow("f", "p", "q"), Arrow("g", "q", "p")))
        eta = {"p": 0.0, "q": 0.0}
        opts = SolveOptions()
        polished = 0
        for seed in range(12):
            rep = random_representation(quiver, {"p": 2, "q": 3}, seed=seed)
            out = solve_metric(rep, eta, opts=opts)
            assert out.history[-1].residual == out.final_sup, f"seed {seed}"
            its = [h.iteration for h in out.history]
            assert all(b > a for a, b in zip(its, its[1:])), f"seed {seed}"
            if out.status is SolveStatus.CONVERGED:
                assert out.history[-1].residual <= opts.tol, f"seed {seed}"
                if out.history[-2].residual > opts.tol:
                    polished += 1
        assert polished > 0, "no run exercised the endgame polish"

    def test_solution_validity_reevaluated(self):
        # Converged outcomes must satisfy the equation when the residual is
        # recomputed from scratch on the returned metric.
        for seed in range(6):
            rep = generic_sum_rep(seed)
            out = solve_metric(rep, {"v": 0.0})
            assert out.status is SolveStatus.CONVERGED, f"seed {seed}"
            res = king_residual(rep, out.metric, {"v": 0.0}).sup
            assert res <= 1e-9, f"seed {seed}: {res}"
            assert out.final_sup <= 1e-10

    def test_gauge_consistency_under_unitary_conjugation(self):
        rng = np.random.default_rng(7)
        for seed in range(3):
            rep = generic_sum_rep(seed)
            n = rep.dims["v"]
            u = rand_unitary(rng, n)
            conj = Representation(
                rep.quiver, rep.dims, {"l0": u @ rep.matrices["l0"] @ u.conj().T}
            )
            out = solve_metric(rep, {"v": 0.0})
            out_c = solve_metric(conj, {"v": 0.0})
            assert out.status is SolveStatus.CONVERGED
            assert out_c.status is SolveStatus.CONVERGED
            # the pushed-forward metric solves the conjugated problem
            pushed = {"v": u @ out.metric["v"] @ u.conj().T}
            res = king_residual(conj, pushed, {"v": 0.0}).sup
            assert res <= 1e-9, f"seed {seed}: {res}"

    def test_polystable_closure_direct_sum_converges(self):
        q = loop_quiver()
        for seed in range(4):
            r1 = random_representation(q, {"v": 2}, seed=seed)
            r2 = random_representation(q, {"v": 2}, seed=seed + 500)
            assert solve_metric(r1, {"v": 0.0}).status is SolveStatus.CONVERGED
            assert solve_metric(r2, {"v": 0.0}).status is SolveStatus.CONVERGED
            out = solve_metric(direct_sum(r1, r2), {"v": 0.0})
            assert out.status is SolveStatus.CONVERGED, f"seed {seed}"

    def test_diverged_attaches_no_metric_and_a_certificate(self):
        rep = loop_rep([[0.0, 1.0], [0.0, 0.0]])
        out = solve_metric(rep, {"v": 0.0})
        assert out.metric is None
        assert isinstance(out.certificate, DestabilizerCandidate)

    def test_multi_vertex_cycle_converges(self):
        q = Quiver(
            ("x", "y", "z"),
            (Arrow("a", "x", "y"), Arrow("b", "y", "z"), Arrow("c", "z", "x")),
        )
        eta = {"x": 0.0, "y": 0.0, "z": 0.0}
        for seed in range(3):
            rep = random_representation(q, {"x": 2, "y": 2, "z": 2}, seed=seed)
            out = solve_metric(rep, eta)
            assert out.status is SolveStatus.CONVERGED, f"seed {seed}"
            assert king_residual(rep, out.metric, eta).sup <= 1e-9

    def test_functional_evaluated_at_solution_not_above_start(self):
        for seed in range(3):
            rep = generic_sum_rep(seed)
            out = solve_metric(rep, {"v": 0.0})
            start = out.history[0].functional
            end = out.history[-1].functional
            assert end <= start


class TestValidationAtBoundary:
    def test_hermitian_checks_do_not_grow_with_iterations(self, monkeypatch):
        calls = []
        original = linalg.as_hermitian

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        for name, mod in list(sys.modules.items()):
            if name == "momentmap" or name.startswith("momentmap."):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        monkeypatch.setattr(mod, key, counted)
        rep = random_representation(loop_quiver(), {"v": 8}, seed=8)
        solve_metric(rep, {"v": 0.0}, opts=SolveOptions(max_iters=1))
        one_iteration = len(calls)
        out = solve_metric(rep, {"v": 0.0})
        assert out.status is SolveStatus.CONVERGED
        assert len(out.history) > 20
        assert len(calls) - one_iteration == one_iteration


class TestEigendecompositionFailure:
    """A LAPACK failure in an eigendecomposition is a NumericError."""

    @pytest.fixture(autouse=True)
    def failing_eigh(self, monkeypatch):
        def failing(h):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", failing)

    def test_hermitian_log(self):
        with pytest.raises(NumericError, match="eigendecomposition failed"):
            hermitian_log(np.eye(2))

    def test_extract_destabilizer(self):
        rep = loop_rep([[0.0, 1.0], [0.0, 0.0]])
        s = {"v": np.diag([-20.0, 20.0]).astype(complex)}
        with pytest.raises(NumericError, match="eigendecomposition failed"):
            extract_destabilizer(s, rep, {"v": 0.0})


class TestExtractDestabilizer:
    def test_zero_family_rejected(self):
        rep = loop_rep(np.zeros((2, 2)))
        with pytest.raises(ValidationError):
            extract_destabilizer({"v": np.zeros((2, 2))}, rep, {"v": 0.0})

    def test_small_trajectory_rejected(self):
        rep = loop_rep(np.zeros((2, 2)))
        s = {"v": 0.1 * np.eye(2)}
        with pytest.raises(ValidationError):
            extract_destabilizer(s, rep, {"v": 0.0})

    def test_jordan_flow_yields_kernel_line(self):
        rep = loop_rep([[0.0, 1.0], [0.0, 0.0]])
        # the canonical escaping displacement contracts the kernel line e1
        s = {"v": np.diag([-20.0, 20.0]).astype(complex)}
        cert = extract_destabilizer(s, rep, {"v": 0.0})
        assert cert.subdims == {"v": 1}
        npt.assert_allclose(np.abs(cert.basis["v"][:, 0]), [1.0, 0.0], atol=1e-12)
        assert cert.slope == 0.0
        assert cert.invariance_defect < 1e-12

    def test_equal_slope_direct_sum_reports_no_violation(self):
        # Both summands stable with equal slope: any candidate has slope <= 0.
        rep = generic_sum_rep(11)
        out = solve_metric(rep, {"v": 0.0})
        assert out.status is SolveStatus.CONVERGED
        # scale the solved displacement up to meet the precondition; the
        # candidate is advisory and its slope must not report a violation.
        s = hermitian_log(out.metric["v"])
        norm = sup_norm(s)
        if norm < 1e-12:
            s = np.diag([1.0, 1.0, -1.0, -1.0]).astype(complex)
        else:
            s = s * (1.5 / norm)
        cert = extract_destabilizer({"v": s}, rep, {"v": 0.0})
        assert cert.slope <= 0.0

    def test_planted_positive_slope_subrep_detected(self):
        # arrow v -> w; first column zeroed so (span{e1}, 0) is an invariant
        # pair with slope eta_v = 1 > 0: the instance is unstable.
        q = Quiver(("v", "w"), (Arrow("a", "v", "w"),))
        rng = np.random.default_rng(5)
        t = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))) / np.sqrt(2)
        t[:, 0] = 0.0
        rep = Representation(q, {"v": 2, "w": 2}, {"a": t})
        out = solve_metric(rep, {"v": 1.0, "w": -1.0})
        assert out.status is SolveStatus.DIVERGED
        cert = out.certificate
        assert cert.slope > 0.0
        assert cert.invariance_defect < 1e-6
        assert cert.subdims == {"v": 1, "w": 0}

    def test_single_vertex_all_gaps_equal_splits_below_median(self):
        rep = Representation(
            loop_quiver(), {"v": 3}, {"l0": np.zeros((3, 3), dtype=complex)}
        )
        s = {"v": np.diag([-1.0, 0.0, 1.0]).astype(complex)}
        cert = extract_destabilizer(s, rep, {"v": 0.0})
        # pooled spectrum {-1, 0, 1}: gaps tie, split strictly below median 0
        assert cert.subdims == {"v": 1}

    def test_largest_gap_split(self):
        rep = Representation(
            loop_quiver(), {"v": 3}, {"l0": np.zeros((3, 3), dtype=complex)}
        )
        s = {"v": np.diag([-1.0, -0.8, 1.0]).astype(complex)}
        cert = extract_destabilizer(s, rep, {"v": 0.0})
        # largest gap between -0.8 and 1.0: two eigenvalues fall below
        assert cert.subdims == {"v": 2}


class TestSolverSeededFamilies:
    def test_twenty_generic_instances_converge(self):
        q2 = Quiver(("1", "2"), (Arrow("a", "1", "2"), Arrow("b", "2", "1")))
        eta2 = {"1": 0.0, "2": 0.0}
        for seed in range(10):
            rep = generic_sum_rep(seed)
            out = solve_metric(rep, {"v": 0.0})
            assert out.status is SolveStatus.CONVERGED, f"loop seed {seed}"
            assert king_residual(rep, out.metric, {"v": 0.0}).sup <= 1e-9
        for seed in range(5):
            r1 = random_representation(q2, {"1": 2, "2": 2}, seed=seed)
            r2 = random_representation(q2, {"1": 1, "2": 1}, seed=seed + 77)
            rep = direct_sum(r1, r2)
            out = solve_metric(rep, eta2)
            assert out.status is SolveStatus.CONVERGED, f"two-vertex seed {seed}"
            assert king_residual(rep, out.metric, eta2).sup <= 1e-9
