"""Tests for the deformed ADHM module."""

import numpy as np
import numpy.testing as npt
import pytest

from momentmap import adhm
from momentmap.adhm import (
    ADHMData,
    adhm_from_json,
    adhm_residuals,
    adhm_to_json,
    build_adhm_quiver,
    solve_adhm,
    stabilizer_dimension,
)
from momentmap.errors import SolverError, ValidationError
from momentmap.linalg import hermitian_basis
from momentmap.moment import king_residual
from momentmap.quiver import Representation, validate_dims
from momentmap.solver import ARMIJO_C, BACKTRACK, SolveOptions


def count_calls(monkeypatch, *names):
    """Dict counting the calls of the named ``adhm`` functions from now on."""
    calls = dict.fromkeys(names, 0)
    for name in names:

        def wrapped(*args, name=name, function=getattr(adhm, name)):
            calls[name] += 1
            return function(*args)

        monkeypatch.setattr(adhm, name, wrapped)
    return calls


def rand_data(N, k, rng, scale=1.0):
    def rand(shape):
        return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))

    return ADHMData(N, k, rand((N, N)), rand((N, N)), rand((N, k)), rand((k, N)))


def blocks(d: ADHMData):
    return [d.alpha, d.beta, d.a, d.b]


def embed_as_representation(d: ADHMData):
    """View the data as a representation of the two-vertex quiver with the
    small fibre collapsed to dimension 1 per arrow pair."""
    q = build_adhm_quiver(d.k)
    mats = {"alpha": d.alpha, "beta": d.beta}
    for i in range(1, d.k + 1):
        mats[f"a{i}"] = d.a[:, i - 1 : i]
        mats[f"b{i}"] = d.b[i - 1 : i, :]
    return Representation(q, {"1": d.N, "2": 1}, mats)


def reference_solve_adhm(N, k, eta, seed, opts, switch=None):
    """The descent phase of ``solve_adhm`` on a list of blocks: conjugate
    transposes taken at every use, both moment maps and the gradient rebuilt
    block by block from 2-D products, the step differences packed twice per
    iteration, and the nonmonotone reference value recomputed from the list
    of accepted values.  Returns the solution blocks, or with ``switch`` the
    blocks at the first iterate whose objective is below it (where
    ``solve_adhm`` takes its first Newton step), or the best residual pair
    of all starts."""

    def frobenius2(m):
        return np.vdot(m, m).real

    def moments(mats):
        al, be, a, b = mats
        mu_c = al @ be - be @ al + a @ b
        mu_r = (
            (al.conj().T @ al - al @ al.conj().T)
            + (be.conj().T @ be - be @ be.conj().T)
            + b.conj().T @ b
            - a @ a.conj().T
            - eta * np.eye(al.shape[0])
        )
        value = float(frobenius2(mu_c) + frobenius2(mu_r))
        return value, mu_c, mu_r

    def gradients(mats, mu_c, mu_r):
        al, be, a, b = mats
        return (
            (mu_c @ be.conj().T - be.conj().T @ mu_c) + 2.0 * (al @ mu_r - mu_r @ al),
            (al.conj().T @ mu_c - mu_c @ al.conj().T) + 2.0 * (be @ mu_r - mu_r @ be),
            mu_c @ b.conj().T - 2.0 * mu_r @ a,
            a.conj().T @ mu_c + 2.0 * b @ mu_r,
        )

    def pack(mats):
        return np.concatenate([m.ravel() for m in mats])

    def sup(m):
        return float(np.linalg.norm(m, 2))

    def run(rng):
        def rand(shape):
            return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

        scale = max(1.0, abs(eta)) ** 0.5
        mats = [
            0.5 * scale * rand((N, N)),
            0.5 * scale * rand((N, N)),
            0.5 * scale * rand((N, k)),
            0.5 * scale * rand((k, N)),
        ]
        value, mu_c, mu_r = moments(mats)
        grads = gradients(mats, mu_c, mu_r)
        accepted_values = [value]
        best = (sup(mu_c), sup(mu_r))
        prev_mats = prev_grads = None
        for _ in range(opts.max_iters):
            sup_c, sup_r = sup(mu_c), sup(mu_r)
            if max(sup_c, sup_r) < max(best):
                best = (sup_c, sup_r)
            if sup_c <= opts.tol and sup_r <= opts.tol:
                return mats, best
            if switch is not None and value < switch:
                return mats, best
            gnorm2 = float(frobenius2(pack(grads)))
            if gnorm2 == 0.0:
                break
            alpha = 1.0 / max(1.0, gnorm2**0.5)
            if prev_mats is not None:
                dx = pack(mats) - pack(prev_mats)
                dg = pack(grads) - pack(prev_grads)
                sy = float(np.vdot(dx, dg).real)
                if sy > 0:
                    long_step = float(frobenius2(dx)) / sy
                    short_step = sy / float(frobenius2(dg))
                    alpha = short_step if short_step < 0.5 * long_step else long_step
            reference = max(accepted_values[-10:])
            accepted = None
            while alpha > 1e-18:
                trial = [m - alpha * g for m, g in zip(mats, grads)]
                t_value, t_mu_c, t_mu_r = moments(trial)
                if np.isfinite(t_value) and t_value <= reference + ARMIJO_C * alpha * (
                    -2.0 * gnorm2
                ):
                    accepted = (trial, t_value, t_mu_c, t_mu_r)
                    break
                alpha *= BACKTRACK
            if accepted is None:
                break
            prev_mats, prev_grads = mats, grads
            mats, value, mu_c, mu_r = accepted
            accepted_values.append(value)
            grads = gradients(mats, mu_c, mu_r)
        return None, best

    rng = np.random.default_rng(seed)
    best = (np.inf, np.inf)
    for _ in range(5):
        mats, outcome = run(rng)
        if mats is not None:
            return mats
        best = min(best, outcome, key=max)
    return best


class TestADHMData:
    def test_shapes_validated(self):
        with pytest.raises(ValidationError):
            ADHMData(2, 1, np.zeros((2, 3)), np.zeros((2, 2)), np.zeros((2, 1)), np.zeros((1, 2)))
        with pytest.raises(ValidationError):
            ADHMData(2, 1, np.zeros((2, 2)), np.zeros((2, 2)), np.zeros((1, 2)), np.zeros((1, 2)))

    def test_counts_validated(self):
        z = np.zeros((1, 1))
        with pytest.raises(ValidationError):
            ADHMData(0, 1, z, z, z, z)
        with pytest.raises(ValidationError):
            ADHMData(1, 0, z, z, z, z)
        with pytest.raises(ValidationError):
            ADHMData(True, 1, z, z, z, z)


class TestBuildAdhmQuiver:
    def test_k_zero_rejected(self):
        with pytest.raises(ValidationError):
            build_adhm_quiver(0)

    def test_k_one_shape(self):
        q = build_adhm_quiver(1)
        assert q.vertices == ("1", "2")
        assert len(q.arrows) == 4
        by_name = {a.name: (a.src, a.dst) for a in q.arrows}
        assert by_name["alpha"] == ("1", "1")
        assert by_name["beta"] == ("1", "1")
        assert by_name["a1"] == ("2", "1")
        assert by_name["b1"] == ("1", "2")

    def test_k_three_has_eight_arrows(self):
        assert len(build_adhm_quiver(3).arrows) == 8

    def test_dims_validate_through_quiver_core(self):
        dims = validate_dims(build_adhm_quiver(1), {"1": 2, "2": 1})
        assert dims == {"1": 2, "2": 1}


class TestAdhmResiduals:
    def test_zero_data_zero_eta(self):
        d = ADHMData(2, 1, *(np.zeros(s) for s in ((2, 2), (2, 2), (2, 1), (1, 2))))
        res = adhm_residuals(d, 0.0)
        assert res.sup_c == 0.0
        assert res.sup_r == 0.0

    def test_scalar_solution_family(self):
        # alpha = beta arbitrary scalars commute; a = 0 and |b|^2 = eta kill
        # the real equation.
        eta = 1.7
        d = ADHMData(
            1,
            1,
            np.array([[0.4 - 2.2j]]),
            np.array([[0.4 - 2.2j]]),
            np.array([[0.0]]),
            np.array([[np.sqrt(eta)]]),
        )
        res = adhm_residuals(d, eta)
        assert res.sup_c == 0.0
        assert res.sup_r <= 1e-15

    def test_trace_identity_on_random_data(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            N = int(rng.integers(1, 5))
            k = int(rng.integers(1, 4))
            d = rand_data(N, k, rng)
            res = adhm_residuals(d, float(rng.standard_normal()))
            assert res.trace_defect < 1e-12

    def test_real_residual_hermitian(self):
        rng = np.random.default_rng(1)
        d = rand_data(3, 2, rng)
        res = adhm_residuals(d, 0.3)
        npt.assert_allclose(res.mu_r, res.mu_r.conj().T, atol=1e-13)

    def test_gauge_equivariance(self):
        rng = np.random.default_rng(2)
        N, k, eta = 3, 2, 0.8
        d = rand_data(N, k, rng)
        g = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
        u, _ = np.linalg.qr(g)
        moved = ADHMData(
            N, k, u @ d.alpha @ u.conj().T, u @ d.beta @ u.conj().T, u @ d.a, d.b @ u.conj().T
        )
        res = adhm_residuals(d, eta)
        res_m = adhm_residuals(moved, eta)
        npt.assert_allclose(res_m.mu_c, u @ res.mu_c @ u.conj().T, atol=1e-12)
        npt.assert_allclose(res_m.mu_r, u @ res.mu_r @ u.conj().T, atol=1e-12)
        assert abs(res_m.sup_c - res.sup_c) <= 1e-12 * max(1.0, res.sup_c)
        assert abs(res_m.sup_r - res.sup_r) <= 1e-12 * max(1.0, res.sup_r)

    def test_bad_inputs(self):
        rng = np.random.default_rng(3)
        d = rand_data(2, 1, rng)
        with pytest.raises(ValidationError):
            adhm_residuals(d, float("inf"))
        with pytest.raises(ValidationError):
            adhm_residuals("nope", 1.0)


class TestSolveAdhm:
    def test_eta_zero_redirects(self):
        with pytest.raises(ValidationError, match="solve_metric"):
            solve_adhm(1, 1, 0.0, seed=0)

    def test_rank_one_closed_form(self):
        sol = solve_adhm(1, 1, 1.0, seed=0)
        assert abs(abs(sol.b[0, 0]) ** 2 - 1.0) <= 1e-8
        assert abs(sol.a[0, 0]) <= 1e-8
        assert stabilizer_dimension(sol) == 0

    def test_negative_eta_mirror(self):
        # Flipping the sign exchanges the roles of a and b in rank 1.
        sol = solve_adhm(1, 1, -1.0, seed=1)
        assert abs(abs(sol.a[0, 0]) ** 2 - 1.0) <= 1e-8
        assert abs(sol.b[0, 0]) <= 1e-8

    def test_small_grid_residuals_and_freeness(self):
        for N in (2, 3):
            for k in (1, 2):
                sol = solve_adhm(N, k, 1.0, seed=10 * N + k)
                res = adhm_residuals(sol, 1.0)
                assert res.sup_c <= 1e-9
                assert res.sup_r <= 1e-9
                assert res.trace_defect < 1e-12
                assert stabilizer_dimension(sol) == 0

    def test_seed_determinism(self):
        s1 = solve_adhm(2, 1, 1.0, seed=42)
        s2 = solve_adhm(2, 1, 1.0, seed=42)
        for name in ("alpha", "beta", "a", "b"):
            assert getattr(s1, name).tobytes() == getattr(s2, name).tobytes()

    def test_only_the_solution_is_validated(self, monkeypatch):
        constructions = []
        original = ADHMData.__post_init__

        def counted(self):
            constructions.append(1)
            original(self)

        monkeypatch.setattr(ADHMData, "__post_init__", counted)
        solve_adhm(3, 2, 1.0)
        assert len(constructions) == 1

    def test_sup_norms_only_where_the_frobenius_bound_allows(self, monkeypatch):
        # Two SVDs on every iterate made about 1,060 calls here.
        calls = []
        sup_norm = adhm.sup_norm

        def counted(a):
            calls.append(1)
            return sup_norm(a)

        monkeypatch.setattr(adhm, "sup_norm", counted)
        solve_adhm(12, 1, 1.0, seed=0)
        assert len(calls) <= 60

    @pytest.mark.parametrize(
        "N,k,seed,evaluations,newton_steps",
        [(12, 4, 1617120057, 29, 3), (6, 3, 1799343698, 24, 3), (2, 1, 74845286, 15, 4)],
    )
    def test_moment_evaluations_and_newton_steps(
        self, monkeypatch, N, k, seed, evaluations, newton_steps
    ):
        # Each Newton step evaluates the moments twice.  The monotone Armijo
        # descent with Barzilai-Borwein long steps made 362, 264 and 92 moment
        # evaluations here, and the nonmonotone adaptive one, run to tol
        # without Newton steps, 161, 126 and 51.
        calls = count_calls(monkeypatch, "_fused_moments", "_newton_step")
        solve_adhm(N, k, 1.0, seed=seed)
        assert calls == {"_fused_moments": evaluations, "_newton_step": newton_steps}

    def test_nonconvergence_carries_best_residuals(self):
        with pytest.raises(SolverError) as err:
            solve_adhm(3, 2, 1.0, seed=0, opts=SolveOptions(max_iters=2))
        assert "best_sup_c" in err.value.details
        assert "best_sup_r" in err.value.details
        assert np.isfinite(err.value.details["best_sup_r"])

    def test_restarts_ranked_by_the_worst_residual(self, monkeypatch):
        # Each run keeps the iterate with the smallest max(sup_c, sup_r); the
        # starts are compared by the same key, not lexicographically, which
        # would prefer (1e-3, 0.5) here.
        outcomes = iter([(None, (1e-3, 0.5)), (None, (2e-2, 2e-2))] + [(None, (1.0, 1.0))] * 3)
        monkeypatch.setattr(adhm, "_solve_once", lambda *args: next(outcomes))
        with pytest.raises(SolverError) as err:
            solve_adhm(2, 1, 1.0)
        assert err.value.details == {"best_sup_c": 2e-2, "best_sup_r": 2e-2}

    def test_vertex_two_block_automatic(self):
        # Embedded as a quiver representation with the slope-balancing
        # stability parameter, the King residual at the collapsed vertex
        # vanishes whenever the big block does.
        for N, k, seed in ((2, 1, 5), (3, 2, 6)):
            eta = 1.0
            sol = solve_adhm(N, k, eta, seed=seed)
            rep = embed_as_representation(sol)
            metric = {"1": np.eye(N), "2": np.eye(1)}
            eta_king = {"1": eta, "2": -eta * N}
            res = king_residual(rep, metric, eta_king)
            npt.assert_allclose(
                res.blocks["1"], adhm_residuals(sol, eta).mu_r, atol=1e-12
            )
            assert res.blocks["2"].shape == (1, 1)
            assert abs(res.blocks["2"][0, 0]) <= 1e-9

    def test_validation(self):
        with pytest.raises(ValidationError):
            solve_adhm(0, 1, 1.0)
        with pytest.raises(ValidationError):
            solve_adhm(1, 1, float("nan"))


class TestBitwiseParity:
    """The packed descent loop against the list-based reference."""

    @pytest.mark.parametrize(
        "N,k,seed",
        [(1, 1, 0), (2, 1, 74845286), (6, 3, 1799343698), (7, 2, 708093469), (12, 4, 1617120057)],
    )
    def test_solution(self, monkeypatch, N, k, seed):
        # The descent hands the reference's iterate to the first Newton step.
        want = reference_solve_adhm(N, k, 1.0, seed, SolveOptions(), switch=adhm.NEWTON_SWITCH)
        starts = []
        newton_step = adhm._newton_step

        def recorded(x, *args):
            starts.append(x.tobytes())
            return newton_step(x, *args)

        monkeypatch.setattr(adhm, "_newton_step", recorded)
        got = solve_adhm(N, k, 1.0, seed=seed)
        assert starts[0] == adhm._pack(want).tobytes()
        res = adhm_residuals(got, 1.0)
        assert max(res.sup_c, res.sup_r) <= SolveOptions().tol

    # Every start stalls before its objective reaches NEWTON_SWITCH; with
    # 12 iterations the (4, 2, 5) solve takes Newton steps.
    @pytest.mark.parametrize("N,k,seed,iters", [(3, 2, 0, 2), (4, 2, 5, 11)])
    def test_stalled_run_details(self, monkeypatch, N, k, seed, iters):
        opts = SolveOptions(max_iters=iters)
        best_c, best_r = reference_solve_adhm(N, k, 1.0, seed, opts)
        calls = count_calls(monkeypatch, "_newton_step")
        with pytest.raises(SolverError) as err:
            solve_adhm(N, k, 1.0, seed=seed, opts=opts)
        assert calls["_newton_step"] == 0
        assert err.value.details == {"best_sup_c": best_c, "best_sup_r": best_r}
        assert np.array(list(err.value.details.values())).tobytes() == np.array(
            [best_c, best_r]
        ).tobytes()


def d_mu_c(mats, d):
    """Derivative of ``mu_C`` at the blocks ``mats`` along ``d``."""
    al, be, a, b = mats
    dal, dbe, da, db = d
    return dal @ be + al @ dbe - dbe @ al - be @ dal + da @ b + a @ db


def d_mu_r(mats, d):
    """Derivative of ``mu_R`` at the blocks ``mats`` along ``d``."""
    al, be, a, b = mats
    dal, dbe, da, db = d
    out = db.conj().T @ b + b.conj().T @ db - da @ a.conj().T - a @ da.conj().T
    for m, dm in ((al, dal), (be, dbe)):
        out = out + dm.conj().T @ m + m.conj().T @ dm - dm @ m.conj().T - m @ dm.conj().T
    return out


def adjoint_c(mats, y):
    al, be, a, b = (m.conj().T for m in mats)
    return [y @ be - be @ y, al @ y - y @ al, y @ b, a @ y]


def gauge(mats, s):
    al, be, a, b = mats
    return [s @ al - al @ s, s @ be - be @ s, s @ a, -b @ s]


class TestNewtonPhase:
    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("N", [1, 3, 5])
    def test_normal_matrices_equal_the_compositions(self, N, k):
        rng = np.random.default_rng(10 * N + k)
        d = rand_data(N, k, rng)
        mats = blocks(d)
        X = np.stack(mats[:2])
        XH = X.conj().transpose(0, 2, 1)
        complex_normal = adhm._complex_normal(X, XH, d.a, d.b)
        real_normal = adhm._real_normal(X, XH, d.a, d.b)
        y = rand_data(N, 1, rng).alpha
        step = blocks(rand_data(N, k, rng))
        # adjoint_c is the adjoint of d_mu_c in the real inner product
        lhs = np.vdot(y, d_mu_c(mats, step)).real
        rhs = sum(np.vdot(u, v).real for u, v in zip(adjoint_c(mats, y), step))
        assert lhs == pytest.approx(rhs, rel=1e-12)
        npt.assert_allclose(
            complex_normal @ y.ravel(), d_mu_c(mats, adjoint_c(mats, y)).ravel(), atol=1e-11
        )
        h = y + y.conj().T
        npt.assert_allclose(
            real_normal @ h.ravel(), d_mu_r(mats, gauge(mats, h)).ravel(), atol=1e-11
        )
        # L commutes with the conjugate transpose
        npt.assert_allclose(
            real_normal @ y.conj().T.ravel(),
            (real_normal @ y.ravel()).reshape(N, N).conj().T.ravel(),
            atol=1e-11,
        )

    def test_at_most_five_newton_steps_on_the_bench_grid(self, monkeypatch):
        calls = count_calls(monkeypatch, "_newton_step")
        steps = []
        for seed in (1, 11):
            for N in range(1, 13):
                for k in range(1, 5):
                    calls["_newton_step"] = 0
                    sol = solve_adhm(N, k, 1.0, seed=seed)
                    res = adhm_residuals(sol, 1.0)
                    assert max(res.sup_c, res.sup_r) <= SolveOptions().tol
                    steps.append(calls["_newton_step"])
        assert 1 <= min(steps) and max(steps) <= 5

    def test_singular_normal_matrix_returns_to_the_descent(self, monkeypatch):
        def singular(left, right):
            return np.zeros((left.shape[1] ** 2,) * 2)

        monkeypatch.setattr(adhm, "_kron_sum", singular)
        with pytest.raises(np.linalg.LinAlgError):
            adhm._newton_step(*newton_start(3, 2))
        calls = count_calls(monkeypatch, "_newton_step")
        sol = solve_adhm(3, 2, 1.0, seed=0)
        res = adhm_residuals(sol, 1.0)
        assert max(res.sup_c, res.sup_r) <= SolveOptions().tol
        assert calls["_newton_step"] > 1
        opts = SolveOptions(max_iters=40)
        with pytest.raises(SolverError) as singular:
            solve_adhm(3, 2, 1.0, seed=0, opts=opts)
        # A rejected step leaves the run on the same iterates.
        monkeypatch.setattr(adhm, "_newton_step", lambda x, *args: np.full_like(x, np.nan))
        with pytest.raises(SolverError) as rejected:
            solve_adhm(3, 2, 1.0, seed=0, opts=opts)
        assert singular.value.details == rejected.value.details
        assert max(singular.value.details.values()) < 1.0


def newton_start(N, k):
    """Arguments of ``adhm._newton_step`` at a random packed point."""
    rng = np.random.default_rng(0)
    x = adhm._pack(blocks(rand_data(N, k, rng)))
    eta_id = np.eye(N)
    return x, adhm._fused_moments(x, k, eta_id), k, eta_id


def reference_action_matrix(d):
    """The linearized action built column by column, one basis element at a
    time, as ``stabilizer_dimension`` did before it was stacked."""
    cols = []
    for h in hermitian_basis(d.N):
        u = 1j * h
        image = [u @ d.alpha - d.alpha @ u, u @ d.beta - d.beta @ u, u @ d.a, -d.b @ u]
        vec = np.concatenate([m.ravel() for m in image])
        cols.append(np.concatenate([vec.real, vec.imag]))
    return np.array(cols).T


def reference_stabilizer_dimension(d):
    m = reference_action_matrix(d)
    if m.size == 0 or not np.any(m):
        return d.N * d.N
    sigma = np.linalg.svd(m, compute_uv=False)
    return int(np.sum(sigma < 1e-9 * sigma[0]))


def degenerate_data():
    """Per (N, k): zero data with signed zeros (stabilizer u(N), N^2), a
    regular diagonal alpha with a, b on the first coordinate (the other N - 1
    diagonal phases) and scalar alpha, beta with only b on the first
    coordinate (u(N - 1), (N - 1)^2)."""
    out = []
    for N, k in ((1, 1), (2, 1), (3, 2), (4, 3)):
        z = np.zeros((N, N))
        out.append(ADHMData(N, k, z, -z, np.zeros((N, k)), -np.zeros((k, N))))
        a = np.zeros((N, k))
        a[0, 0] = 1.0
        out.append(ADHMData(N, k, np.diag(np.arange(N) * 1.0), z, a, a.T.copy()))
        out.append(ADHMData(N, k, np.eye(N) * 1j, np.eye(N) * -0.5, a * 0.0, 2.0 * a.T.copy()))
    return out


class TestStabilizerDimension:
    @pytest.mark.parametrize("N", range(1, 7))
    def test_matrix_bitwise_equal_to_the_loop_on_solved_data(self, N):
        for k in range(1, 4):
            d = solve_adhm(N, k, 1.0, seed=100 * N + k)
            got = adhm._action_matrix(d)
            want = reference_action_matrix(d)
            assert got.shape == want.shape == (4 * N * N + 4 * N * k, N * N)
            assert got.tobytes() == want.tobytes()
            assert stabilizer_dimension(d) == reference_stabilizer_dimension(d) == 0

    def test_matrix_bitwise_equal_to_the_loop_on_degenerate_data(self):
        counts = []
        for d in degenerate_data():
            assert adhm._action_matrix(d).tobytes() == reference_action_matrix(d).tobytes()
            counts.append(stabilizer_dimension(d))
            assert counts[-1] == reference_stabilizer_dimension(d)
        assert counts == [c for N in range(1, 5) for c in (N * N, N - 1, (N - 1) ** 2)]

    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("N", [1, 2, 4])
    def test_real_normal_eigenvalues_are_twice_the_squared_singular_values(self, N, k):
        d = rand_data(N, k, np.random.default_rng(7 * N + k))
        X = np.stack([d.alpha, d.beta])
        L = adhm._real_normal(X, X.conj().transpose(0, 2, 1), d.a, d.b)
        npt.assert_allclose(L, L.conj().T, atol=1e-12 * np.abs(L).max())
        sigma = np.linalg.svd(reference_action_matrix(d), compute_uv=False)
        npt.assert_allclose(
            np.linalg.eigvalsh(-L), np.sort(2.0 * sigma**2), rtol=1e-10, atol=0.0
        )

    def test_bench_grid_certified_without_the_svd(self, monkeypatch):
        calls = count_calls(monkeypatch, "_svd_stabilizer_dimension")
        for seed in (1, 11):
            for N in range(1, 13):
                for k in range(1, 5):
                    d = solve_adhm(N, k, 1.0, seed=seed)
                    assert stabilizer_dimension(d) == 0
                    assert reference_stabilizer_dimension(d) == 0
        assert calls["_svd_stabilizer_dimension"] == 0

    def test_degenerate_data_take_the_svd(self, monkeypatch):
        # At N = 1 the second and third data are free, and certified.
        calls = count_calls(monkeypatch, "_svd_stabilizer_dimension")
        paths = []
        for d in degenerate_data():
            before = calls["_svd_stabilizer_dimension"]
            count = stabilizer_dimension(d)
            paths.append((count, calls["_svd_stabilizer_dimension"] - before))
        counts = [c for N in range(1, 5) for c in (N * N, N - 1, (N - 1) ** 2)]
        assert paths == [(c, int(c > 0)) for c in counts]

    def test_certificate_and_svd_agree_across_the_cut(self, monkeypatch):
        # alpha = beta = 0, a = e1 + 2 r e2, b = e1^T: u = diag(0, i t) moves
        # only a, so sigma_min / sigma_max = r, swept across the 1e-9 cut.
        calls = count_calls(monkeypatch, "_svd_stabilizer_dimension")
        z = np.zeros((2, 2))
        counts, paths = [], []
        for ratio in 10.0 ** -np.arange(3.25, 12.5, 0.5):
            d = ADHMData(2, 1, z, z, np.array([[1.0], [2.0 * ratio]]), np.array([[1.0, 0.0]]))
            sigma = np.linalg.svd(reference_action_matrix(d), compute_uv=False)
            assert sigma[-1] / sigma[0] == pytest.approx(ratio, rel=1e-6)
            before = calls["_svd_stabilizer_dimension"]
            counts.append(stabilizer_dimension(d))
            paths.append(calls["_svd_stabilizer_dimension"] - before)
            assert counts[-1] == reference_stabilizer_dimension(d)
        assert counts == [0] * 12 + [1] * 7
        # certified down to a ratio of 5.6e-7, then the SVD decides
        assert paths[0] == 0 and paths[-1] == 1 and paths == sorted(paths)

    def test_zero_data_full_algebra(self):
        for N in (1, 2, 3):
            d = ADHMData(
                N, 1, np.zeros((N, N)), np.zeros((N, N)), np.zeros((N, 1)), np.zeros((1, N))
            )
            assert stabilizer_dimension(d) == N * N

    def test_scalar_unit_b_is_free(self):
        d = ADHMData(
            1, 1, np.array([[0.3]]), np.array([[1.2j]]), np.array([[0.0]]), np.array([[1.0]])
        )
        assert stabilizer_dimension(d) == 0

    def test_block_scalars_stabilized_by_diagonal(self):
        # alpha = beta = 0 and a, b supported on the first coordinate leave
        # the u(1) factor on the second coordinate unbroken.
        d = ADHMData(
            2,
            1,
            np.zeros((2, 2)),
            np.zeros((2, 2)),
            np.array([[1.0], [0.0]]),
            np.array([[1.0, 0.0]]),
        )
        # stabilizer: anti-Hermitian u with u a = 0 and b u = 0 and [u, 0] = 0
        # -> u = diag(0, it): one real dimension.
        assert stabilizer_dimension(d) == 1

    def test_type_checked(self):
        with pytest.raises(ValidationError):
            stabilizer_dimension(object())


class TestJsonRoundTrip:
    def test_round_trip(self):
        rng = np.random.default_rng(4)
        d = rand_data(2, 2, rng)
        back, eta = adhm_from_json(adhm_to_json(d, -0.5))
        assert eta == -0.5
        npt.assert_array_equal(back.alpha, d.alpha)
        npt.assert_array_equal(back.beta, d.beta)
        npt.assert_array_equal(back.a, d.a)
        npt.assert_array_equal(back.b, d.b)

    def test_missing_key_rejected(self):
        with pytest.raises(ValidationError, match="missing"):
            adhm_from_json('{"N": 1, "k": 1}')

    def test_bad_payloads_rejected(self):
        with pytest.raises(ValidationError):
            adhm_from_json("not json")
        with pytest.raises(ValidationError):
            adhm_from_json("[1, 2]")
        with pytest.raises(ValidationError):
            adhm_from_json(
                '{"N": 0, "k": 1, "eta": 1.0, "alpha": [], "beta": [], "a": [], "b": []}'
            )
