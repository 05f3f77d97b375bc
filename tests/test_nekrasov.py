"""Tests for truncated metric equations on monomial modules."""

import math
import tracemalloc

import numpy as np
import pytest

from momentmap import nekrasov
from momentmap.checks import compositions
from momentmap.errors import NumericError, SolverError, ValidationError
from momentmap.nekrasov import (
    CommutatorReport,
    DiagonalMetric,
    build_truncation,
    commutator_diagnostics,
    fock_weights,
    nekrasov_residual,
    residual_profile,
    solve_nekrasov,
    truncation_from_json,
)
from momentmap.solver import SolveOptions, _backtrack


def reference_commutator_sups(t, c, hbar):
    """Per-pair, per-level maxima of the entries' absolute values and
    operator norms of the level blocks of the dense ``size x size`` products,
    after checking that each block has at most one nonzero per row and per
    column."""
    size = len(t.basis)
    shifts = []
    for i in range(t.n):
        z = np.zeros((size, size))
        for p in range(size):
            iu = t.up[i, p]
            if iu >= 0:
                z[iu, p] = np.sqrt(c.values[iu] / c.values[p])
        shifts.append(z)
    level_sites = [
        [p for p, mono in enumerate(t.basis) if sum(mono) == lev] for lev in t.levels()
    ]
    maxima, norms = {}, {}
    for i in range(t.n):
        for j in range(t.n):
            m = shifts[i].T @ shifts[j] - shifts[j] @ shifts[i].T
            if i == j:
                m = m - hbar * np.eye(size)
            blocks = [m[np.ix_(sites, sites)] for sites in level_sites]
            for block in blocks:
                assert np.all(np.count_nonzero(block, axis=0) <= 1)
                assert np.all(np.count_nonzero(block, axis=1) <= 1)
            maxima[(i + 1, j + 1)] = tuple(float(np.max(np.abs(b))) for b in blocks)
            norms[(i + 1, j + 1)] = tuple(float(np.linalg.norm(b, 2)) for b in blocks)
    return maxima, norms


def reference_residual_and_jacobian(t, values, free, hbar, m):
    """Residual and Jacobian in ``log c`` at the free sites, one site and one
    variable at a time."""
    free_pos = {p: q for q, p in enumerate(free)}
    r = np.empty(len(free))
    jac = np.zeros((len(free), len(free)))
    for q, p in enumerate(free):
        total = -hbar * m
        for i in range(t.n):
            iu = t.up[i, p]
            ratio_up = values[iu] / values[p]
            total += ratio_up
            jac[q, q] -= ratio_up
            if iu in free_pos:
                jac[q, free_pos[iu]] += ratio_up
            idn = t.down[i, p]
            if idn >= 0:
                ratio_dn = values[p] / values[idn]
                total -= ratio_dn
                jac[q, q] -= ratio_dn
                if idn in free_pos:
                    jac[q, free_pos[idn]] += ratio_dn
        r[q] = total
    return r, jac


def dense_jacobian(jac):
    """The square matrix of a kernel Jacobian ``(diag, cols, vals)``: the up
    entries, mirrored below the diagonal."""
    diag, cols, vals = jac
    out = np.diag(diag)
    rows = np.repeat(np.arange(len(cols)), cols.shape[1]).reshape(cols.shape)
    hit = cols >= 0
    out[rows[hit], cols[hit]] = vals[hit]
    out[cols[hit], rows[hit]] = vals[hit]
    return out


def level_bounds(t, free):
    """Start of each level among the free sites, and their count."""
    degree = [sum(t.basis[p]) for p in free]
    starts = [q for q in range(len(free)) if q == 0 or degree[q - 1] != degree[q]]
    return np.array(starts + [len(free)])


def reference_solve(t, hbar, m, opts=SolveOptions(), buffer=2):
    """``solve_nekrasov`` with the loop residual and the dense Jacobian solved
    by ``np.linalg.solve``, under the same line search; returns the
    log-weights reached."""
    free = [p for p, mono in enumerate(t.basis) if sum(mono) <= t.D - buffer - 1]
    boundary = fock_weights(t, hbar).values
    x = np.log(boundary)

    def residual_and_jacobian(xvec):
        vals = boundary.copy()
        vals[free] = np.exp(xvec[free])
        return reference_residual_and_jacobian(t, vals, free, hbar, m)

    r, jac = residual_and_jacobian(x)
    for _ in range(opts.max_iters):
        if float(np.max(np.abs(r))) <= opts.tol:
            break
        delta = np.linalg.solve(jac, -r)

        def trial(step):
            x_new = x.copy()
            x_new[free] += step * delta
            with np.errstate(over="ignore", invalid="ignore"):
                r_new, jac_new = residual_and_jacobian(x_new)
                value = float(r_new @ r_new)
            return (x_new, r_new, jac_new), value

        norm2 = float(r @ r)
        accepted = _backtrack(trial, 1.0, norm2, -2.0 * norm2, 1e-12, strict=True)
        if accepted is None:
            break
        (x, r, jac), _ = accepted
    return x


#: (n, module, D): the full ring, the maximal ideal and <z1 z2> (<z> for n = 1).
PARITY_CASES = [
    (1, "full", 12),
    (1, [(1,)], 12),
    (2, "full", 9),
    (2, [(1, 0), (0, 1)], 10),
    (2, [(1, 1)], 10),
    (3, "full", 6),
    (3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)], 7),
    (3, [(1, 1, 0)], 7),
]


class TestBuildTruncation:
    def test_full_ring_one_variable(self):
        t = build_truncation(1, "full", 3)
        assert t.basis == ((0,), (1,), (2,), (3,))
        assert t.generators is None

    def test_principal_ideal_one_variable(self):
        t = build_truncation(1, [(1,)], 3)
        assert t.basis == ((1,), (2,), (3,))

    def test_maximal_ideal_two_variables(self):
        t = build_truncation(2, [(1, 0), (0, 1)], 2)
        assert t.basis == ((1, 0), (0, 1), (2, 0), (1, 1), (0, 2))
        full = build_truncation(2, "full", 2)
        assert len(full.basis) - len(t.basis) == 1

    @pytest.mark.parametrize(
        "n, module, D",
        [(1, "full", 5), (1, [(2,)], 6), (2, "full", 6), (2, [(1, 0), (0, 1)], 5),
         (2, [(2, 0), (0, 3)], 7), (3, "full", 4), (3, [(1, 1, 0), (0, 0, 2)], 5),
         (4, [(1, 0, 0, 1)], 4)],
    )
    def test_basis_and_tables_match_the_sorted_filter(self, n, module, D):
        gens = None if module == "full" else [tuple(g) for g in module]

        def member(m):
            return gens is None or any(all(k >= g for k, g in zip(m, gen)) for gen in gens)

        t = build_truncation(n, module, D)
        want = sorted(
            (m for total in range(D + 1) for m in compositions(n, total) if member(m)),
            key=lambda m: (sum(m), tuple(-e for e in m)),
        )
        assert t.basis == tuple(want)
        for p, m in enumerate(t.basis):
            assert t.contains(m)
            for i in range(n):
                raised = m[:i] + (m[i] + 1,) + m[i + 1:]
                assert t.up[i, p] == (t.index(raised) if sum(raised) <= D else -1)
                lowered = m[:i] + (m[i] - 1,) + m[i + 1:]
                want_down = t.index(lowered) if m[i] and member(lowered) else -1
                assert t.down[i, p] == want_down
        outside = [m for m in compositions(n, D + 1) if not member(m)]
        assert not any(t.contains(m) for m in outside)

    def test_membership(self):
        t = build_truncation(2, [(2, 0), (0, 1)], 4)
        assert t.contains((2, 0)) and t.contains((3, 5)) and t.contains((0, 1))
        assert not t.contains((1, 0)) and not t.contains((0, 0))

    def test_neighbor_tables(self):
        t = build_truncation(2, [(1, 0), (0, 1)], 2)
        p = t.index((1, 0))
        assert t.up[0, p] == t.index((2, 0))
        assert t.up[1, p] == t.index((1, 1))
        assert t.down[0, p] == -1  # origin is outside the ideal
        assert t.down[1, p] == -1
        top = t.index((2, 0))
        assert t.up[0, top] == -1  # past the cap
        assert t.down[0, top] == p

    def test_graded_lex_order(self):
        t = build_truncation(2, "full", 2)
        assert t.basis == ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))

    def test_levels(self):
        t = build_truncation(1, [(2,)], 4)
        assert t.levels() == (2, 3, 4)
        assert t.degree.tolist() == [2, 3, 4]
        assert not t.degree.flags.writeable

    def test_basis_out_of_graded_order_rejected(self):
        t = build_truncation(1, "full", 1)
        with pytest.raises(ValidationError, match="graded order"):
            nekrasov.FockTruncation(1, None, 1, t.basis[::-1], t.up, t.down)

    def test_cap_below_generator_degree_rejected(self):
        with pytest.raises(ValidationError, match="generator degree"):
            build_truncation(2, [(0, 3)], 2)

    def test_empty_generator_list_rejected(self):
        with pytest.raises(ValidationError, match="generator"):
            build_truncation(2, [], 5)

    def test_bad_arguments(self):
        with pytest.raises(ValidationError):
            build_truncation(0, "full", 3)
        with pytest.raises(ValidationError):
            build_truncation(2, "weird", 3)
        with pytest.raises(ValidationError):
            build_truncation(2, "full", -1)
        with pytest.raises(ValidationError):
            build_truncation(2, [(1, -1)], 3)

    def test_index_of_missing_monomial(self):
        t = build_truncation(2, [(1, 0), (0, 1)], 2)
        with pytest.raises(ValidationError):
            t.index((0, 0))


class TestDiagonalMetric:
    def test_weight_lookup(self):
        t = build_truncation(1, "full", 2)
        c = DiagonalMetric(t, np.array([1.0, 2.0, 8.0]))
        assert c.weight((1,)) == 2.0

    def test_positivity_enforced(self):
        t = build_truncation(1, "full", 2)
        with pytest.raises(ValidationError):
            DiagonalMetric(t, np.array([1.0, -2.0, 8.0]))
        with pytest.raises(ValidationError):
            DiagonalMetric(t, np.array([1.0, 2.0]))

    def test_values_read_only(self):
        t = build_truncation(1, "full", 2)
        c = DiagonalMetric(t, np.array([1.0, 2.0, 8.0]))
        with pytest.raises(ValueError):
            c.values[0] = 5.0

    def test_fock_weights(self):
        t = build_truncation(1, "full", 3)
        c = fock_weights(t, 2.0)
        assert np.allclose(c.values, [1.0, 2.0, 2 * 4.0, 6 * 8.0])
        with pytest.raises(ValidationError):
            fock_weights(t, -1.0)

    @pytest.mark.parametrize(
        "D,hbar,site", [(171, 1.0, r"\(171,\)"), (170, 5.0, r"\(\d+,\)"), (170, 1e-3, r"\(\d+,\)")]
    )
    def test_fock_weights_out_of_float_range(self, D, hbar, site):
        # 171! overflows a float: float() raised a bare OverflowError.
        t = build_truncation(1, "full", D)
        with pytest.raises(NumericError, match=f"site {site}"):
            fock_weights(t, hbar)

    def test_fock_weights_at_the_edge_of_float_range(self):
        t = build_truncation(1, "full", 170)
        c = fock_weights(t, 1.0)
        assert c.values[-1] == float(math.factorial(170))


class TestNekrasovResidual:
    def test_bargmann_solves_full_ring_exactly(self):
        for n in (1, 2, 3):
            t = build_truncation(n, "full", 8)
            res = nekrasov_residual(t, fock_weights(t, 1.0), 1.0, n)
            assert max(abs(v) for v in res.values()) == 0.0

    def test_boundary_sites_excluded(self):
        t = build_truncation(1, "full", 4)
        res = nekrasov_residual(t, fock_weights(t, 1.0), 1.0, 1)
        assert set(res) == {(0,), (1,), (2,), (3,)}

    def test_one_variable_recursion(self):
        # on the ideal (z) the bottom site has no downward term:
        # r(1) = c2/c1 - hbar, and r(k) = c_{k+1}/c_k - c_k/c_{k-1} - hbar
        t = build_truncation(1, [(1,)], 3)
        c = DiagonalMetric(t, np.array([2.0, 6.0, 30.0]))
        res = nekrasov_residual(t, c, 0.5, 1)
        assert res[(1,)] == pytest.approx(3.0 - 0.5)
        assert res[(2,)] == pytest.approx(5.0 - 3.0 - 0.5)

    def test_constant_weights_give_minus_hbar_m_inside(self):
        t = build_truncation(2, "full", 5)
        c = DiagonalMetric(t, np.ones(len(t.basis)))
        res = nekrasov_residual(t, c, 0.7, 2)
        # every up/down ratio is 1; at sites with all down-neighbors the
        # shifts cancel pairwise and only the constant term remains
        assert res[(1, 1)] == pytest.approx(-0.7 * 2)
        assert res[(0, 0)] == pytest.approx(2.0 - 1.4)  # no downward terms

    def test_scaling_weights_leaves_residual_unchanged(self):
        t = build_truncation(2, [(1, 1)], 6)
        rng = np.random.default_rng(3)
        vals = np.exp(rng.uniform(-1.0, 1.0, len(t.basis)))
        r1 = nekrasov_residual(t, DiagonalMetric(t, vals), 0.5, 2)
        r2 = nekrasov_residual(t, DiagonalMetric(t, 2.0 * vals), 0.5, 2)
        assert r1 == r2
        r3 = nekrasov_residual(t, DiagonalMetric(t, 3.7 * vals), 0.5, 2)
        assert max(abs(r1[k] - r3[k]) for k in r1) < 1e-12

    def test_profile_shape(self):
        t = build_truncation(1, "full", 4)
        res = nekrasov_residual(t, fock_weights(t, 1.0), 1.0, 1)
        prof = residual_profile(res)
        assert [entry["degree"] for entry in prof] == [0, 1, 2, 3]
        assert all(entry["max_abs"] == 0.0 for entry in prof)

    def test_non_finite_residual_raises(self):
        # Site (0,) overflows to inf and site (1,) is inf - inf.
        t = build_truncation(1, "full", 3)
        c = DiagonalMetric(t, np.array([1e-320, 1e-10, 1e300, 1.0]))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericError, match=r"site \(0,\)"):
                nekrasov_residual(t, c, 1.0, 1)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_profile_rejects_non_finite_residuals(self, bad):
        with pytest.raises(NumericError):
            residual_profile({(0,): 1.0, (1,): bad, (2,): 0.5})

    def test_validation(self):
        t = build_truncation(1, "full", 3)
        c = fock_weights(t, 1.0)
        with pytest.raises(ValidationError):
            nekrasov_residual("t", c, 1.0, 1)
        with pytest.raises(ValidationError):
            nekrasov_residual(t, c, float("nan"), 1)
        with pytest.raises(ValidationError):
            nekrasov_residual(t, c, 1.0, 0)
        other = build_truncation(1, [(1,)], 3)
        with pytest.raises(ValidationError):
            nekrasov_residual(other, c, 1.0, 1)


class TestSolveNekrasov:
    def test_full_ring_returns_bargmann(self):
        t = build_truncation(2, "full", 8)
        c = solve_nekrasov(t, 1.0)
        expected = fock_weights(t, 1.0)
        assert np.allclose(c.values, expected.values, rtol=1e-9)

    def test_principal_ideal_matches_closed_form(self):
        hbar = 0.7
        t = build_truncation(1, [(1,)], 20)
        c = solve_nekrasov(t, hbar, 1)
        res = nekrasov_residual(t, c, hbar, 1)
        assert max(abs(v) for k, v in res.items() if sum(k) <= 17) <= 1e-10
        c1 = c.weight((1,))
        assert c1 == pytest.approx(18 * hbar, rel=1e-8)
        for k in range(1, 17):
            family = c1 * math.factorial(k - 1) * hbar ** (k - 1)
            assert c.weight((k,)) == pytest.approx(family, rel=1e-8)

    def test_two_variable_maximal_ideal(self):
        t = build_truncation(2, [(1, 0), (0, 1)], 10)
        c = solve_nekrasov(t, 1.0, 2)
        res = nekrasov_residual(t, c, 1.0, 2)
        assert max(abs(v) for k, v in res.items() if sum(k) <= 7) <= 1e-10

    def test_frozen_levels_keep_bargmann_values(self):
        t = build_truncation(1, [(1,)], 12)
        hbar = 0.9
        c = solve_nekrasov(t, hbar, 1, buffer=3)
        bargmann = fock_weights(t, hbar)
        for k in (9, 10, 11, 12):
            assert c.weight((k,)) == bargmann.weight((k,))

    def test_m_defaults_to_n(self):
        t = build_truncation(2, "full", 6)
        assert np.allclose(
            solve_nekrasov(t, 0.8).values, solve_nekrasov(t, 0.8, 2).values
        )

    def test_all_sites_frozen_rejected(self):
        t = build_truncation(1, [(1,)], 3)
        with pytest.raises(ValidationError, match="free sites"):
            solve_nekrasov(t, 1.0, 1, buffer=3)

    def test_failure_carries_residual_profile(self):
        t = build_truncation(2, [(1, 0), (0, 1)], 10)
        with pytest.raises(SolverError) as exc_info:
            solve_nekrasov(t, 1.0, 2, opts=SolveOptions(tol=1e-10, max_iters=1))
        details = exc_info.value.details
        assert "residual_profile" in details and "best_sup" in details
        assert details["best_sup"] > 0

    @pytest.mark.parametrize(
        "n,module,D", [(1, [(1,)], 40), (2, [(1, 1)], 30)], ids=["<z>", "<z1z2>"]
    )
    def test_newton_converges_in_few_evaluations(self, monkeypatch, n, module, D):
        # Levenberg-Marquardt on the level-pair normal equations took 10 and
        # 9 residual evaluations here, with a damping reset to |r| on every
        # iteration 203 and 172.
        calls = []
        kernel = nekrasov._residual_kernel

        def counted(*args, **kwargs):
            calls.append(1)
            return kernel(*args, **kwargs)

        monkeypatch.setattr(nekrasov, "_residual_kernel", counted)
        t = build_truncation(n, module, D)
        solve_nekrasov(t, 1.0, n)
        assert len(calls) <= 7

    @staticmethod
    def rejected_trials(monkeypatch):
        """List of residual norms, one per kernel evaluation, and a function
        counting the trials that did not lower the norm."""
        norms = []
        kernel = nekrasov._residual_kernel

        def recorded(*args, **kwargs):
            r, jac = kernel(*args, **kwargs)
            norms.append(float(np.linalg.norm(r)))
            return r, jac

        monkeypatch.setattr(nekrasov, "_residual_kernel", recorded)

        def count():
            current, rejected = norms[0], 0
            for norm in norms[1:]:
                if np.isfinite(norm) and norm < current:
                    current = norm
                else:
                    rejected += 1
            return rejected

        return count

    def test_rejected_trial_backtracks_and_converges(self, monkeypatch):
        count = self.rejected_trials(monkeypatch)
        t = build_truncation(1, [(1,)], 20)
        c = solve_nekrasov(t, 5.0, 4)
        assert count() == 1
        res = nekrasov_residual(t, c, 5.0, 4)
        assert max(abs(v) for k, v in res.items() if sum(k) <= 17) <= 1e-10

    def test_no_accepted_trial_stops_with_profile(self, monkeypatch):
        # The reversed Newton step ascends |r|^2, so the line search rejects
        # every trial down to its floor.
        block_solve = nekrasov._block_solve
        monkeypatch.setattr(nekrasov, "_block_solve", lambda *args: -block_solve(*args))
        count = self.rejected_trials(monkeypatch)
        t = build_truncation(1, [(1,)], 20)
        with pytest.raises(SolverError) as err:
            solve_nekrasov(t, 5.0, 3)
        assert count() > 0
        profile = err.value.details["residual_profile"]
        assert [entry["degree"] for entry in profile] == list(range(1, 20))
        # no step was taken: the profile is the start's, log weights included
        start = fock_weights(t, 5.0).values.copy()
        start[:17] = np.exp(np.log(start[:17]))
        assert profile == residual_profile(
            nekrasov_residual(t, DiagonalMetric(t, start), 5.0, 3)
        )

    @pytest.mark.parametrize("hbar", [0.1, 5.0])
    @pytest.mark.parametrize(
        "n,module,D",
        [(1, [(1,)], 16), (1, [(2,)], 16), (2, [(1, 0), (0, 1)], 10), (2, [(1, 1)], 10)],
    )
    def test_off_balance_m_and_extreme_hbar(self, hbar, n, module, D):
        t = build_truncation(n, module, D)
        opts = SolveOptions()
        c = solve_nekrasov(t, hbar, n + 1, opts=opts)
        res = nekrasov_residual(t, c, hbar, n + 1)
        assert max(abs(v) for k, v in res.items() if sum(k) <= D - 3) <= opts.tol

    def test_validation(self):
        t = build_truncation(1, "full", 5)
        with pytest.raises(ValidationError):
            solve_nekrasov(t, -1.0)
        with pytest.raises(ValidationError):
            solve_nekrasov(t, 1.0, 0)
        with pytest.raises(ValidationError):
            solve_nekrasov(t, 1.0, 1, buffer=-1)
        with pytest.raises(ValidationError):
            solve_nekrasov("t", 1.0)


class TestCommutatorDiagnostics:
    def test_bargmann_shifts_are_canonical_inside(self):
        t = build_truncation(2, "full", 6)
        rep = commutator_diagnostics(t, fock_weights(t, 1.0), 1.0)
        assert isinstance(rep, CommutatorReport)
        assert rep.levels == tuple(range(7))
        assert all(v < 1e-13 for v in rep.max_per_level[:-1])
        assert rep.max_per_level[-1] > 0.5  # the truncation cut

    def test_pair_keys_are_one_based(self):
        t = build_truncation(2, "full", 3)
        rep = commutator_diagnostics(t, fock_weights(t, 1.0), 1.0)
        assert set(rep.per_pair) == {(1, 1), (1, 2), (2, 1), (2, 2)}

    def test_solved_ideal_decays_toward_the_boundary(self):
        t = build_truncation(2, [(1, 0), (0, 1)], 12)
        c = solve_nekrasov(t, 1.0, 2)
        rep = commutator_diagnostics(t, c, 1.0)
        vals = [rep.max_per_level[rep.levels.index(lev)] for lev in range(3, 10)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_diagonal_sum_rule_on_solution(self):
        # summing the diagonal commutators reproduces hbar*m at solved sites
        t = build_truncation(2, [(1, 0), (0, 1)], 10)
        hbar = 0.9
        c = solve_nekrasov(t, hbar, 2)
        size = len(t.basis)
        acc = np.zeros((size, size))
        for i in range(2):
            z = np.zeros((size, size))
            for p in range(size):
                iu = t.up[i, p]
                if iu >= 0:
                    z[iu, p] = np.sqrt(c.values[iu] / c.values[p])
            acc += z.T @ z - z @ z.T
        for p, mono in enumerate(t.basis):
            if sum(mono) <= t.D - 3:
                assert abs(acc[p, p] - hbar * 2) < 1e-8

    def test_validation(self):
        t = build_truncation(1, "full", 3)
        c = fock_weights(t, 1.0)
        with pytest.raises(ValidationError):
            commutator_diagnostics(t, c, float("inf"))
        other = build_truncation(1, [(1,)], 3)
        with pytest.raises(ValidationError):
            commutator_diagnostics(other, c, 1.0)


class TestProblemJson:
    def test_ideal_problem(self):
        t, hbar, m, buffer = truncation_from_json(
            '{"n": 2, "module": {"ideal": [[1, 0], [0, 1]]}, "D": 5, "hbar": 0.5}'
        )
        assert t.generators == ((1, 0), (0, 1))
        assert (t.D, hbar, m, buffer) == (5, 0.5, 2, 2)

    def test_full_problem_with_overrides(self):
        t, hbar, m, buffer = truncation_from_json(
            '{"n": 1, "module": "full", "D": 4, "hbar": 1.0, "m": 3, "buffer": 1}'
        )
        assert (t.D, hbar, m, buffer) == (4, 1.0, 3, 1)

    def test_malformed_inputs(self):
        for text in [
            "{",
            "[1]",
            '{"n": 1, "module": "full", "D": 4}',
            '{"n": 1, "module": "odd", "D": 4, "hbar": 1}',
            '{"n": 1, "module": {"junk": []}, "D": 4, "hbar": 1}',
            '{"n": 0, "module": "full", "D": 4, "hbar": 1}',
        ]:
            with pytest.raises(ValidationError):
                truncation_from_json(text)


class TestBitwiseParity:
    """The vectorised kernels against the dense and loop references."""

    @pytest.mark.parametrize("n,module,D", PARITY_CASES)
    def test_commutator_diagnostics(self, n, module, D):
        t = build_truncation(n, module, D)
        hbar = 0.8
        metrics = [fock_weights(t, hbar), solve_nekrasov(t, hbar, n)]
        for c in metrics:
            rep = commutator_diagnostics(t, c, hbar)
            want, norms = reference_commutator_sups(t, c, hbar)
            assert list(rep.per_pair) == list(want)
            for pair, sups in want.items():
                assert np.array(rep.per_pair[pair]).tobytes() == np.array(sups).tobytes()
                got, svd = np.array(rep.per_pair[pair]), np.array(norms[pair])
                assert np.all(np.abs(got - svd) <= 1e-15 * svd)
            top = np.max(np.array(list(want.values())), axis=0)
            assert np.array(rep.max_per_level).tobytes() == top.tobytes()

    @pytest.mark.parametrize("n,module,D", PARITY_CASES)
    def test_residual_and_jacobian(self, n, module, D):
        t = build_truncation(n, module, D)
        hbar, m = 0.8, n + 1
        free = np.array([p for p, mono in enumerate(t.basis) if sum(mono) <= D - 3])
        columns = np.full(len(t.basis), -1)
        columns[free] = np.arange(len(free))
        stencil = nekrasov._stencil(t, free)
        rng = np.random.default_rng(D)
        for values in (
            fock_weights(t, hbar).values,
            np.exp(rng.standard_normal(len(t.basis))),
        ):
            want_r, want_jac = reference_residual_and_jacobian(t, values, free, hbar, m)
            r, jac = nekrasov._residual_kernel(values, free, *stencil, hbar, m, columns)
            assert r.tobytes() == want_r.tobytes()
            assert dense_jacobian(jac).tobytes() == want_jac.tobytes()
            res = nekrasov_residual(t, DiagonalMetric(t, values), hbar, m)
            interior = [p for p, mono in enumerate(t.basis) if sum(mono) < D]
            want_res, _ = reference_residual_and_jacobian(t, values, interior, hbar, m)
            assert list(res) == [t.basis[p] for p in interior]
            assert np.array(list(res.values())).tobytes() == want_res.tobytes()

    @pytest.mark.parametrize("n,module,D", PARITY_CASES)
    def test_normal_equations_by_level_blocks(self, n, module, D):
        """The Newton equations ``J delta = -r``: the level blocks are those of
        the dense Jacobian, bitwise, and block elimination solves them."""
        t = build_truncation(n, module, D)
        hbar, m = 0.8, n + 1
        free = np.flatnonzero(t.degree <= D - 3)
        bounds = level_bounds(t, free)
        columns = np.full(len(t.basis), -1)
        columns[free] = np.arange(len(free))
        stencil = nekrasov._stencil(t, free)
        parts = [slice(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]
        level = np.repeat(np.arange(len(parts)), np.diff(bounds))
        outside = np.abs(level[:, None] - level[None, :]) > 1
        rng = np.random.default_rng(D)
        for values in (
            fock_weights(t, hbar).values,
            np.exp(rng.standard_normal(len(t.basis))),
        ):
            r, jac = nekrasov._residual_kernel(values, free, *stencil, hbar, m, columns)
            _, want = reference_residual_and_jacobian(t, values, free, hbar, m)
            assert want.tobytes() == want.T.tobytes()
            assert not np.any(want[outside])
            diagonal, upper = nekrasov._level_blocks(jac, bounds)
            assert len(diagonal) == len(parts) and len(upper) == len(parts) - 1
            for d, p in zip(diagonal, parts):
                assert np.diag(d).tobytes() == want[p, p].tobytes()
            for u, p, q in zip(upper, parts, parts[1:]):
                assert u.tobytes() == want[p, q].tobytes()

            expected = np.linalg.solve(want, -r)
            got = nekrasov._block_solve(diagonal, upper, -r, bounds)
            assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))

    def test_singular_schur_complement_raises(self):
        bounds = np.array([0, 2, 3])
        diagonal = [np.ones(2), np.ones(1)]
        upper = [np.array([[1.0], [0.0]])]
        with pytest.raises(np.linalg.LinAlgError):
            nekrasov._block_solve(diagonal, upper, np.ones(3), bounds)

    @pytest.mark.parametrize("n,module,D", PARITY_CASES)
    def test_solution(self, n, module, D):
        # Block elimination rounds differently from the dense solve.
        t = build_truncation(n, module, D)
        want = np.exp(reference_solve(t, 0.8, n))
        got = solve_nekrasov(t, 0.8, n).values
        free = [p for p, mono in enumerate(t.basis) if sum(mono) <= D - 3]
        assert np.all(np.abs(got[free] - want[free]) <= 1e-12 * want[free])

    def test_jacobian_matches_central_differences(self):
        t = build_truncation(2, [(1, 1)], 9)
        hbar, m = 0.8, 2
        free = np.array([p for p, mono in enumerate(t.basis) if sum(mono) <= 6])
        columns = np.full(len(t.basis), -1)
        columns[free] = np.arange(len(free))
        stencil = nekrasov._stencil(t, free)
        x = np.random.default_rng(3).standard_normal(len(t.basis))

        def residual(xvec):
            return nekrasov._residual_kernel(np.exp(xvec), free, *stencil, hbar, m)[0]

        jac = dense_jacobian(
            nekrasov._residual_kernel(np.exp(x), free, *stencil, hbar, m, columns)[1]
        )
        eps = 1e-6
        for q, p in enumerate(free):
            step = np.zeros_like(x)
            step[p] = eps
            fd = (residual(x + step) - residual(x - step)) / (2 * eps)
            np.testing.assert_allclose(jac[:, q], fd, rtol=1e-7, atol=1e-7)


class TestCommutatorMemoryAndOverflow:
    def test_peak_memory_grows_with_the_level_not_the_basis(self):
        # 1,891 basis monomials; one dense shift matrix alone takes 28.6 MB.
        t = build_truncation(2, "full", 60)
        c = fock_weights(t, 1.0)
        tracemalloc.start()
        try:
            commutator_diagnostics(t, c, 1.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20

    def test_solve_memory_grows_with_the_level_pairs_not_the_sites(self):
        # 1,710 free sites; the dense J^T J alone takes 22.3 MB.
        t = build_truncation(2, [(1, 0), (0, 1)], 60)
        tracemalloc.start()
        try:
            solve_nekrasov(t, 1.0, 2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 7.5 * 2**20

    @pytest.mark.parametrize("n,D", [(1, 3), (2, 2)])
    def test_overflowing_shift_weight_raises(self, n, D):
        t = build_truncation(n, "full", D)
        values = np.ones(len(t.basis))
        values[0], values[1] = 1e-300, 1e300
        with pytest.raises(NumericError, match="shift weight"):
            commutator_diagnostics(t, DiagonalMetric(t, values), 1.0)

    def test_nan_sup_is_not_hidden_by_the_maximum(self, monkeypatch):
        original = nekrasov._site_deviation

        def nan_on_last_pair(t, weights, i, j, hbar):
            deviation = original(t, weights, i, j, hbar)
            return np.full_like(deviation, np.nan) if (i, j) == (1, 1) else deviation

        monkeypatch.setattr(nekrasov, "_site_deviation", nan_on_last_pair)
        t = build_truncation(2, "full", 3)
        rep = commutator_diagnostics(t, fock_weights(t, 1.0), 1.0)
        assert all(np.isnan(v) for v in rep.max_per_level)
