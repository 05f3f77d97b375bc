"""Finite truncations of the quantized Hermitian-metric equation on
monomial modules, with a Newton solver and commutator diagnostics.

A truncation enumerates the monomials of a module (the full polynomial ring
or a monomial ideal) up to total degree ``D`` in graded-lexicographic order
and records shift neighbors.  A diagonal metric assigns a positive weight
``c_mu`` to each basis monomial; the multiplication operators ``Z_i`` act on
the orthonormalized basis as weighted shifts with matrix elements
``sqrt(c_{mu+e_i}/c_mu)``.  The per-site residual of the metric equation is

    r(mu) = sum_i [ c_{mu+e_i}/c_mu - c_mu/c_{mu-e_i} ] - hbar m,

where the downward term is dropped when ``mu - e_i`` leaves the module, and
sites on the top level ``|mu| = D`` are boundary, not interior.  On the full
ring the Bargmann weights ``prod_i k_i! hbar^{k_i}`` solve the equation
exactly; on ideals the solver freezes the weights near the cap to those
Bargmann values (the stand-in for the trace-class boundary condition at
infinity) and runs Newton's method in ``x = log c`` on the remaining sites,
one equation per site.  The square Jacobian is symmetric, with at most
``2 n + 1`` entries per row, so it is kept as its diagonal and the ``n``
entries of the upward neighbors.  The residual at degree ``d`` reads only
degrees ``d - 1``, ``d`` and ``d + 1``, so the Jacobian is block-tridiagonal
over single levels, and its block on each level is diagonal; its blocks
are written from the upward entries and the Newton system is solved by
block elimination, so nothing of size ``sites^2`` is formed.

:func:`commutator_diagnostics` measures how far the truncated shifts are
from the exact commutation relations ``[Z_i^dagger, Z_j] = hbar delta_ij``
level by level, which quantifies the trace-class boundary behaviour.  The
commutators preserve the degree, and each level block of
``[Z_i^dagger, Z_j] - hbar delta_ij`` has at most one entry per row and per
column, so its operator norm is exactly the largest entry in absolute value:
one entry per site is computed, and no matrix is formed.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from .checks import (
    check_exponents,
    check_int,
    check_keys,
    check_real,
    check_sequence,
    graded_monomials,
    load_json_object,
)
from .errors import ConsistencyError, NumericError, SolverError, ValidationError
from .solver import SolveOptions, _backtrack

__all__ = [
    "FockTruncation",
    "DiagonalMetric",
    "build_truncation",
    "fock_weights",
    "nekrasov_residual",
    "residual_profile",
    "solve_nekrasov",
    "CommutatorReport",
    "commutator_diagnostics",
    "truncation_from_json",
]

logger = logging.getLogger(__name__)

Monomial = Tuple[int, ...]

#: Default number of top levels whose weights are frozen to Bargmann values.
DEFAULT_BUFFER = 2


def _in_module(m: Monomial, generators) -> bool:
    """Membership in the full ring (``generators`` is None) or in the monomial
    ideal of ``generators``: ``m`` is divisible by some generator."""
    return generators is None or any(
        all(k >= g for k, g in zip(m, gen)) for gen in generators
    )


@dataclass(frozen=True)
class FockTruncation:
    """Monomial basis of a truncated module with shift-neighbor tables.

    Attributes
    ----------
    n : int
        Number of variables.
    generators : tuple or None
        ``None`` for the full ring, else the monomial-ideal generators.
    D : int
        Total-degree cap.
    basis : tuple of monomials
        Module monomials with ``|mu| <= D`` in graded-lex order.
    up, down : ndarray
        ``(n, len(basis))`` integer tables: ``up[i, p]`` is the basis index
        of ``mu + e_i`` (``-1`` past the cap) and ``down[i, p]`` of
        ``mu - e_i`` (``-1`` when it leaves the module).
    degree : ndarray
        Read-only total degree of each basis monomial, computed on
        construction; non-decreasing, since the basis is graded.
    """

    n: int
    generators: Optional[Tuple[Monomial, ...]]
    D: int
    basis: Tuple[Monomial, ...]
    up: np.ndarray
    down: np.ndarray

    def index(self, m) -> int:
        """Basis position of a monomial."""
        key = check_exponents(self.n, m, "monomial")
        try:
            return self._lookup[key]
        except KeyError:
            raise ValidationError(f"monomial {key} is not in the basis") from None

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "_lookup", {m: p for p, m in enumerate(self.basis)}
        )
        degree = np.array([sum(m) for m in self.basis], dtype=np.int64)
        if np.any(np.diff(degree) < 0):
            raise ValidationError("basis is not in graded order")
        degree.flags.writeable = False
        object.__setattr__(self, "degree", degree)

    def contains(self, m) -> bool:
        """Module membership (ignoring the degree cap)."""
        return _in_module(check_exponents(self.n, m, "monomial"), self.generators)

    def levels(self) -> Tuple[int, ...]:
        """Sorted distinct total degrees present in the basis."""
        return tuple(np.unique(self.degree).tolist())


def build_truncation(
    n: int, module: Union[str, Sequence[Sequence[int]]], D: int
) -> FockTruncation:
    """Enumerate the truncated basis and its shift-neighbor tables.

    Parameters
    ----------
    n : int
        Number of variables (>= 1).
    module : "full" or sequence of multi-indices
        The full polynomial ring, or the generators of a monomial ideal
        (nonempty; an element belongs to the ideal when it is divisible by
        some generator).
    D : int
        Degree cap; must be at least the largest generator degree.

    Raises
    ------
    ValidationError
        On bad counts, an empty generator list, a cap below the largest
        generator degree, or an empty top level.
    """
    n, D = check_int("n", n, 1), check_int("D", D, 0)

    if isinstance(module, str):
        if module != "full":
            raise ValidationError(f"unknown module kind {module!r}")
        generators: Optional[Tuple[Monomial, ...]] = None
    else:
        gens = [check_exponents(n, g, "generator") for g in check_sequence("module", module)]
        if not gens:
            raise ValidationError("monomial ideal needs at least one generator")
        max_deg = max(sum(g) for g in gens)
        if D < max_deg:
            raise ValidationError(
                f"degree cap D={D} is below the largest generator degree {max_deg}"
            )
        generators = tuple(gens)

    basis = [m for m in graded_monomials(n, D) if _in_module(m, generators)]
    if not any(sum(m) == D for m in basis):
        raise ValidationError(f"module has no monomials at the cap degree {D}")

    lookup = {m: p for p, m in enumerate(basis)}
    size = len(basis)
    up = -np.ones((n, size), dtype=np.int64)
    down = -np.ones((n, size), dtype=np.int64)
    for p, m in enumerate(basis):
        for i in range(n):
            raised = m[:i] + (m[i] + 1,) + m[i + 1 :]
            if sum(raised) <= D:
                # module monomials stay in the module when multiplied
                up[i, p] = lookup[raised]
            if m[i] >= 1:
                lowered = m[:i] + (m[i] - 1,) + m[i + 1 :]
                if lowered in lookup:
                    down[i, p] = lookup[lowered]
    up.flags.writeable = False
    down.flags.writeable = False
    return FockTruncation(n, generators, D, tuple(basis), up, down)


@dataclass(frozen=True)
class DiagonalMetric:
    """Positive weight per basis monomial of a truncation."""

    truncation: FockTruncation
    values: np.ndarray

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.shape != (len(self.truncation.basis),):
            raise ValidationError(
                f"weights shape {vals.shape} != ({len(self.truncation.basis)},)"
            )
        if not np.all(np.isfinite(vals)) or np.any(vals <= 0):
            raise ValidationError("weights must be finite and positive")
        vals = vals.copy()
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    def weight(self, m) -> float:
        """Weight of a basis monomial."""
        return float(self.values[self.truncation.index(m)])


def fock_weights(t: FockTruncation, hbar: float) -> DiagonalMetric:
    """Bargmann weights ``c_mu = prod_i mu_i! hbar^{|mu|}``.

    Raises
    ------
    NumericError
        If a weight is not a positive finite float (it overflows, as
        ``171!`` does, or underflows to zero); the message names the site.
    """
    hbar = check_real("hbar", hbar, positive=True)
    vals = np.empty(len(t.basis))
    for p, m in enumerate(t.basis):
        try:
            weight = float(math.prod(math.factorial(e) for e in m)) * hbar ** sum(m)
        except OverflowError:
            weight = math.inf
        if not 0.0 < weight < math.inf:
            raise NumericError(
                f"Bargmann weight at site {m} is not a positive finite float "
                f"(hbar={hbar!r})"
            )
        vals[p] = weight
    return DiagonalMetric(t, vals)


def _stencil(t: FockTruncation, sites: np.ndarray):
    """Upward and downward neighbor tables ``(n, len(sites))`` of ``sites``.

    Every site below the cap has all its upward neighbors; a table without
    them is inconsistent and raises :class:`ConsistencyError`.
    """
    up = t.up[:, sites]
    missing = np.argwhere(up.T < 0)
    if missing.size:
        q, i = missing[0]
        raise ConsistencyError(
            f"missing upward neighbor for interior site {t.basis[sites[q]]} "
            f"in variable {i + 1}"
        )
    return up, t.down[:, sites]


def _residual_kernel(values, sites, up, down, hbar, m, columns=None):
    """Residuals ``r(mu)`` at ``sites`` and, given ``columns``, their
    Jacobian in ``log c``; unchecked.

    ``up`` and ``down`` come from :func:`_stencil`.  Each site sums
    ``-hbar m, +up_1, -down_1, +up_2, ...`` in this order, a missing downward
    neighbor contributing nothing.  ``columns`` maps a basis index to its
    Jacobian column, ``-1`` for a frozen weight, and ``sites`` must then be
    the free sites in column order.

    The Jacobian comes as ``(diag, cols, vals)``: ``diag`` is its diagonal,
    which accumulates ``-up_1, -down_1, ...``, and column ``i`` of the
    ``(len(sites), n)`` arrays ``cols`` and ``vals`` holds the column and
    the value of the entry of ``up_i`` (``i`` from 0), the ratio
    ``c_{mu+e_i} / c_mu``; column ``-1`` marks a frozen neighbor.  The
    entries of the down neighbors are not stored: the Jacobian is
    symmetric, and the row of ``mu + e_i`` holds in the column of ``mu``
    the same ratio of the same floats (:func:`_level_blocks`).
    """
    vs = values[sites]
    total = np.full(len(sites), -hbar * m)
    if columns is not None:
        diag = np.zeros(len(sites))
        cols = np.empty((len(sites), len(up)), dtype=np.int64)
        vals = np.empty(cols.shape)
    for i in range(len(up)):
        ratio_up = values[up[i]] / vs
        total += ratio_up
        has = down[i] >= 0
        ratio_dn = vs[has] / values[down[i][has]]
        total[has] -= ratio_dn
        if columns is not None:
            diag -= ratio_up
            diag[has] -= ratio_dn
            cols[:, i] = columns[up[i]]
            vals[:, i] = ratio_up
    if columns is None:
        return total, None
    return total, (diag, cols, vals)


def _level_blocks(jac, bounds):
    """Blocks of the square Jacobian ``J`` over single levels, from the
    Jacobian ``jac`` of :func:`_residual_kernel` at the free sites; level
    ``k`` holds the free sites at positions ``bounds[k]:bounds[k + 1]``.

    Returns ``(diagonal, upper)``: ``diagonal[k]`` is the diagonal of the
    block of level ``k``, its only nonzeros since the stencil leaves a
    site's level, and ``upper[k]`` the block coupling level ``k`` (rows) to
    level ``k + 1`` (columns), holding the up entries.  ``J`` is symmetric,
    so the block below the diagonal is ``upper[k].T``, and no other block
    is nonzero.  Distinct up neighbors of a site are distinct sites, so
    each cell is written once.
    """
    diag, cols, vals = jac
    sizes = np.diff(bounds)
    rows, slots = np.nonzero(cols >= 0)
    level = np.repeat(np.arange(len(sizes)), sizes)[rows]
    # one flat buffer holding the upper blocks one after the other
    offsets = np.cumsum(np.r_[0, sizes[:-1] * sizes[1:]])
    cells = (
        offsets[level]
        + (rows - bounds[level]) * sizes[level + 1]
        + cols[rows, slots]
        - bounds[level + 1]
    )
    flat = np.zeros(offsets[-1])
    flat[cells] = vals[rows, slots]
    upper = [
        flat[o : o + p * q].reshape(p, q)
        for o, p, q in zip(offsets, sizes[:-1], sizes[1:])
    ]
    return np.split(diag, bounds[1:-1]), upper


def _block_solve(diagonal, upper, rhs, bounds):
    """Solve ``J delta = rhs`` for the symmetric block-tridiagonal ``J`` of
    :func:`_level_blocks` by block elimination, level by level upward.

    Each Schur complement ``S_k = diag(d_k) - U_{k-1}^T S_{k-1}^{-1} U_{k-1}``
    is factored once by ``np.linalg.solve`` on ``[U_k | y_k]``, so a singular
    complement raises ``np.linalg.LinAlgError``.
    """
    pieces = np.split(rhs, bounds[1:-1])
    schur, y = np.diag(diagonal[0]), pieces[0]
    eliminated = []
    for coupling, d, piece in zip(upper, diagonal[1:], pieces[1:]):
        w = np.linalg.solve(schur, np.column_stack((coupling, y)))
        eliminated.append(w)
        schur = np.diag(d) - coupling.T @ w[:, :-1]
        y = piece - coupling.T @ w[:, -1]
    x = np.linalg.solve(schur, y)
    solution = [x]
    for w in reversed(eliminated):
        x = w[:, -1] - w[:, :-1] @ x
        solution.append(x)
    return np.concatenate(solution[::-1])


def _check_metric(t, c) -> None:
    """Check that ``t`` is a truncation and ``c`` a metric on it."""
    if not isinstance(t, FockTruncation):
        raise ValidationError(f"expected FockTruncation, got {type(t).__name__}")
    if not isinstance(c, DiagonalMetric) or c.truncation.basis != t.basis:
        raise ValidationError("metric does not belong to this truncation")


def nekrasov_residual(
    t: FockTruncation, c: DiagonalMetric, hbar: float, m: int
) -> dict:
    """Per-site residuals at interior sites (``|mu| <= D - 1``).

    Returns a mapping from basis monomial to residual value; boundary sites
    at the cap are excluded.

    Raises
    ------
    NumericError
        If the residual at an interior site is not finite (a shift ratio
        overflowed).
    """
    _check_metric(t, c)
    hbar = check_real("hbar", hbar)
    m = check_int("m", m, 1)
    interior = np.flatnonzero(t.degree < t.D)
    vec, _ = _residual_kernel(c.values, interior, *_stencil(t, interior), hbar, m)
    bad = ~np.isfinite(vec)
    if bad.any():
        raise NumericError(
            f"non-finite residual at site {t.basis[interior[np.argmax(bad)]]}"
        )
    return {t.basis[p]: float(v) for p, v in zip(interior, vec)}


def residual_profile(residuals: Mapping[Monomial, float]) -> list:
    """Per-degree maxima ``[{"degree": d, "max_abs": r}, ...]`` of a residual
    mapping, sorted by degree.

    Raises
    ------
    NumericError
        If a residual is not finite, which a maximum would hide.
    """
    by_degree: dict[int, float] = {}
    for mono, val in residuals.items():
        if not math.isfinite(val):
            raise NumericError(f"non-finite residual {val} at site {mono}")
        d = sum(mono)
        by_degree[d] = max(by_degree.get(d, 0.0), abs(val))
    return [
        {"degree": d, "max_abs": by_degree[d]} for d in sorted(by_degree)
    ]


def solve_nekrasov(
    t: FockTruncation,
    hbar: float,
    m: Optional[int] = None,
    opts: Optional[SolveOptions] = None,
    buffer: int = DEFAULT_BUFFER,
) -> DiagonalMetric:
    """Newton solution of the truncated metric equation.

    Weights at the ``buffer + 1`` top levels (``|mu| >= D - buffer``) are
    frozen to Bargmann values, realizing the boundary condition; the
    logarithms ``x`` of the remaining weights are the unknowns, one per free
    site, and the residuals at the free sites are the equations.  Each
    iteration solves the square system ``J delta = -r`` and steps along
    ``delta`` by :func:`momentmap.solver._backtrack` on ``|r|^2`` from the
    full step, with the directional derivative ``-2 |r|^2``, accepting a
    trial that lies strictly below the Armijo bound.  Convergence is
    declared when ``max |r(mu)| <= opts.tol`` over the free sites
    (``|mu| <= D - buffer - 1``).

    ``J`` is nonsingular.  A row of ``J`` holds ``-sum(up + down)`` on the
    diagonal and the positive ratios ``up``, ``down`` at the free neighbors,
    so ``-J`` is diagonally dominant, strictly on the top free level, whose
    upward neighbors are all frozen.  Every site reaches that level by
    upward shifts, each a nonzero entry of its row, so ``-J`` is weakly
    chained diagonally dominant and nonsingular (Taussky, Amer. Math.
    Monthly 56 (1949); Shivakumar and Chew, Proc. AMS 43 (1974)).  ``J`` is
    also symmetric (it is the negated Hessian of the convex
    ``sum exp(x_{mu+e_i} - x_mu) + hbar m sum x``, whose gradient is
    ``-r``), so ``delta`` descends ``|r|^2`` with derivative ``-2 |r|^2``.
    The stencil leaves a site's level, so ``J`` is block-tridiagonal over
    single levels with diagonal same-level blocks (:func:`_level_blocks`),
    and the system is solved by block elimination (:func:`_block_solve`);
    nothing of size ``sites^2`` is formed.

    Parameters
    ----------
    t : FockTruncation
    hbar : float
        Positive deformation parameter.
    m : int, optional
        Dimension parameter of the equation; defaults to ``t.n``.
    opts : SolveOptions, optional
    buffer : int
        Number of frozen levels below the cap (default 2).

    Raises
    ------
    ValidationError
        If ``hbar <= 0``, ``m < 1``, or no free sites remain.
    SolverError
        When the line search finds no step or ``opts.max_iters`` runs out;
        ``details`` carries the residual profile achieved.
    """
    if not isinstance(t, FockTruncation):
        raise ValidationError(f"expected FockTruncation, got {type(t).__name__}")
    hbar = check_real("hbar", hbar, positive=True)
    if m is None:
        m = t.n
    m = check_int("m", m, 1)
    buffer = check_int("buffer", buffer, 0)
    if opts is None:
        opts = SolveOptions()

    free = np.flatnonzero(t.degree <= t.D - buffer - 1)
    if not free.size:
        raise ValidationError(
            f"no free sites: cap D={t.D} with buffer {buffer} freezes everything"
        )
    up, down = _stencil(t, free)
    columns = np.full(len(t.basis), -1, dtype=np.int64)
    columns[free] = np.arange(len(free))
    # the levels of a monomial module are consecutive
    degree = t.degree[free]
    bounds = np.searchsorted(degree, np.arange(degree[0], degree[-1] + 2))

    boundary = fock_weights(t, hbar).values
    x = np.log(boundary)

    def assemble(xvec) -> np.ndarray:
        # frozen coordinates never move; bypass the exp(log(.)) round trip
        vals = boundary.copy()
        vals[free] = np.exp(xvec[free])
        return vals

    def residual_and_jacobian(xvec):
        return _residual_kernel(assemble(xvec), free, up, down, hbar, m, columns)

    r, jac = residual_and_jacobian(x)
    best_sup = float(np.max(np.abs(r)))
    for iteration in range(opts.max_iters):
        sup = float(np.max(np.abs(r)))
        best_sup = min(best_sup, sup)
        if sup <= opts.tol:
            metric = DiagonalMetric(t, assemble(x))
            logger.info(
                "metric equation solved: %d free sites, %d iterations, sup %.3e",
                len(free),
                iteration,
                sup,
            )
            return metric
        try:
            delta = _block_solve(*_level_blocks(jac, bounds), -r, bounds)
        except np.linalg.LinAlgError:
            break

        def trial(step):
            x_new = x.copy()
            x_new[free] += step * delta
            with np.errstate(over="ignore", invalid="ignore"):
                r_new, jac_new = residual_and_jacobian(x_new)
                value = float(r_new @ r_new)
            return (x_new, r_new, jac_new), value

        norm2 = float(r @ r)
        # strict: a trial that leaves |r|^2 where it was is no step; 40 halvings at most
        accepted = _backtrack(trial, 1.0, norm2, -2.0 * norm2, 1e-12, strict=True)
        if accepted is None:
            break
        (x, r, jac), _ = accepted

    profile = residual_profile(
        nekrasov_residual(t, DiagonalMetric(t, assemble(x)), hbar, m)
    )
    raise SolverError(
        f"metric equation not solved to tol={opts.tol} (best sup {best_sup:.3e})",
        details={"residual_profile": profile, "best_sup": best_sup},
    )


@dataclass(frozen=True)
class CommutatorReport:
    """Per-level deviations of the truncated shifts from canonical
    commutation.

    Attributes
    ----------
    levels : tuple of int
        Graded levels present in the basis.
    per_pair : mapping
        ``(i, j)`` (1-based) -> tuple of per-level sup norms of
        ``[Z_i^dagger, Z_j] - hbar delta_ij Id`` restricted to each level.
    max_per_level : tuple of float
        Maximum over all pairs, per level.
    """

    levels: Tuple[int, ...]
    per_pair: Mapping[Tuple[int, int], Tuple[float, ...]]
    max_per_level: Tuple[float, ...]


def commutator_diagnostics(
    t: FockTruncation, c: DiagonalMetric, hbar: float
) -> CommutatorReport:
    """Assemble the weighted shifts and measure ``[Z_i^dagger, Z_j]`` against
    ``hbar delta_ij`` on every graded level.

    The shifts act on the orthonormalized basis, ``Z_i e_mu =
    sqrt(c_{mu+e_i}/c_mu) e_{mu+e_i}``, and annihilate the top level (the
    truncation cut); deviations at the highest levels reflect that cut while
    interior levels witness the equation.

    Raises
    ------
    ValidationError
        On a foreign metric or a non-finite ``hbar``.
    NumericError
        If a shift weight ``sqrt(c_{mu+e_i}/c_mu)`` overflows.
    """
    _check_metric(t, c)
    hbar = check_real("hbar", hbar)

    shifted = np.nonzero(t.up >= 0)
    with np.errstate(over="ignore"):
        ratios = c.values[t.up[shifted]] / c.values[shifted[1]]
    if not np.all(np.isfinite(ratios)):
        raise NumericError("a shift weight sqrt(c_{mu+e_i}/c_mu) is not finite")
    weights = np.zeros(t.up.shape)
    weights[shifted] = np.sqrt(ratios)

    levels = t.levels()
    level_of = np.searchsorted(levels, t.degree)
    per_pair = {}
    for i in range(t.n):
        for j in range(t.n):
            sups = np.zeros(len(levels))
            # np.maximum propagates NaN, so a NaN entry is not hidden
            with np.errstate(invalid="ignore"):
                np.maximum.at(sups, level_of, np.abs(_site_deviation(t, weights, i, j, hbar)))
            per_pair[(i + 1, j + 1)] = tuple(sups.tolist())
    max_per_level = np.max(list(per_pair.values()), axis=0)
    return CommutatorReport(
        levels=levels,
        per_pair=per_pair,
        max_per_level=tuple(float(v) for v in max_per_level),
    )


def _site_deviation(t, weights, i, j, hbar) -> np.ndarray:
    """Entry of ``[Z_i^dagger, Z_j] - hbar delta_ij Id`` in the column of
    each site, the only entry of that column.

    ``Z_i^dagger Z_j`` maps site ``p`` to ``down_i(up_j(p))`` and
    ``Z_j Z_i^dagger`` to ``up_j(down_i(p))``; when both exist they are the
    same site ``p + e_j - e_i``.  So every column, and likewise every row,
    of the commutator holds at most one entry, and the operator norm of a
    level block is the largest entry in absolute value.
    """
    raised = t.up[j]
    rows = np.where(raised >= 0, t.down[i, raised], -1)
    forward = np.where(rows >= 0, weights[i, rows] * weights[j], 0.0)
    lowered = t.down[i]
    rows = np.where(lowered >= 0, t.up[j, lowered], -1)
    backward = np.where(rows >= 0, weights[j, lowered] * weights[i, lowered], 0.0)
    deviation = forward - backward
    if i == j:
        deviation = deviation - hbar
    return deviation


def truncation_from_json(text: str):
    """Parse a problem description ``{"n", "module", "D", "hbar", "m",
    "buffer"}``; returns ``(truncation, hbar, m, buffer)`` with defaults
    ``m = n`` and ``buffer = 2``."""
    obj = load_json_object(text, ("n", "module", "D", "hbar"), ("m", "buffer"))
    module = obj["module"]
    if isinstance(module, dict):
        check_keys("module object", module, ("ideal",))
        module = check_sequence("ideal", module["ideal"])
    elif module != "full":
        raise ValidationError(f'module must be "full" or an ideal object, got {module!r}')
    t = build_truncation(obj["n"], module, obj["D"])
    hbar = check_real("hbar", obj["hbar"], positive=True)
    m = check_int("m", obj.get("m", t.n), 1)
    buffer = check_int("buffer", obj.get("buffer", DEFAULT_BUFFER), 0)
    return t, hbar, m, buffer
