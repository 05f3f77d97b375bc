"""Finite truncations of the quantized Hermitian-metric equation on
monomial modules, with a Levenberg-Marquardt solver and commutator
diagnostics.

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
infinity) and runs Levenberg-Marquardt with Marquardt's damping rule in
``x = log c`` on the remaining sites.  The Jacobian has at most ``2 n + 1``
entries per row, one per stencil slot, so it is kept in slot form and the
normal equations are summed from it; only ``J^T J`` itself is dense.

:func:`commutator_diagnostics` measures how far the truncated shifts are
from the exact commutation relations ``[Z_i^dagger, Z_j] = hbar delta_ij``
level by level, which quantifies the trace-class boundary behaviour.  The
commutators preserve the degree, so they are assembled one level block at a
time from the neighbor tables: memory is O(level^2), not O(size^2).
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
from .solver import SolveOptions

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

#: Marquardt's damping rule for :func:`solve_nekrasov` (Marquardt, SIAM J.
#: Appl. Math. 11 (1963); Nielsen, IMM-REP-1999-05): start factor on
#: ``max diag(J^T J)``, floor, change per accepted or rejected trial, and
#: trials per iteration.
LM_LAMBDA_START = 1e-3
LM_LAMBDA_FLOOR = 1e-12
LM_FACTOR = 10.0
LM_TRIES = 10


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

    def contains(self, m) -> bool:
        """Module membership (ignoring the degree cap)."""
        return _in_module(check_exponents(self.n, m, "monomial"), self.generators)

    def levels(self) -> Tuple[int, ...]:
        """Sorted distinct total degrees present in the basis."""
        return tuple(sorted({sum(m) for m in self.basis}))


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

    The Jacobian comes in stencil slots, as arrays ``(cols, vals)`` of shape
    ``(len(sites), 2 n + 1)``: slot 0 holds the diagonal, slots ``2 i + 1``
    and ``2 i + 2`` the entries of ``up_i`` and ``down_i`` (``i`` from 0).
    Column ``-1`` marks a frozen or missing neighbor, whose value is 0.  The
    diagonal accumulates ``-up_1, -down_1, ...``; every other entry is one
    ratio.
    """
    vs = values[sites]
    total = np.full(len(sites), -hbar * m)
    jac = None
    if columns is not None:
        cols = np.full((len(sites), 2 * len(up) + 1), -1, dtype=np.int64)
        vals = np.zeros(cols.shape)
        cols[:, 0] = np.arange(len(sites))
        diag = np.zeros(len(sites))
        jac = (cols, vals)
    for i in range(len(up)):
        ratio_up = values[up[i]] / vs
        total += ratio_up
        has = down[i] >= 0
        below = down[i][has]
        ratio_dn = vs[has] / values[below]
        total[has] -= ratio_dn
        if jac is not None:
            diag -= ratio_up
            diag[has] -= ratio_dn
            cols[:, 2 * i + 1] = columns[up[i]]
            vals[:, 2 * i + 1] = ratio_up
            cols[has, 2 * i + 2] = columns[below]
            vals[has, 2 * i + 2] = ratio_dn
    if jac is not None:
        vals[:, 0] = diag
        vals[cols < 0] = 0.0
    return total, jac


def _normal_equations(jac, r):
    """``J^T J`` and ``-J^T r`` for the stencil-slot Jacobian ``jac`` of
    :func:`_residual_kernel`.

    Each row of ``J`` has at most ``2 n + 1`` entries, in distinct columns,
    so a cell of ``J^T J`` receives at most one product per row;
    ``np.bincount`` adds the products in ascending row order, starting from
    zero.
    """
    cols, vals = jac
    size = len(cols)
    hit = cols >= 0
    pairs = hit[:, :, None] & hit[:, None, :]
    cells = (cols[:, :, None] * size + cols[:, None, :])[pairs]
    products = (vals[:, :, None] * vals[:, None, :])[pairs]
    normal = np.bincount(cells, products, minlength=size * size).reshape(size, size)
    rhs = -np.bincount(cols[hit], (vals * r[:, None])[hit], minlength=size)
    return normal, rhs


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
    interior = np.array(
        [p for p, mono in enumerate(t.basis) if sum(mono) < t.D], dtype=np.int64
    )
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
    """Levenberg-Marquardt solution of the truncated metric equation.

    Weights at the ``buffer + 1`` top levels (``|mu| >= D - buffer``) are
    frozen to Bargmann values, realizing the boundary condition; the
    logarithms of the remaining weights are the unknowns.  Each iteration
    solves the damped normal equations ``(J^T J + lam I) delta = -J^T r``
    and accepts the step when it lowers ``|r|_2``; ``J^T J`` and ``-J^T r``
    are summed from the stencil slots (:func:`_normal_equations`) and the
    damping is written onto the diagonal of ``J^T J``.  The damping follows
    Marquardt's rule: it starts at ``lam = max(1e-12, 1e-3 max diag(J^T J))``,
    is carried across iterations, is divided by 10 (floor ``1e-12``) after an
    accepted step and multiplied by 10 after a rejected trial, with at most
    10 trials per iteration.  Convergence is declared when
    ``max |r(mu)| <= opts.tol`` over the free sites
    (``|mu| <= D - buffer - 1``).

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
        On stalling or non-convergence; ``details`` carries the residual
        profile achieved.
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

    free = np.array(
        [p for p, mono in enumerate(t.basis) if sum(mono) <= t.D - buffer - 1],
        dtype=np.int64,
    )
    if not free.size:
        raise ValidationError(
            f"no free sites: cap D={t.D} with buffer {buffer} freezes everything"
        )
    up, down = _stencil(t, free)
    columns = np.full(len(t.basis), -1, dtype=np.int64)
    columns[free] = np.arange(len(free))
    diagonal = np.arange(len(free))

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
    lam = None
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
        norm = float(np.linalg.norm(r))
        normal, rhs = _normal_equations(jac, r)
        undamped = normal[diagonal, diagonal]
        if lam is None:
            lam = max(LM_LAMBDA_FLOOR, LM_LAMBDA_START * float(np.max(undamped)))
        stepped = False
        for _ in range(LM_TRIES):
            # the damped diagonal, in place: off the diagonal lam I adds zeros
            normal[diagonal, diagonal] = undamped + lam
            try:
                delta = np.linalg.solve(normal, rhs)
            except np.linalg.LinAlgError:
                lam *= LM_FACTOR
                continue
            x_new = x.copy()
            x_new[free] += delta
            with np.errstate(over="ignore", invalid="ignore"):
                r_new, jac_new = residual_and_jacobian(x_new)
            if np.all(np.isfinite(r_new)) and np.linalg.norm(r_new) < norm:
                x, r, jac = x_new, r_new, jac_new
                lam = max(LM_LAMBDA_FLOOR, lam / LM_FACTOR)
                stepped = True
                break
            lam *= LM_FACTOR
        if not stepped:
            break

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
    degree = np.array([sum(mono) for mono in t.basis])
    level_sites = [np.flatnonzero(degree == lev) for lev in levels]
    local = np.empty(len(t.basis), dtype=np.int64)
    for block_sites in level_sites:
        local[block_sites] = np.arange(len(block_sites))

    per_pair = {}
    for i in range(t.n):
        for j in range(t.n):
            per_pair[(i + 1, j + 1)] = tuple(
                _level_sup(t, weights, block_sites, local, i, j, hbar)
                for block_sites in level_sites
            )
    max_per_level = np.max(list(per_pair.values()), axis=0)
    return CommutatorReport(
        levels=levels,
        per_pair=per_pair,
        max_per_level=tuple(float(v) for v in max_per_level),
    )


def _level_sup(t, weights, sites, local, i, j, hbar) -> float:
    """Sup norm of ``[Z_i^dagger, Z_j] - hbar delta_ij Id`` on one level.

    Both products preserve the degree, and each of their columns ``p`` has at
    most one entry: ``Z_i^dagger Z_j`` at row ``down_i(up_j(p))`` and
    ``Z_j Z_i^dagger`` at row ``up_j(down_i(p))``.  Filling those entries
    gives the level block of the dense products exactly.
    """
    size = len(sites)
    cols = np.arange(size)
    forward = np.zeros((size, size))
    raised = t.up[j, sites]
    rows = np.where(raised >= 0, t.down[i, raised], -1)
    hit = rows >= 0
    forward[local[rows[hit]], cols[hit]] = weights[i, rows[hit]] * weights[j, sites[hit]]
    backward = np.zeros((size, size))
    lowered = t.down[i, sites]
    rows = np.where(lowered >= 0, t.up[j, lowered], -1)
    hit = rows >= 0
    via = lowered[hit]
    backward[local[rows[hit]], cols[hit]] = weights[j, via] * weights[i, via]
    block = forward - backward
    if i == j:
        block = block - hbar * np.eye(size)
    return float(np.linalg.norm(block, 2))


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
