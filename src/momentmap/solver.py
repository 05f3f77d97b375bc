"""Kempf-Ness metric flow: minimize the functional over metric families
``h_v = exp(s_v)`` and report a solution metric or a divergence certificate.

The driver runs Armijo-backtracked steepest descent with a safeguarded
Barzilai-Borwein initial step, switching to Tikhonov-damped Newton once the
residual is small.  Its four step kinds -- the main step, the Newton rescue,
the descent probe and the residual polish -- share one line search,
:func:`_line_search`, which caps the trial step at ``STEP_CAP`` and shrinks
it in :func:`_backtrack`, the package's one backtracking loop.  Four
safeguards matter on hard instances:

* On non-polystable instances the residual decays to zero *along an escaping
  flow* (the orbit closure contains a smaller representation), so a small
  residual alone never certifies a solution.  Convergence is declared only
  after a full-length descent probe fails to decrease the functional; along
  an escaping valley the probe step is accepted instead and the flow keeps
  moving toward the divergence threshold.
* Near a true minimum the functional's decrease per step falls below its own
  floating-point resolution before the residual reaches ``tol``; an endgame
  polish accepts damped-Newton steps by residual contraction instead.
* Below ``NEWTON_SWITCH_TOL`` in the residual, the searches on the
  functional (the main step and the Newton rescue) stop at the step length
  whose predicted decrease is ``4 eps |value|``, the functional's rounding
  resolution, rather than backtracking through rounding noise; a search
  that reaches it ends in that polish and a descent probe.
* Steepest descent can stall while strict progress is still available (linear
  descent valleys flanked by exponentially steep walls); a damped-Newton
  rescue step suppresses the wall components before a stall is terminal.

Every step, trial and iterate is a :class:`~momentmap.moment.KingPoint`,
which decomposes its family once and computes the functional, gradient,
metric, residual and the Hessian's base spectra from that on first read; a
line search returns its accepted trial, so the next iteration reads what
the search already computed there.  Family sup norms take one stacked SVD
per shape, and a point's own, read by the Newton scale, the descent probe
and the divergence test, is taken once.

Termination:

* ``Converged`` -- the re-evaluated residual sup-norm at ``exp(s)`` is
  ``<= tol`` and a descent probe confirms stationarity.
* ``Diverged`` -- some ``||s_v||`` crossed ``DIVERGENCE_NORM``; a
  destabilizing subspace candidate is extracted from the final iterate.
* ``MaxIters`` -- iteration budget exhausted (includes terminal stalls).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from enum import Enum
from typing import Mapping, NamedTuple, Optional

import numpy as np

from .checks import check_int, check_real
from .errors import MomentMapError, NumericError, SolverError, ValidationError
# ``hermitian_exp`` is unused here but stays importable from this module.
from .linalg import (
    _eigh, _hermitian_coords, _hermitian_from_coords, _hermitian_part, _max_sup_norm,
    hermitian_basis, hermitian_exp, sup_norm,
)
from .moment import (
    KahlerData, KingPoint, _check_displacement, _eigenpairs, _gradient_block, _spectra,
    _weights, zero_displacement,
)
from .quiver import Representation, validate_eta

__all__ = [
    "SolveOptions",
    "SolveStatus",
    "HistoryRecord",
    "DestabilizerCandidate",
    "SolveOutcome",
    "solve_metric",
    "extract_destabilizer",
]

logger = logging.getLogger(__name__)

#: Relative sup-norm bound on the last accepted step below which the iterate
#: is treated as a stationarity candidate and a descent probe is scheduled.
STATIONARY_STEP = 1e-3

#: Largest trial step length (sup norm of alpha * direction) per iteration.
STEP_CAP = 2.0

#: Armijo sufficient-decrease constant of the line searches.
ARMIJO_C = 1e-4

#: Factor by which a rejected line-search trial shrinks the step.
BACKTRACK = 0.5

#: Residual sup below which damped-Newton steps replace steepest descent.
NEWTON_SWITCH_TOL = 1e-4

#: Sup norm of the displacement family beyond which the flow has diverged.
DIVERGENCE_NORM = 50.0


class SolveStatus(str, Enum):
    CONVERGED = "Converged"
    DIVERGED = "Diverged"
    MAX_ITERS = "MaxIters"


@dataclass(frozen=True)
class SolveOptions:
    """Residual tolerance and iteration budget of :func:`solve_metric`,
    :func:`momentmap.adhm.solve_adhm` and
    :func:`momentmap.nekrasov.solve_nekrasov`."""

    tol: float = 1e-10
    max_iters: int = 10000

    def __post_init__(self):
        object.__setattr__(self, "tol", check_real("tol", self.tol, positive=True))
        object.__setattr__(self, "max_iters", check_int("max_iters", self.max_iters, 1))


class HistoryRecord(NamedTuple):
    """One accepted iterate: iteration index, functional value, residual sup."""

    iteration: int
    functional: float
    residual: float


@dataclass(frozen=True)
class DestabilizerCandidate:
    """Advisory destabilizing-subspace candidate read off a divergent flow.

    Attributes
    ----------
    basis : dict
        Vertex -> matrix with orthonormal columns spanning the candidate
        subspace (possibly zero columns).
    subdims : dict
        Vertex -> candidate subspace dimension.
    slope : float
        ``sum_v eta_v * subdims[v]``, reported as computed.
    invariance_defect : float
        ``max_a ||(Id - P_t) T_a P_s||`` over arrows, for the orthogonal
        projections onto the candidate subspaces; small values mean the
        subspaces nearly form a subrepresentation.
    """

    basis: Mapping[str, np.ndarray]
    subdims: Mapping[str, int]
    slope: float
    invariance_defect: float


@dataclass(frozen=True)
class SolveOutcome:
    """Result of a metric solve."""

    status: SolveStatus
    metric: Optional[Mapping[str, np.ndarray]]
    history: list[HistoryRecord] = field(default_factory=list)
    final_sup: float = np.inf
    certificate: Optional[DestabilizerCandidate] = None


def _family_inner(x: Mapping[str, np.ndarray], y: Mapping[str, np.ndarray]) -> float:
    return float(
        sum(np.trace(x[v] @ y[v]).real for v in x if x[v].size)
    )


def _family_sup(x: Mapping[str, np.ndarray]) -> float:
    return _max_sup_norm(x.values())


def extract_destabilizer(
    s: Mapping[str, np.ndarray],
    rep: Representation,
    eta: Mapping[str, float],
) -> DestabilizerCandidate:
    """Read a destabilizing-subspace candidate off the final displacement
    family ``s`` of a divergent flow.

    ``s`` must be a Hermitian family of the representation's dimensions.  It
    is normalized to unit operator norm and its eigenvalues are pooled
    across vertices; the split is taken below the midpoint of the largest gap
    in the pooled spectrum (below the median eigenvalue if all gaps agree to
    1e-9).  Requires ``max_v ||s_v|| >= 1``; a failed eigendecomposition is
    a :class:`NumericError`.
    """
    eta = validate_eta(rep.quiver, eta)
    return _extract_destabilizer(_check_displacement(rep, s), rep, eta)


def _extract_destabilizer(s, rep, eta) -> DestabilizerCandidate:
    """Unchecked kernel of :func:`extract_destabilizer`: ``s`` holds Hermitian
    blocks of the right sizes and ``eta`` is validated."""
    norm = _family_sup(s)
    if norm < 1.0:
        raise ValidationError("extract_destabilizer: displacement has ||s|| < 1")
    sigma = {v: s[v] / norm for v in rep.quiver.vertices}

    eigen = {}
    pooled = []
    for v in rep.quiver.vertices:
        if sigma[v].size == 0:
            eigen[v] = (np.zeros(0), np.zeros((0, 0), dtype=np.complex128))
            continue
        w, u = _eigh(_hermitian_part(sigma[v]))
        eigen[v] = (w, u)
        pooled.extend(w.tolist())
    pooled = np.sort(np.asarray(pooled))
    if pooled.size == 0:
        raise ValidationError("extract_destabilizer: no eigenvalues (all vertices empty)")

    if pooled.size == 1:
        threshold = float(pooled[0])  # split strictly below the single value
    else:
        gaps = np.diff(pooled)
        if float(gaps.max() - gaps.min()) <= 1e-9:
            threshold = float(np.median(pooled))
        else:
            k = int(np.argmax(gaps))
            threshold = float(0.5 * (pooled[k] + pooled[k + 1]))

    basis = {}
    subdims = {}
    for v in rep.quiver.vertices:
        w, u = eigen[v]
        cols = u[:, w < threshold] if w.size else np.zeros((0, 0), dtype=np.complex128)
        basis[v] = cols
        subdims[v] = int(cols.shape[1])
    slope = float(sum(eta[v] * subdims[v] for v in subdims))

    defect = 0.0
    for a in rep.quiver.arrows:
        t = rep.matrices[a.name]
        if t.size == 0:
            continue
        bs = basis[a.src]
        bt = basis[a.dst]
        if bs.shape[1] == 0:
            continue
        p_src = bs @ bs.conj().T
        p_dst = bt @ bt.conj().T if bt.size else np.zeros((t.shape[0], t.shape[0]))
        leak = (np.eye(t.shape[0]) - p_dst) @ t @ p_src
        defect = max(defect, sup_norm(leak))
    return DestabilizerCandidate(
        basis=basis, subdims=subdims, slope=slope, invariance_defect=defect
    )


#: Matrix entries per stack of perturbed spectra in the finite-difference
#: Hessian: a vertex of dimension <= 4 takes all its columns in one stack.
_HESSIAN_STACK_ENTRIES = 1024


def _finite_difference_hessian(point, scale):
    """Hessian of the functional at ``point`` in the orthonormal Hermitian
    product basis: central differences ``(G(s + eps b) - G(s - eps b)) /
    (2 eps)``, with ``eps = 1e-4 * scale``, symmetrised.

    The spectra at ``s`` are the point's.  The columns of a vertex
    ``v`` are taken in chunks of ``max(1, 1024 // d_v**2)`` basis directions
    ``b``.  Per chunk, one stacked eigh over ``s_v + eps b`` and
    ``-(s_v + eps b)`` gives the + side's spectra, and stacked products its
    gradient blocks at ``v`` and its neighbours; only then is the - side
    decomposed, by a second stacked eigh.  Blocks of vertices not adjacent to
    ``v`` subtract to ``0.0`` and are left at zero.  Each slice goes through
    the same LAPACK/BLAS call or elementwise operation as the per-column loop
    that re-evaluates the full gradient, so the result is bitwise equal to it.
    """
    rep, s = point.rep, point.s
    q = rep.quiver
    eps = 1e-4 * scale
    ends = np.cumsum([rep.dims[v] ** 2 for v in q.vertices])
    rows = {v: slice(e - rep.dims[v] ** 2, e) for v, e in zip(q.vertices, ends)}
    hess = np.zeros((ends[-1], ends[-1]))

    def blocks(v, near, sv):
        spectra = {**point.spectra, **_spectra(_eigenpairs({v: sv}))}
        return [_gradient_block(rep, x, spectra, point.eta, point.weights) for x in near]

    for v in q.vertices:
        d = rep.dims[v]
        if d == 0:
            continue
        near = [
            x for x in q.vertices
            if rep.dims[x] and (x == v or {v, x} in ({a.src, a.dst} for a in q.arrows))
        ]
        basis = hermitian_basis(d)
        chunk = max(1, _HESSIAN_STACK_ENTRIES // d**2)
        for j in range(0, d * d, chunk):
            b = eps * basis[j:j + chunk]
            gp = blocks(v, near, s[v] + b)
            gm = blocks(v, near, s[v] - b)
            cols = slice(rows[v].start + j, rows[v].start + j + len(b))
            for x, plus, minus in zip(near, gp, gm):
                hess[rows[x], cols] = (_hermitian_coords(plus - minus) / (2 * eps)).T
    return 0.5 * (hess + hess.T)


def _newton_direction(point):
    """Damped Newton step at ``point``, damped by its residual, in basis
    coordinates; None if not a descent direction."""
    rep = point.rep
    vertices = rep.quiver.vertices
    if not any(rep.dims[v] for v in vertices):
        return None, 0.0
    scale = max(1.0, point.s_sup)
    hess = _finite_difference_hessian(point, scale)
    lam = max(1e-10, point.residual)
    gvec = np.concatenate([_hermitian_coords(point.grad[v]) for v in vertices])
    try:
        delta = np.linalg.solve(hess + lam * np.eye(len(gvec)), -gvec)
    except np.linalg.LinAlgError:
        return None, 0.0
    slope = float(delta @ gvec)
    if not np.isfinite(slope) or slope >= 0:
        return None, 0.0
    parts = np.split(delta, np.cumsum([rep.dims[v] ** 2 for v in vertices])[:-1])
    direction = {v: _hermitian_from_coords(x, rep.dims[v]) for v, x in zip(vertices, parts)}
    return direction, slope


def _refine_by_residual(point, tol, direction):
    """Endgame polish: damped Newton steps accepted iff the King residual
    strictly decreases; returns the last accepted point (``point`` if none).

    Near the minimum the functional's decrease per step falls below its own
    floating-point resolution long before the residual reaches ``tol``, so
    Armijo-on-functional cannot certify the final contractions; the residual
    itself is the reliable progress measure there.  Each step goes along the
    damped Newton direction, or steepest descent where that is not a descent
    direction; ``direction`` is the first one, when the caller already holds
    it (``None`` computes it here).
    """
    for _ in range(60):
        if point.residual <= tol:
            break
        if direction is None:
            direction, _ = _newton_direction(point)
            if direction is None:
                direction = {v: -g for v, g in point.grad.items()}
        step = _line_search(lambda p: p.residual, point, direction, 1.0, 0.0, 1e-8, strict=True)
        if step is None:
            break
        point, direction = step[0], None
    return point


def _backtrack(trial, alpha, reference, deriv, floor, strict=False):
    """The package's one step-length backtracking loop: returns the first
    ``trial(alpha) = (point, value)`` with a finite ``value`` ``<=`` (with
    ``strict``, ``<``) ``reference + ARMIJO_C * alpha * deriv``, shrinking
    ``alpha`` by ``BACKTRACK`` while ``alpha > floor``; else ``None``.  A
    trial that raises :class:`NumericError` is rejected; any other error
    leaves the search."""
    while alpha > floor:
        try:
            point, value = trial(alpha)
        except NumericError:
            alpha *= BACKTRACK
            continue
        bound = reference + ARMIJO_C * alpha * deriv
        if np.isfinite(value) and (value < bound if strict else value <= bound):
            return point, value
        alpha *= BACKTRACK
    return None


def _line_search(evaluate, point, direction, alpha, deriv, floor=1e-16, strict=False):
    """:func:`_backtrack` over the trial points ``_hermitian_part(s + a
    direction)`` valued by ``evaluate``, against ``evaluate(point)``, from
    ``alpha`` capped to a step of sup norm ``STEP_CAP`` (``np.inf`` asks for
    that full length).  The cap bounds step length, not ``alpha``: along
    escaping directions the gradient decays exponentially while
    Barzilai-Borwein ``alpha`` grows to compensate.  A zero direction takes
    no step."""
    dir_sup = _family_sup(direction)
    if dir_sup == 0.0:
        return None
    alpha = float(min(alpha, STEP_CAP / dir_sup))
    s = point.s

    def trial(a):
        moved = {v: _hermitian_part(s[v] + a * direction[v]) for v in direction}
        moved = KingPoint(point.rep, point.eta, point.weights, moved)
        return moved, evaluate(moved)

    return _backtrack(trial, alpha, evaluate(point), deriv, floor, strict)


def _value_search(point, direction, alpha, deriv):
    """The :func:`_line_search` on the functional of the main step and the
    Newton rescue.  While the residual is below ``NEWTON_SWITCH_TOL`` its
    floor is the step length at which the predicted decrease ``alpha *
    |deriv|`` falls to ``4 eps |value|``, the functional's rounding
    resolution: below it the Armijo test compares rounding noise, so the
    search gives up and the caller polishes the residual instead."""
    floor = 1e-16
    if point.residual < NEWTON_SWITCH_TOL:
        floor = max(floor, 4 * np.finfo(float).eps * abs(point.value) / -deriv)
    return _line_search(lambda p: p.value, point, direction, alpha, deriv, floor)


def _descent_probe(point):
    """Distinguish a genuine minimum from an escaping valley at a stall.

    Attempt a strict Armijo steepest-descent step whose *trial length* is
    ``STEP_CAP`` regardless of the gradient's magnitude.  Near a minimum no
    order-one step can decrease the functional, so every trial is rejected
    down to the stationarity scale and the probe returns ``None``; along an
    escaping valley the functional keeps decaying at full step length, the
    trial is accepted, and the caller should keep flowing.
    """
    direction = {v: -g for v, g in point.grad.items()}
    dir_sup = _family_sup(direction)
    if dir_sup == 0.0:
        return None
    floor = STATIONARY_STEP * max(1.0, point.s_sup) / dir_sup
    deriv = -_family_inner(point.grad, point.grad)
    return _line_search(lambda p: p.value, point, direction, np.inf, deriv, floor, strict=True)


def solve_metric(
    rep: Representation,
    eta: Mapping[str, float],
    kahler: Optional[KahlerData] = None,
    opts: Optional[SolveOptions] = None,
) -> SolveOutcome:
    """Minimize the Kempf-Ness functional over metric families.

    Returns a :class:`SolveOutcome`; when ``Converged``, the attached metric
    satisfies ``king_residual(rep, metric, eta, kahler).sup <= opts.tol``
    (re-evaluated independently before returning).  When ``Diverged``, a
    :class:`DestabilizerCandidate` is attached.  The last ``history`` record
    always describes the returned iterate, so ``history[-1].residual``
    equals ``final_sup``.

    ``eta`` and ``kahler`` are validated once here; the iteration runs on the
    unchecked kernels of :mod:`momentmap.moment`.

    Raises
    ------
    ValidationError
        If ``eta`` or the weights of ``kahler`` do not fit the quiver.
    SolverError
        If the functional or gradient becomes non-finite (carries the
        iteration index in ``details``).
    """
    if opts is None:
        opts = SolveOptions()
    eta = validate_eta(rep.quiver, eta)
    weights = _weights(rep.quiver, kahler)

    def evaluated(point, iteration):
        """``point``, with its functional and gradient read: a failure there
        is a :class:`SolverError` at ``iteration``."""
        try:
            point.value, point.grad
        except MomentMapError as exc:
            what = "gradient" if iteration else "initial"
            raise SolverError(f"{what} evaluation failed", {"iteration": iteration}) from exc
        return point

    point = evaluated(KingPoint(rep, eta, weights, zero_displacement(rep)), 0)
    if not np.isfinite(point.value):
        raise SolverError("non-finite functional", {"iteration": 0})
    history = [HistoryRecord(0, point.value, point.residual)]

    def finish(status, point, cert=None):
        metric = point.metric if status is SolveStatus.CONVERGED else None
        return SolveOutcome(status, metric, history, point.residual, cert)

    if point.residual <= opts.tol:
        # Already a solution at h = Id; gradient and residual agree at s = 0.
        return finish(SolveStatus.CONVERGED, point)

    prev = None
    force_descent = False

    for iteration in range(1, opts.max_iters + 1):
        grad, value, residual = point.grad, point.value, point.residual
        gnorm2 = _family_inner(grad, grad)
        if gnorm2 <= 0.0:
            # An exactly zero gradient marks a critical point, that is a
            # solution, and no probe can move from there; the re-evaluated
            # residual decides whether it is one to ``tol``.
            if residual <= opts.tol:
                return finish(SolveStatus.CONVERGED, point)
            return finish(SolveStatus.MAX_ITERS, point)

        # --- choose a direction
        probe = force_descent
        force_descent = False
        use_newton = residual < NEWTON_SWITCH_TOL and not probe
        # the damped Newton step at the point, computed at most once per iteration
        direction = deriv = newton = None
        if use_newton:
            newton = _newton_direction(point)
            direction, deriv = newton
            if direction is None:
                use_newton = False
        if direction is None:
            direction = {v: -g for v, g in grad.items()}
            deriv = -gnorm2

        # --- initial step: unit for Newton, safeguarded BB for descent;
        # the line search caps it by trial step length.
        if use_newton:
            alpha = 1.0
        elif probe:
            # Stationarity probe: force a full-length trial along steepest
            # descent.  At a genuine minimum the line search shrinks it back
            # to a negligible step; along an escaping valley it is accepted
            # at full length and the trajectory keeps growing.
            alpha = np.inf
        elif prev is not None:
            ds = {v: point.s[v] - prev.s[v] for v in grad}
            dg = {v: grad[v] - prev.grad[v] for v in grad}
            num = _family_inner(ds, dg)
            den = _family_inner(dg, dg)
            alpha = num / den if (den > 0 and num > 0) else 1.0 / max(1.0, _family_sup(grad))
        else:
            alpha = 1.0 / max(1.0, _family_sup(grad))

        step = _value_search(point, direction, alpha, deriv)
        if (step is None or not step[1] < value) and not use_newton:
            # Steepest descent can stall with strict progress still available:
            # near-flat valleys flanked by exponentially steep walls reject
            # every trial once any wall component enters the direction.  The
            # damped Newton direction suppresses wall components, so try it
            # as a rescue before concluding anything.
            if newton is None:
                newton = _newton_direction(point)
            r_dir, r_deriv = newton
            if r_dir is not None:
                rescue = _value_search(point, r_dir, 1.0, r_deriv)
                if rescue is not None and rescue[1] < value:
                    step = rescue
        if step is None or not step[1] < value:
            # The functional's decrease per step has fallen below its own
            # floating-point resolution.  Polish the residual if needed, then
            # separate a genuine minimum from an escaping flat valley (where
            # the residual also decays) with one full-length descent trial.
            if residual >= NEWTON_SWITCH_TOL:
                logger.debug("line search stalled at iteration %d", iteration)
                return finish(SolveStatus.MAX_ITERS, point)
            refined = residual > opts.tol
            if refined:
                first = newton[0] if newton[0] is not None else direction
                point = _refine_by_residual(point, opts.tol, first)
                if point.residual > opts.tol:
                    logger.debug("refinement stalled at iteration %d", iteration)
                    history.append(HistoryRecord(iteration, point.value, point.residual))
                    return finish(SolveStatus.MAX_ITERS, point)
                point = evaluated(point, iteration)
            step = _descent_probe(point)
            if step is None:
                if refined:
                    # Refinement moved the iterate after the last logged
                    # record; log the state actually being returned.
                    history.append(HistoryRecord(iteration, point.value, point.residual))
                return finish(SolveStatus.CONVERGED, point)

        prev, point = point, evaluated(step[0], iteration)
        history.append(HistoryRecord(iteration, point.value, point.residual))

        # --- termination checks: escape first, then stationarity
        s_sup = point.s_sup
        if s_sup > DIVERGENCE_NORM:
            cert = _extract_destabilizer(point.s, rep, eta)
            return finish(SolveStatus.DIVERGED, point, cert)
        if point.residual <= opts.tol and _family_sup(
            {v: point.s[v] - prev.s[v] for v in grad}
        ) <= STATIONARY_STEP * max(1.0, s_sup):
            # A tiny step certifies stationarity only when it survived a
            # full-length descent probe; damped Newton and BB steps can be
            # tiny along escaping valleys too.  Otherwise schedule a probe.
            if probe:
                return finish(SolveStatus.CONVERGED, point)
            force_descent = True

    return finish(SolveStatus.MAX_ITERS, point)
