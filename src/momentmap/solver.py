"""Kempf-Ness metric flow: minimize the functional over metric families
``h_v = exp(s_v)`` and report a solution metric or a divergence certificate.

The driver runs Armijo-backtracked steepest descent with a safeguarded
Barzilai-Borwein initial step, switching to Tikhonov-damped Newton once the
residual is small.  Its four step kinds -- the main step, the Newton rescue,
the descent probe and the residual polish -- share one line search,
:func:`_line_search`, which caps the trial step at ``STEP_CAP`` and shrinks
it in :func:`_backtrack`, the package's one backtracking loop.  Three
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
* Steepest descent can stall while strict progress is still available (linear
  descent valleys flanked by exponentially steep walls); a damped-Newton
  rescue step suppresses the wall components before a stall is terminal.

Each point is decomposed once: the functional at a trial reads its
:func:`~momentmap.moment._eigenpairs`, which the gradient, metric and
Hessian reuse if a line search accepts that trial (the last one it
evaluated).  Family sup norms take one stacked SVD per shape.

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
    hermitian_basis, hermitian_exp, hermitian_part, sup_norm,
)
from .moment import (
    KahlerData, _eigenpairs, _gradient_block, _kempf_ness_gradient, _kempf_ness_value,
    _king_residual, _spectra, _weights, zero_displacement,
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

    ``s`` is normalized to unit operator norm and its eigenvalues are pooled
    across vertices; the split is taken below the midpoint of the largest gap
    in the pooled spectrum (below the median eigenvalue if all gaps agree to
    1e-9).  Requires ``max_v ||s_v|| >= 1``; a failed eigendecomposition is
    a :class:`NumericError`.
    """
    eta = validate_eta(rep.quiver, eta)
    norm = _family_sup(s)
    if norm < 1.0:
        raise ValidationError("extract_destabilizer: displacement has ||s|| < 1")
    sigma = {v: np.asarray(s[v]) / norm for v in rep.quiver.vertices}

    eigen = {}
    pooled = []
    for v in rep.quiver.vertices:
        if sigma[v].size == 0:
            eigen[v] = (np.zeros(0), np.zeros((0, 0), dtype=np.complex128))
            continue
        w, u = _eigh(hermitian_part(sigma[v]))
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


def _finite_difference_hessian(rep, s, eta, weights, scale, base=None):
    """Hessian of the functional in the orthonormal Hermitian product basis:
    central differences ``(G(s + eps b) - G(s - eps b)) / (2 eps)``, with
    ``eps = 1e-4 * scale``, symmetrised.

    The spectra at ``s`` are ``base`` or computed once.  The columns of a vertex
    ``v`` are taken in chunks of ``max(1, 1024 // d_v**2)`` basis directions
    ``b``.  Per chunk, one stacked eigh over ``s_v + eps b`` and
    ``-(s_v + eps b)`` gives the + side's spectra, and stacked products its
    gradient blocks at ``v`` and its neighbours; only then is the - side
    decomposed, by a second stacked eigh.  Blocks of vertices not adjacent to
    ``v`` subtract to ``0.0`` and are left at zero.  Each slice goes through
    the same LAPACK/BLAS call or elementwise operation as the per-column loop
    that re-evaluates the full gradient, so the result is bitwise equal to it.
    """
    q = rep.quiver
    eps = 1e-4 * scale
    ends = np.cumsum([rep.dims[v] ** 2 for v in q.vertices])
    rows = {v: slice(e - rep.dims[v] ** 2, e) for v, e in zip(q.vertices, ends)}
    base = _spectra(_eigenpairs(s)) if base is None else base
    hess = np.zeros((ends[-1], ends[-1]))

    def blocks(v, near, sv):
        spectra = {**base, **_spectra(_eigenpairs({v: sv}))}
        return [_gradient_block(rep, x, spectra, eta, weights) for x in near]

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


def _newton_direction(rep, s, eta, weights, grad, residual, base=None):
    """Damped Newton step in basis coordinates; None if not a descent direction."""
    vertices = rep.quiver.vertices
    if not any(rep.dims[v] for v in vertices):
        return None, 0.0
    scale = max(1.0, _family_sup(s))
    hess = _finite_difference_hessian(rep, s, eta, weights, scale, base)
    lam = max(1e-10, residual)
    gvec = np.concatenate([_hermitian_coords(grad[v]) for v in vertices])
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


def _refine_by_residual(rep, s, eta, weights, opts, residual, metric, direction):
    """Endgame polish: damped Newton steps accepted iff the King residual
    strictly decreases.

    Near the minimum the functional's decrease per step falls below its own
    floating-point resolution long before the residual reaches ``tol``, so
    Armijo-on-functional cannot certify the final contractions; the residual
    itself is the reliable progress measure there.  Each step goes along the
    damped Newton direction, or steepest descent where that is not a descent
    direction; ``direction`` is the first one, when the caller already holds
    it (``None`` computes it here).  A trial's :func:`_spectra` give its
    metric and, once it is accepted, the gradient and Hessian there.
    """
    best_s, best_res, best_metric = s, residual, metric
    spectra = trial = None

    def king_sup(point):
        nonlocal trial
        trial = _spectra(_eigenpairs(point))
        return _king_residual(rep, {v: trial[v][0][0] for v in point}, eta, weights).sup

    for _ in range(60):
        if best_res <= opts.tol:
            break
        if direction is None:
            grad = _kempf_ness_gradient(rep, best_s, eta, weights, spectra)
            direction, _ = _newton_direction(rep, best_s, eta, weights, grad, best_res, spectra)
            if direction is None:
                direction = {v: -grad[v] for v in rep.quiver.vertices}
        step = _line_search(king_sup, best_s, direction, 1.0, best_res, 0.0, 1e-8, strict=True)
        if step is None:
            break
        # the accepted trial is the last one evaluated
        (best_s, best_res), spectra = step, trial
        best_metric = {v: spectra[v][0][0] for v in best_s}
        direction = None
    return best_s, best_res, best_metric


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


def _line_search(evaluate, s, direction, alpha, reference, deriv, floor=1e-16, strict=False):
    """:func:`_backtrack` over the trials ``_hermitian_part(s + a direction)``
    valued by ``evaluate``, from ``alpha`` capped to a step of sup norm
    ``STEP_CAP`` (``np.inf`` asks for that full length).  The cap bounds step
    length, not ``alpha``: along escaping directions the gradient decays
    exponentially while Barzilai-Borwein ``alpha`` grows to compensate.  A
    zero direction takes no step."""
    dir_sup = _family_sup(direction)
    if dir_sup == 0.0:
        return None
    alpha = float(min(alpha, STEP_CAP / dir_sup))

    def trial(a):
        point = {v: _hermitian_part(s[v] + a * direction[v]) for v in direction}
        return point, evaluate(point)

    return _backtrack(trial, alpha, reference, deriv, floor, strict)


def _descent_probe(vertices, s, value, grad, functional):
    """Distinguish a genuine minimum from an escaping valley at a stall.

    Attempt a strict Armijo steepest-descent step whose *trial length* is
    ``STEP_CAP`` regardless of the gradient's magnitude.  Near a minimum no
    order-one step can decrease the functional, so every trial is rejected
    down to the stationarity scale and the probe returns ``None``; along an
    escaping valley the functional keeps decaying at full step length, the
    trial is accepted, and the caller should keep flowing.  ``value`` is the
    functional at ``s``.
    """
    direction = {v: -grad[v] for v in vertices}
    dir_sup = _family_sup(direction)
    if dir_sup == 0.0:
        return None
    floor = STATIONARY_STEP * max(1.0, _family_sup(s)) / dir_sup
    deriv = -_family_inner(grad, grad)
    return _line_search(functional, s, direction, np.inf, value, deriv, floor, strict=True)


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
    vertices = [v for v in rep.quiver.vertices]

    s = zero_displacement(rep)
    last = (None, None)  # the point last evaluated, with its eigenpairs

    def eigenpairs(point):
        nonlocal last
        if last[0] is not point:
            last = (point, _eigenpairs(point))
        return last[1]

    def functional(point):
        return _kempf_ness_value(rep, point, eta, weights, eigenpairs(point))

    def gradient_and_metric(point):
        spectra = _spectra(eigenpairs(point))
        grad = _kempf_ness_gradient(rep, point, eta, weights, spectra)
        return grad, {v: spectra[v][0][0] for v in vertices}, spectra

    try:
        value = functional(s)
        grad, metric, spectra = gradient_and_metric(s)
    except MomentMapError as exc:
        raise SolverError("initial evaluation failed", {"iteration": 0}) from exc
    if not np.isfinite(value):
        raise SolverError("non-finite functional", {"iteration": 0})
    residual = _king_residual(rep, metric, eta, weights).sup
    history = [HistoryRecord(0, value, residual)]

    def finish(status, res, met, cert=None):
        return SolveOutcome(
            status=status,
            metric=met if status is SolveStatus.CONVERGED else None,
            history=history,
            final_sup=res,
            certificate=cert,
        )

    if residual <= opts.tol:
        # Already a solution at h = Id; gradient and residual agree at s = 0.
        return finish(SolveStatus.CONVERGED, residual, metric)

    prev_s = None
    prev_grad = None
    force_descent = False

    for iteration in range(1, opts.max_iters + 1):
        gnorm2 = _family_inner(grad, grad)
        if gnorm2 <= 0.0:
            # An exactly zero gradient marks a critical point, that is a
            # solution, and no probe can move from there; the re-evaluated
            # residual decides whether it is one to ``tol``.
            if residual <= opts.tol:
                return finish(SolveStatus.CONVERGED, residual, metric)
            return finish(SolveStatus.MAX_ITERS, residual, metric)

        # --- choose a direction
        probe = force_descent
        force_descent = False
        use_newton = residual < NEWTON_SWITCH_TOL and not probe
        direction = None
        deriv = None
        # the damped Newton step at s, computed at most once per iteration
        newton = None
        if use_newton:
            newton = _newton_direction(rep, s, eta, weights, grad, residual, spectra)
            direction, deriv = newton
            if direction is None:
                use_newton = False
        if direction is None:
            direction = {v: -grad[v] for v in vertices}
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
        elif prev_s is not None:
            ds = {v: s[v] - prev_s[v] for v in vertices}
            dg = {v: grad[v] - prev_grad[v] for v in vertices}
            num = _family_inner(ds, dg)
            den = _family_inner(dg, dg)
            alpha = num / den if (den > 0 and num > 0) else 1.0 / max(1.0, _family_sup(grad))
        else:
            alpha = 1.0 / max(1.0, _family_sup(grad))

        step = _line_search(functional, s, direction, alpha, value, deriv)
        accepted = step is not None
        if accepted:
            new_s, new_value = step
        if not accepted or not new_value < value:
            # Steepest descent can stall with strict progress still available:
            # near-flat valleys flanked by exponentially steep walls reject
            # every trial once any wall component enters the direction.  The
            # damped Newton direction suppresses wall components, so try it
            # as a rescue before concluding anything.
            if not use_newton:
                if newton is None:
                    newton = _newton_direction(rep, s, eta, weights, grad, residual, spectra)
                r_dir, r_deriv = newton
                if r_dir is not None:
                    step = _line_search(functional, s, r_dir, 1.0, value, r_deriv)
                    if step is not None and step[1] < value:
                        new_s, new_value = step
                        accepted = True
        if not accepted or not new_value < value:
            # The functional's decrease per step has fallen below its own
            # floating-point resolution.  Polish the residual if needed, then
            # separate a genuine minimum from an escaping flat valley (where
            # the residual also decays) with one full-length descent trial.
            if residual >= NEWTON_SWITCH_TOL:
                logger.debug("line search stalled at iteration %d", iteration)
                return finish(SolveStatus.MAX_ITERS, residual, metric)
            refined = residual > opts.tol
            if refined:
                first = newton[0]
                if first is None:
                    first = {v: -grad[v] for v in vertices}
                s, residual, metric = _refine_by_residual(
                    rep, s, eta, weights, opts, residual, metric, first
                )
                try:
                    value = functional(s)
                except MomentMapError as exc:
                    raise SolverError(
                        "functional evaluation failed", {"iteration": iteration}
                    ) from exc
                if residual > opts.tol:
                    logger.debug("refinement stalled at iteration %d", iteration)
                    history.append(HistoryRecord(iteration, value, residual))
                    return finish(SolveStatus.MAX_ITERS, residual, metric)
                try:
                    grad, _, spectra = gradient_and_metric(s)
                except MomentMapError as exc:
                    raise SolverError(
                        "gradient evaluation failed", {"iteration": iteration}
                    ) from exc
            probe_step = _descent_probe(vertices, s, value, grad, functional)
            if probe_step is None:
                if refined:
                    # Refinement moved the iterate after the last logged
                    # record; log the state actually being returned.
                    history.append(HistoryRecord(iteration, value, residual))
                return finish(SolveStatus.CONVERGED, residual, metric)
            new_s, new_value = probe_step
            accepted = True

        prev_s, prev_grad = s, grad
        s, value = new_s, new_value
        try:
            grad, metric, spectra = gradient_and_metric(s)
        except MomentMapError as exc:
            raise SolverError(
                "gradient evaluation failed", {"iteration": iteration}
            ) from exc
        residual = _king_residual(rep, metric, eta, weights).sup
        history.append(HistoryRecord(iteration, value, residual))

        # --- termination checks: escape first, then stationarity
        s_sup = _family_sup(s)
        if s_sup > DIVERGENCE_NORM:
            cert = extract_destabilizer(s, rep, eta)
            return finish(SolveStatus.DIVERGED, residual, metric, cert)
        if residual <= opts.tol and _family_sup(
            {v: s[v] - prev_s[v] for v in vertices}
        ) <= STATIONARY_STEP * max(1.0, s_sup):
            # A tiny step certifies stationarity only when it survived a
            # full-length descent probe; damped Newton and BB steps can be
            # tiny along escaping valleys too.  Otherwise schedule a probe.
            if probe:
                return finish(SolveStatus.CONVERGED, residual, metric)
            force_descent = True

    return finish(SolveStatus.MAX_ITERS, residual, metric)
