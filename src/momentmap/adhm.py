"""Deformed ADHM equations: data model, residuals, solver, and the
stabilizer certificate.

ADHM data of size ``(N, k)`` consists of ``alpha, beta`` acting on the
N-dimensional framing fibre, ``a`` mapping the k-dimensional fibre in
(``N x k``) and ``b`` mapping out (``k x N``).  The two moment equations are

    mu_C  =  [alpha, beta] + a b                      (complex equation)
    mu_R  =  [alpha^dagger, alpha] + [beta^dagger, beta]
             + b^dagger b - a a^dagger - eta Id       (real equation),

the deformed system being ``mu_C = 0, mu_R = 0`` with ``eta != 0``.  The data
embeds as a representation of a two-vertex quiver (two loops at vertex 1,
``k`` arrow pairs to and from vertex 2) whose King residual at vertex 1 is
exactly ``mu_R``; the vertex-2 residual is then automatic by the trace
identity ``tr(mu_R + eta Id) = tr(b^dagger b) - tr(a a^dagger)``.

The deformed system is solved from a seeded random start in two phases;
positive ``eta`` forces ``b`` over ``a`` in the rank-1 case.  Adaptive
Barzilai-Borwein gradient descent with a nonmonotone
(Grippo-Lampariello-Lucidi) backtracking line search lowers the merged
least-squares objective ``|mu_C|_F^2 + |mu_R|_F^2`` below
``NEWTON_SWITCH eta^2``.  The line search is
:func:`momentmap.solver._backtrack`, the one backtracking loop that the King
flow's step kinds share.  Newton steps built from the moment-map structure
then finish the solve: a minimal-norm Gauss-Newton step on the holomorphic
equation ``mu_C = 0``, then a Newton step on ``mu_R = 0`` along the
complexified gauge orbit, which preserves ``mu_C`` to first order (King,
Quart. J. Math. 45 (1994); Nakajima, Lectures on Hilbert Schemes of Points
on Surfaces, 1999).  Both ``N^2 x N^2`` normal matrices are sums of
Kronecker products of ``N x N`` blocks, assembled in closed form.
Both phases work on one packed vector: ``alpha, beta`` are one
``(2, N, N)`` view of it, so each moment evaluation, gradient and step takes
stacked products.
Nondegeneracy of a solution is certified by :func:`stabilizer_dimension`,
the real nullity of the linearized U(N)-action.  Minus the matrix of the
Newton real step has the eigenvalues ``2 sigma^2``, ``sigma`` the singular
values of that action, so a Cholesky factorization of it, shifted by a
rounding bound, proves the nullity 0 without an SVD; the SVD runs only when the
factorization fails (Higham, *Accuracy and Stability of Numerical
Algorithms*, Thm 10.3).
"""

from __future__ import annotations

import json
import logging
from collections import deque
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .checks import check_int, check_real, load_json_object
from .errors import ConsistencyError, SolverError, ValidationError
from .linalg import as_complex_matrix, hermitian_basis, sup_norm
from .quiver import Arrow, Quiver, matrix_from_json, matrix_to_json
from .solver import SolveOptions, _backtrack

__all__ = [
    "ADHMData",
    "ADHMResiduals",
    "build_adhm_quiver",
    "adhm_residuals",
    "solve_adhm",
    "stabilizer_dimension",
    "adhm_to_json",
    "adhm_from_json",
]

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class ADHMData:
    """Matrices ``(alpha, beta, a, b)`` of size ``(N, k)``.

    Attributes
    ----------
    N, k : int
        Framing dimension and instanton number, both >= 1.
    alpha, beta : ndarray
        ``N x N`` complex matrices.
    a : ndarray
        ``N x k`` complex matrix (columns map the small fibre in).
    b : ndarray
        ``k x N`` complex matrix (rows map out to the small fibre).
    """

    N: int
    k: int
    alpha: np.ndarray
    beta: np.ndarray
    a: np.ndarray
    b: np.ndarray

    def __post_init__(self) -> None:
        n, k = check_int("N", self.N, 1), check_int("k", self.k, 1)
        object.__setattr__(self, "N", n)
        object.__setattr__(self, "k", k)
        for name, mat, shape in (
            ("alpha", self.alpha, (n, n)),
            ("beta", self.beta, (n, n)),
            ("a", self.a, (n, k)),
            ("b", self.b, (k, n)),
        ):
            m = as_complex_matrix(mat, name=name)
            if m.shape != shape:
                raise ValidationError(f"{name}: shape {m.shape} != expected {shape}")
            object.__setattr__(self, name, m)


@dataclass(frozen=True)
class ADHMResiduals:
    """Residual matrices of the two moment equations with scalar summaries.

    Attributes
    ----------
    mu_c : ndarray
        ``[alpha, beta] + a b``.
    mu_r : ndarray
        ``[alpha^dagger, alpha] + [beta^dagger, beta] + b^dagger b
        - a a^dagger - eta Id`` (Hermitian).
    sup_c, sup_r : float
        Operator norms of the residuals.
    trace_defect : float
        ``|tr(mu_r + eta Id) - (tr(b^dagger b) - tr(a a^dagger))|`` computed
        along two independent routes; vanishes identically because commutator
        traces cancel.
    """

    mu_c: np.ndarray
    mu_r: np.ndarray
    sup_c: float
    sup_r: float
    trace_defect: float


def build_adhm_quiver(k: int) -> Quiver:
    """Two-vertex quiver with loops ``alpha, beta`` at vertex ``"1"`` and
    ``k`` arrow pairs ``a_i: 2 -> 1``, ``b_i: 1 -> 2``.

    Raises
    ------
    ValidationError
        If ``k < 1``.
    """
    k = check_int("k", k, 1)
    arrows = [Arrow("alpha", "1", "1"), Arrow("beta", "1", "1")]
    arrows += [Arrow(f"a{i}", "2", "1") for i in range(1, k + 1)]
    arrows += [Arrow(f"b{i}", "1", "2") for i in range(1, k + 1)]
    return Quiver(("1", "2"), tuple(arrows))


def _moments(mats, adj, eta_id: np.ndarray):
    """Both moment maps of the blocks ``mats = [alpha, beta, a, b]``, given
    their conjugate transposes ``adj`` and ``eta_id = eta Id``."""
    al, be, a, b = mats
    al_h, be_h, a_h, b_h = adj
    mu_c = al @ be - be @ al + a @ b
    mu_r = (
        al_h @ al
        - al @ al_h
        + be_h @ be
        - be @ be_h
        + b_h @ b
        - a @ a_h
        - eta_id
    )
    return mu_c, mu_r


def adhm_residuals(d: ADHMData, eta: float) -> ADHMResiduals:
    """Evaluate both moment equations at the given data.

    With ``eta = 0`` this reproduces the undeformed system.  The returned
    ``mu_r`` is checked Hermitian and the trace identity is verified along
    two routes; a violation (impossible short of numerical catastrophe)
    raises :class:`ConsistencyError`.
    """
    if not isinstance(d, ADHMData):
        raise ValidationError(f"expected ADHMData, got {type(d).__name__}")
    eta = check_real("eta", eta)
    mats = [d.alpha, d.beta, d.a, d.b]
    mu_c, mu_r = _moments(mats, [m.conj().T for m in mats], eta * np.eye(d.N))

    sup_r = sup_norm(mu_r)
    herm_defect = sup_norm(mu_r - mu_r.conj().T)
    if herm_defect > 1e-12 * max(1.0, sup_r):
        raise ConsistencyError(
            f"real residual lost Hermiticity (defect {herm_defect:.3e})"
        )
    route_a = float(np.trace(mu_r).real) + eta * d.N
    route_b = float((np.trace(d.b.conj().T @ d.b) - np.trace(d.a @ d.a.conj().T)).real)
    trace_defect = abs(route_a - route_b)
    scale = max(1.0, abs(route_a), abs(route_b))
    if trace_defect > 1e-12 * scale:
        raise ConsistencyError(
            f"trace identity violated: {route_a!r} vs {route_b!r}"
        )
    return ADHMResiduals(
        mu_c=mu_c,
        mu_r=mu_r,
        sup_c=sup_norm(mu_c),
        sup_r=sup_r,
        trace_defect=trace_defect,
    )


def _pack(mats) -> np.ndarray:
    return np.concatenate([m.ravel() for m in mats])


#: Memory of the nonmonotone line search in :func:`_descend` (Grippo,
#: Lampariello and Lucidi, SIAM J. Numer. Anal. 23 (1986); Raydan, SIAM J.
#: Optim. 7 (1997)): a trial is tested against the largest of the last
#: ``GLL_MEMORY`` accepted values.
GLL_MEMORY = 10

#: Adaptive Barzilai-Borwein switch of :func:`_descend` (Zhou, Gao and Dai,
#: Comput. Optim. Appl. 35 (2006)): the short step is taken when it is below
#: ``ABB_KAPPA`` times the long one.
ABB_KAPPA = 0.5

#: Relative margin on ``tol`` in the Frobenius bound of :func:`_descend`,
#: far above the rounding of either norm.
_FROBENIUS_MARGIN = 1e-6

#: Merged objective, in units of ``eta^2``, below which :func:`_descend`
#: leaves the descent for Newton steps.  The unit makes the switch
#: scale-free: ``x -> |eta|^(1/2) x`` maps the system at ``eta / |eta|`` to
#: the one at ``eta`` and multiplies the objective by ``eta^2``.
NEWTON_SWITCH = 0.1

#: Newton steps in one phase of :func:`_descend` before it returns to the
#: descent.
NEWTON_STEPS = 5

#: After a Newton phase that fails, the next one starts only once the
#: descent has lowered the objective by this factor.
NEWTON_RETRY = 1e-2


def _fused_moments(x: np.ndarray, k: int, eta_id: np.ndarray):
    """Both moment maps at the packed vector ``x = [alpha, beta, a, b]``,
    unchecked.  Returns ``(X, XH, a, b, mu_c, mu_r)``: ``X`` is the
    ``(2, N, N)`` view ``[alpha, beta]`` of ``x``, ``XH`` its blockwise
    conjugate transpose, ``a`` and ``b`` views of ``x``.  The commutator is
    ``X[0] X[1] - X[1] X[0]`` from the one product ``X @ X[::-1]``, and the
    two loop terms of ``mu_r`` are the two blocks of ``XH @ X - X @ XH``."""
    n = len(eta_id)
    split = 2 * n * n
    X = x[:split].reshape(2, n, n)
    a = x[split : split + n * k].reshape(n, k)
    b = x[split + n * k :].reshape(k, n)
    XH = X.conj().transpose(0, 2, 1)
    comm = X @ X[::-1]
    loops = XH @ X - X @ XH
    mu_c = comm[0] - comm[1] + a @ b
    mu_r = loops[0] + loops[1] + b.conj().T @ b - a @ a.conj().T - eta_id
    return X, XH, a, b, mu_c, mu_r


def _adjoint_c(XH, a, b, y) -> np.ndarray:
    """Adjoint of the linearized complex moment map at ``y``, packed like
    ``x``: ``J_C^dagger(y) = (y beta^dagger - beta^dagger y,
    alpha^dagger y - y alpha^dagger, y b^dagger, a^dagger y)``.  The loop
    blocks come from the stack ``W = [beta^dagger, alpha^dagger]`` as
    ``[y, W]`` with the second block negated."""
    n, k = a.shape
    split = 2 * n * n
    out = np.empty(split + 2 * n * k, dtype=complex)
    G = out[:split].reshape(2, n, n)
    W = XH[::-1]
    np.subtract(y @ W, W @ y, out=G)
    G[1] *= -1.0
    out[split : split + n * k] = (y @ b.conj().T).ravel()
    out[split + n * k :] = (a.conj().T @ y).ravel()
    return out


def _gauge(X, a, b, s) -> np.ndarray:
    """Infinitesimal action ``s.x = ([s, alpha], [s, beta], s a, -b s)`` of
    ``s`` in gl(N), packed like ``x``."""
    return _pack([s @ X - X @ s, s @ a, -(b @ s)])


def _fused_gradient(parts) -> np.ndarray:
    """Conjugate-coordinate gradient of the merged objective at the output
    ``parts`` of :func:`_fused_moments`, packed like ``x``.

    The first-order expansion is ``df = 2 Re sum tr(G_x^dagger dx)`` over the
    four matrix blocks, so ``-G`` is the steepest-descent direction:

        G = J_C^dagger(mu_c) - 2 mu_r.x,

    that is ``G_alpha = [mu_c, beta^dagger] + 2 [alpha, mu_r]``,
    ``G_beta = [alpha^dagger, mu_c] + 2 [beta, mu_r]``,
    ``G_a = mu_c b^dagger - 2 mu_r a`` and ``G_b = a^dagger mu_c + 2 b mu_r``
    (:func:`_adjoint_c`, :func:`_gauge`)."""
    X, XH, a, b, mu_c, mu_r = parts
    g = _adjoint_c(XH, a, b, mu_c)
    g -= 2.0 * _gauge(X, a, b, mu_r)
    return g


def _kron_sum(left, right) -> np.ndarray:
    """``sum_i left[i] (x) right[i]`` over two stacks of ``n x n`` blocks, by
    one matmul.  In row-major coordinates ``vec(A Y B) = (A (x) B^T) vec(Y)``,
    so the operator ``Y -> sum_i A_i Y B_i`` takes ``right[i] = B_i^T``."""
    m, n, _ = left.shape
    prod = left.reshape(m, n * n).T @ right.reshape(m, n * n)
    return prod.reshape(n, n, n, n).transpose(0, 2, 1, 3).reshape(n * n, n * n)


def _complex_normal(X, XH, a, b) -> np.ndarray:
    """Matrix of ``J_C J_C^dagger`` on gl(N):

        y -> P y + y Q - sum_{m in alpha, beta} (m y m^dagger + m^dagger y m)

    with ``P = alpha alpha^dagger + beta beta^dagger + a a^dagger`` and
    ``Q = alpha^dagger alpha + beta^dagger beta + b^dagger b``."""
    eye = np.eye(len(a))
    P = (X @ XH).sum(axis=0) + a @ a.conj().T
    Q = (XH @ X).sum(axis=0) + b.conj().T @ b
    XT = X.transpose(0, 2, 1)
    left = np.concatenate([[P, eye], -X, -XH])
    right = np.concatenate([[eye, Q.T], X.conj(), XT])
    return _kron_sum(left, right)


def _real_normal(X, XH, a, b) -> np.ndarray:
    """Matrix of ``L``, the real moment map linearized along the gauge
    action, ``L(s) = d mu_R (s.x)``:

        s -> sum_{m in alpha, beta} (2 m^dagger s m + 2 m s m^dagger) - {R, s}

    with ``R = sum_m (m^dagger m + m m^dagger) + b^dagger b + a a^dagger``.
    On Hermitian ``s``, ``Re tr(s L(s)) = -2 |s.x|^2``, so ``L`` is
    invertible wherever the stabilizer is trivial, and it commutes with the
    conjugate transpose."""
    eye = np.eye(len(a))
    R = (XH @ X + X @ XH).sum(axis=0) + b.conj().T @ b + a @ a.conj().T
    XT = X.transpose(0, 2, 1)
    left = np.concatenate([2.0 * XH, 2.0 * X, [-R, -eye]])
    right = np.concatenate([XT, X.conj(), [eye, R.T]])
    return _kron_sum(left, right)


def _newton_step(x, parts, k: int, eta_id: np.ndarray) -> np.ndarray:
    """One Newton step from the packed ``x`` with :func:`_fused_moments`
    output ``parts``: the complex step ``x - J_C^dagger(y)`` with
    ``J_C J_C^dagger y = mu_C``, then at that point the real step
    ``x + s.x`` with ``L s = -mu_R``.  The solution ``s`` is solved for over
    all of gl(N) and is Hermitian because ``L`` commutes with the conjugate
    transpose.  Raises ``LinAlgError`` on a singular normal matrix."""
    n = len(eta_id)
    X, XH, a, b, mu_c, _ = parts
    y = np.linalg.solve(_complex_normal(X, XH, a, b), mu_c.ravel())
    x = x - _adjoint_c(XH, a, b, y.reshape(n, n))
    X, XH, a, b, _, mu_r = _fused_moments(x, k, eta_id)
    s = np.linalg.solve(_real_normal(X, XH, a, b), -mu_r.ravel())
    return x + _gauge(X, a, b, s.reshape(n, n))


def _solve_once(
    N: int, k: int, eta: float, rng: np.random.Generator, opts: SolveOptions
):
    """One gradient-descent run from a random start on the packed blocks
    ``[alpha, beta, a, b]``; returns ``(data, residuals)`` on success, or
    ``(None, best)`` on stall.  Only the returned solution is validated.

    The run takes the two residual sup norms (two SVDs) only at iterates
    that can pass the ``tol`` test: an ``N x N`` matrix has
    ``|A|_2 >= |A|_F / sqrt(N)``, so an iterate with
    ``|mu|_F^2 > N (tol (1 + 1e-6))^2`` for either residual cannot, and the
    objective already holds both Frobenius sums.  The best residual pair is
    read only on a stall, so a stalled run is replayed from the same start
    with both sup norms taken at every iterate; the replay follows the same
    iterates and reports the pair a tracked run would."""

    def rand(shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    scale = max(1.0, abs(eta)) ** 0.5
    shapes = ((N, N), (N, N), (N, k), (k, N))
    start = _pack([0.5 * scale * rand(shape) for shape in shapes])
    eta_id = eta * np.eye(N)

    parts, best = _descend(start, k, eta_id, opts, track=False)
    if parts is None:
        parts, best = _descend(start, k, eta_id, opts, track=True)
    if parts is None:
        return None, best
    X, _, a, b = parts[:4]
    d = ADHMData(N, k, X[0], X[1], a, b)
    return d, adhm_residuals(d, eta)


def _descend(x, k: int, eta_id: np.ndarray, opts: SolveOptions, track: bool):
    """Adaptive Barzilai-Borwein gradient descent with a nonmonotone
    backtracking line search from the packed start ``x``, finished by Newton
    steps.

    Each descent iteration tries the ABB step: with ``s = x - x_prev``,
    ``y = g - g_prev`` and ``sy = Re<s, y> > 0``, the short step
    ``sy / |y|^2`` when it is below ``ABB_KAPPA`` times the long step
    ``|s|^2 / sy``, else the long step; ``1 / max(1, |g|)`` when
    ``sy <= 0`` and on the first iteration.  The line search is
    :func:`momentmap.solver._backtrack`: a trial ``x - alpha g`` is accepted
    when its value is at most the largest of the last ``GLL_MEMORY``
    accepted values minus ``2 ARMIJO_C alpha |g|^2``, and ``alpha`` shrinks
    by ``BACKTRACK`` down to ``1e-18`` until it is.

    Once the objective is below ``NEWTON_SWITCH eta^2``, iterations are Newton
    steps (:func:`_newton_step`).  A step is kept when it lowers the
    objective.  The phase ends at a singular normal matrix, a step not kept,
    or ``NEWTON_STEPS`` steps without reaching ``tol``; the descent then
    resumes from the current iterate with a fresh step history, and the
    next phase waits until the objective is below ``NEWTON_RETRY`` times its
    value there.  Every Newton step counts as one of ``opts.max_iters``
    iterations.

    Returns ``(parts, best)``: the :func:`_fused_moments` output at the
    first iterate whose residual sup norms are both at most ``opts.tol``
    (``None`` on a stall) and, with ``track``, the best residual pair seen
    (else ``None``).  Without ``track`` the sup norms are taken only where
    the Frobenius bound of :func:`_solve_once` allows the ``tol`` test to
    pass."""
    bound = len(eta_id) * (opts.tol * (1.0 + _FROBENIUS_MARGIN)) ** 2

    def evaluate(vec):
        parts = _fused_moments(vec, k, eta_id)
        mu_c, mu_r = parts[4:]
        fc2 = np.vdot(mu_c, mu_c).real
        fr2 = np.vdot(mu_r, mu_r).real
        return float(fc2 + fr2), fc2 <= bound and fr2 <= bound, parts

    value, may_pass, parts = evaluate(x)
    g = _fused_gradient(parts)
    recent = deque([value], maxlen=GLL_MEMORY)
    best = (sup_norm(parts[4]), sup_norm(parts[5])) if track else None
    x_prev = g_prev = None
    switch = NEWTON_SWITCH * eta_id[0, 0] ** 2  # eta_id = eta Id
    newton_steps = 0

    for _ in range(opts.max_iters):
        if track or may_pass:
            sup_c, sup_r = sup_norm(parts[4]), sup_norm(parts[5])
            if track and max(sup_c, sup_r) < max(best):
                best = (sup_c, sup_r)
            if sup_c <= opts.tol and sup_r <= opts.tol:
                return parts, best

        if value < switch:
            newton_steps += 1
            try:
                point = _newton_step(x, parts, k, eta_id)
            except np.linalg.LinAlgError:
                point = None
            evaluated = None if point is None else evaluate(point)
            kept = evaluated is not None and evaluated[0] < value
            if kept:
                x, (value, may_pass, parts) = point, evaluated
            if not kept or newton_steps == NEWTON_STEPS:
                switch = NEWTON_RETRY * value
                newton_steps = 0
                recent = deque([value], maxlen=GLL_MEMORY)
                x_prev = g_prev = None
                g = _fused_gradient(parts)
            continue

        gnorm2 = float(np.vdot(g, g).real)
        if gnorm2 == 0.0:
            break
        alpha = 1.0 / max(1.0, gnorm2**0.5)
        if x_prev is not None:
            dx = x - x_prev
            dg = g - g_prev
            sy = float(np.vdot(dx, dg).real)
            if sy > 0:
                long_step = float(np.vdot(dx, dx).real) / sy
                short_step = sy / float(np.vdot(dg, dg).real)
                alpha = short_step if short_step < ABB_KAPPA * long_step else long_step

        def trial(step):
            point = x - step * g
            evaluated = evaluate(point)
            return (point, evaluated), evaluated[0]

        accepted = _backtrack(trial, alpha, max(recent), -2.0 * gnorm2, 1e-18)
        if accepted is None:
            break
        x_prev, g_prev = x, g
        (x, (value, may_pass, parts)), _ = accepted
        recent.append(value)
        g = _fused_gradient(parts)
    return None, best


def solve_adhm(
    N: int,
    k: int,
    eta: float,
    seed: int = 0,
    opts: Optional[SolveOptions] = None,
) -> ADHMData:
    """Solve the deformed system ``mu_C = 0, mu_R = 0`` with ``eta != 0``.

    Minimizes the merged objective ``|mu_C|_F^2 + |mu_R|_F^2`` from a seeded
    random start (restarting from fresh draws if a run stalls) until both
    residual sup norms fall below ``opts.tol``: adaptive Barzilai-Borwein
    gradient descent with a nonmonotone backtracking line search, then, from
    an objective below ``NEWTON_SWITCH eta^2``, Newton steps that solve the
    complex equation and, along the complexified gauge orbit, the real one
    (see :func:`_descend`).  ``opts.max_iters`` bounds the descent
    iterations and Newton steps of each start together.  The returned data
    is re-verified through :func:`adhm_residuals`.

    Raises
    ------
    ValidationError
        If ``eta = 0`` — the undeformed problem is King's equation for the
        embedded quiver representation and belongs to the metric solver,
        whose output must then be checked for nondegeneracy separately.
    SolverError
        If no run converges within ``opts.max_iters``; carries in
        ``details`` the residual pair of all starts with the smallest
        ``max(sup_c, sup_r)``, the key each run ranks its iterates by.
    """
    N, k = check_int("N", N, 1), check_int("k", k, 1)
    eta = check_real("eta", eta)
    if eta == 0.0:
        raise ValidationError(
            "eta = 0 is the undeformed system: solve it as King's equation "
            "via solve_metric on the embedded quiver representation and "
            "check stabilizer_dimension on the result"
        )
    if opts is None:
        opts = SolveOptions()
    rng = np.random.default_rng(seed)
    best = (np.inf, np.inf)
    restarts = 5
    for attempt in range(restarts):
        data, outcome = _solve_once(N, k, eta, rng, opts)
        if data is not None:
            logger.info(
                "deformed system solved: N=%d k=%d eta=%g attempt=%d", N, k, eta, attempt
            )
            return data
        best = min(best, outcome, key=max)
    raise SolverError(
        f"no convergence to tol={opts.tol} within {opts.max_iters} iterations "
        f"({restarts} starts)",
        details={"best_sup_c": best[0], "best_sup_r": best[1]},
    )


def stabilizer_dimension(d: ADHMData) -> int:
    """Real dimension of the Lie-algebra stabilizer of the data under U(N).

    The linearized action sends an anti-Hermitian ``u`` to
    ``([u, alpha], [u, beta], u a, -b u)``; the stabilizer dimension is the
    real nullity of this map, counted as its singular values below ``1e-9``
    of the largest (:func:`_svd_stabilizer_dimension`).  Zero certifies a
    free U(N)-action at the data.  The SVD runs only when the Cholesky
    certificate :func:`_certified_free` fails; when it succeeds, the count
    is 0 without it.
    """
    if not isinstance(d, ADHMData):
        raise ValidationError(f"expected ADHMData, got {type(d).__name__}")
    if _certified_free(d):
        return 0
    return _svd_stabilizer_dimension(d)


def _svd_stabilizer_dimension(d: ADHMData) -> int:
    """Singular values of :func:`_action_matrix` below ``1e-9`` of the
    largest; ``N^2`` for an all-zero matrix."""
    m = _action_matrix(d)
    if not np.any(m):
        return d.N * d.N
    sigma = np.linalg.svd(m, compute_uv=False)
    return int(np.sum(sigma < 1e-9 * sigma[0]))


def _certified_free(d: ADHMData) -> bool:
    """Whether a Cholesky factorization proves that the SVD count of
    :func:`_svd_stabilizer_dimension` is 0.

    Let ``A`` be :func:`_action_matrix`, whose columns are the images of an
    orthonormal basis ``i h_j`` of u(N), and ``sigma`` its singular values.
    On Hermitian ``h``, ``|h.x| = |(i h).x|`` since the action is complex
    linear, and ``Re tr(h L(h)) = -2 |h.x|^2`` (:func:`_real_normal`), so on
    the real span of the ``h_j`` the operator ``G = -L`` is ``2 A^T A``.
    ``L`` commutes with the conjugate transpose, so on gl(N), the
    complexification of that span, ``G`` is Hermitian with the ``n = N^2``
    eigenvalues ``2 sigma^2``.  The chain, with ``u`` the unit roundoff:

    1. ``G`` is assembled by :func:`_kron_sum` from Kronecker factors whose
       Frobenius norms, products summed, are at most
       ``S = 4 (1 + sqrt(N)) |x|_F^2`` for the data
       ``x = (alpha, beta, a, b)``, and ``lambda_max(G) <= |G|_2 <= S``.
       Each entry is a sum of such products rounded through fewer than
       ``N + k + 16`` operations, so the computed Hermitian part ``G^`` has
       ``|G^ - G|_2 <= 2 (N + k + 16) u S`` (the 2 absorbs complex
       arithmetic), and ``|G^|_2 <= 1.01 S``.
    2. If Cholesky of ``G^ - tau I`` runs to completion, its backward error
       (Higham, *Accuracy and Stability of Numerical Algorithms*, 2nd ed.,
       Thm 10.3 and the norm bound after it, doubled for complex arithmetic)
       makes ``G^ - tau I + E`` positive definite with
       ``|E|_2 <= 2 n (n + 1) u |G^ - tau I|_2``.
    3. With ``tau = 4 (n (n + 1) + N + k + 16) u S``, steps 1 and 2 and
       Weyl's inequality give ``lambda_min(G) > tau - |E|_2 - |G^ - G|_2 >
       0.49 tau``, so ``sigma_min^2 / sigma_max^2 > 0.49 tau / S`` and
       ``sigma_min / sigma_max > 6e-8``.
    4. The SVD of the computed action matrix moves each singular value by
       at most ``p u sigma_max`` for a modest ``p``, far below ``5e-8``, so
       every computed singular value stays above ``1e-9`` of the largest:
       the SVD count is 0.

    On data with a nontrivial stabilizer ``G`` is singular, Cholesky fails
    and the SVD decides.  ``S`` bounds the Kronecker factors, not ``|L|``,
    because the assembly cancels: a scalar part of ``alpha`` drops out of
    ``L`` exactly while its rounding does not.
    """
    N, k = d.N, d.k
    n = N * N
    X = np.stack([d.alpha, d.beta])
    L = _real_normal(X, X.conj().transpose(0, 2, 1), d.a, d.b)
    scale = 4.0 * (1.0 + N**0.5) * sum(
        np.vdot(m, m).real for m in (d.alpha, d.beta, d.a, d.b)
    )
    tau = 4.0 * (n * (n + 1) + N + k + 16) * (np.finfo(float).eps / 2) * scale
    try:
        np.linalg.cholesky(-0.5 * (L + L.conj().T) - tau * np.eye(n))
    except np.linalg.LinAlgError:
        return False
    return True


def _action_matrix(d: ADHMData) -> np.ndarray:
    """Real matrix of the linearized action: column ``j`` holds the real, then
    the imaginary parts of the image of ``u = 1j * hermitian_basis(N)[j]``,
    packed as ``([u, alpha], [u, beta], u a, -b u)``."""
    n = d.N
    u = 1j * hermitian_basis(n)[:, None]
    x = np.stack([d.alpha, d.beta])
    image = np.concatenate(
        [part.reshape(n * n, -1) for part in (u @ x - x @ u, u @ d.a, -d.b @ u)], axis=1
    )
    return np.concatenate([image.real, image.imag], axis=1).T


def adhm_to_json(d: ADHMData, eta: float) -> str:
    """Serialize data and deformation parameter to the problem JSON form."""
    obj = {
        "N": d.N,
        "k": d.k,
        "eta": float(eta),
        "alpha": matrix_to_json(d.alpha),
        "beta": matrix_to_json(d.beta),
        "a": matrix_to_json(d.a),
        "b": matrix_to_json(d.b),
    }
    return json.dumps(obj, sort_keys=True)


def adhm_from_json(text: str):
    """Parse the problem JSON form; returns ``(ADHMData, eta)``."""
    obj = load_json_object(text, ("N", "k", "eta", "alpha", "beta", "a", "b"))
    n, k = check_int("N", obj["N"], 1), check_int("k", obj["k"], 1)
    data = ADHMData(
        n,
        k,
        matrix_from_json(obj["alpha"], (n, n), name="alpha"),
        matrix_from_json(obj["beta"], (n, n), name="beta"),
        matrix_from_json(obj["a"], (n, k), name="a"),
        matrix_from_json(obj["b"], (k, n), name="b"),
    )
    return data, check_real("eta", obj["eta"])
