"""King's equation residual, the Kempf-Ness functional, and Hamiltonian
reformulations of the moment-map condition on quiver representations.

Conventions
-----------
Arrow matrices act on column vectors, ``T_a: E_{s(a)} -> E_{t(a)}``; the gauge
group acts on the left, ``T_a -> g_{t(a)} T_a g_{s(a)}^{-1}``, and its Lie
algebra acts by ``[A, u]_a = u_{t(a)} A_a - A_a u_{s(a)}``.  Metric adjoints
use ``T^{*h} = h_src^{-1} T^dagger h_dst``.  The per-vertex residual is

    mu_v  =  sum_{s(a)=v} w_a T_a^{*h} T_a  -  sum_{t(a)=v} w_a T_a T_a^{*h}
             -  eta_v Id,

whose zero set (over positive-definite metric families ``h_v = exp(s_v)``) is
the moment-map equation.  The Kempf-Ness functional

    D(s)  =  sum_a w_a tr(h_{s(a)}^{-1} T_a^dagger h_{t(a)} T_a)
             +  sum_v eta_v tr(s_v)

has gradient zero exactly at metrics where every ``mu_v`` vanishes (for the
trace pairing on Hermitian ``s``); its eta-term sign is fixed by that
criticality requirement.  Both, and the metric ``exp(s)``, are read off one
stacked eigh per vertex dimension (:func:`_eigenpairs`), whose eigenvalues
halved give ``exp(+-s_v/2)`` bitwise: LAPACK's eigh commutes with halving.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

import numpy as np

from .checks import check_keys, check_real
from .errors import ValidationError
from .linalg import (
    _eigh,
    _exp_from_eigh,
    _frechet_apply,
    _frechet_kernel,
    _hermitian_part,
    _max_sup_norm,
    _metric_adjoint,
    as_complex_matrix,
    as_hermitian,
    as_positive_definite,
    hermitian_exp,  # unused here but stays importable from this module
    sup_norm,
)
from .quiver import Quiver, Representation, validate_eta

__all__ = [
    "KahlerData",
    "MomentResidual",
    "identity_metric",
    "zero_displacement",
    "king_residual",
    "kempf_ness_value",
    "kempf_ness_gradient",
    "gauge_variation",
    "hamiltonian_trivial",
    "hamiltonian_projector",
    "poisson_bracket_check",
]


@dataclass(frozen=True)
class KahlerData:
    """Per-arrow positive weights ``w_a`` defining the Kahler pairing
    ``omega_0(B, conj C) = sum_a w_a tr(B_a C_a^dagger)``."""

    weights: Mapping[str, float]

    @staticmethod
    def ones(quiver: Quiver) -> "KahlerData":
        """Unit weights for every arrow (the default pairing)."""
        return KahlerData({a.name: 1.0 for a in quiver.arrows})


def _weights(quiver: Quiver, kahler: Optional[KahlerData]) -> dict[str, float]:
    names = [a.name for a in quiver.arrows]
    if kahler is None:
        return {name: 1.0 for name in names}
    weights = check_keys("weights", kahler.weights, names)
    return {
        name: check_real(f"weight for arrow {name!r}", weights[name], positive=True)
        for name in names
    }


def _check_vertex_family(
    rep: Representation, fam: Mapping[str, np.ndarray], name: str
) -> dict[str, np.ndarray]:
    """Validate a per-vertex square-matrix family against the dimension vector."""
    check_keys(name, fam, rep.quiver.vertices)
    out = {}
    for v in rep.quiver.vertices:
        m = as_complex_matrix(fam[v], name=f"{name}[{v!r}]")
        d = rep.dims[v]
        if m.shape != (d, d):
            raise ValidationError(
                f"{name}[{v!r}]: shape {m.shape} != expected {(d, d)}"
            )
        out[v] = m
    return out


def identity_metric(rep: Representation) -> dict[str, np.ndarray]:
    """Identity metric family for a representation's dimension vector."""
    return {v: np.eye(rep.dims[v], dtype=np.complex128) for v in rep.quiver.vertices}


def zero_displacement(rep: Representation) -> dict[str, np.ndarray]:
    """Zero logarithmic-metric family (``h = exp(0) = Id``)."""
    return {v: np.zeros((rep.dims[v], rep.dims[v]), dtype=np.complex128) for v in rep.quiver.vertices}


@dataclass(frozen=True)
class MomentResidual:
    """Per-vertex residual blocks with their scalar summaries.

    Attributes
    ----------
    blocks : dict
        Vertex -> residual matrix ``mu_v`` (self-adjoint for the metric
        ``h_v``, so its spectrum is real).
    sup : float
        Largest operator norm among the blocks.
    trace_sum : float
        ``sum_v Re tr(mu_v)``; equals ``-sum_v eta_v dim_v`` identically, so it
        vanishes for slope-balanced stability parameters.
    """

    blocks: Mapping[str, np.ndarray]
    sup: float
    trace_sum: float


def king_residual(
    rep: Representation,
    metric: Mapping[str, np.ndarray],
    eta: Mapping[str, float],
    kahler: Optional[KahlerData] = None,
) -> MomentResidual:
    """Evaluate the per-vertex moment-map residual at a metric family.

    ``metric[v]`` must be positive-definite of size ``dims[v]``.  The residual
    transforms equivariantly under unitary gauge (``mu -> g mu g^dagger`` when
    ``T -> g_t T g_s^dagger`` and ``h -> g h g^dagger``), and scales linearly
    when weights and eta are scaled together.
    """
    q = rep.quiver
    w = _weights(q, kahler)
    eta = validate_eta(q, eta)
    return _king_residual(rep, _check_metric(rep, metric), eta, w)


def _check_metric(rep: Representation, metric: Mapping[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Validate a per-vertex Hermitian positive-definite family."""
    fam = _check_vertex_family(rep, metric, "metric")
    return {v: as_positive_definite(fam[v], name=f"metric[{v!r}]") for v in fam}


def _king_residual(rep, h, eta, w) -> MomentResidual:
    """Unchecked kernel of :func:`king_residual`: ``h`` holds Hermitian
    positive-definite blocks of the right sizes, ``eta`` and the weights ``w``
    are validated.  Positivity is not re-checked: for ``h = exp(s)`` it holds
    by construction, though ``eigvalsh`` can return a non-positive eigenvalue
    once ``exp(s)`` is numerically indefinite."""
    q = rep.quiver
    blocks = {
        v: -eta[v] * np.eye(rep.dims[v], dtype=np.complex128) for v in q.vertices
    }
    for a in q.arrows:
        t = rep.matrices[a.name]
        if t.size == 0:
            continue
        adj = _metric_adjoint(t, h[a.src], h[a.dst])
        blocks[a.src] = blocks[a.src] + w[a.name] * (adj @ t)
        blocks[a.dst] = blocks[a.dst] - w[a.name] * (t @ adj)
    sup = _max_sup_norm(blocks.values())
    trace_sum = float(sum(np.trace(b).real for b in blocks.values()))
    return MomentResidual(blocks=blocks, sup=sup, trace_sum=trace_sum)


def _check_displacement(rep: Representation, s: Mapping[str, np.ndarray]) -> dict[str, np.ndarray]:
    fam = _check_vertex_family(rep, s, "displacement")
    return {v: as_hermitian(fam[v], name=f"displacement[{v!r}]") for v in fam}


def kempf_ness_value(
    rep: Representation,
    s: Mapping[str, np.ndarray],
    eta: Mapping[str, float],
    kahler: Optional[KahlerData] = None,
) -> float:
    """Kempf-Ness functional at the metric family ``h_v = exp(s_v)``.

    Evaluated stably as ``sum_a w_a || exp(s_t/2) T_a exp(-s_s/2) ||_F^2
    + sum_v eta_v tr(s_v)``.
    """
    q = rep.quiver
    w = _weights(q, kahler)
    eta = validate_eta(q, eta)
    return _kempf_ness_value(rep, _check_displacement(rep, s), eta, w)


def _eigenpairs(s) -> list:
    """``(vs, w, u)`` per matrix shape in the family ``s``, from one stacked
    :func:`_eigh` over ``[[s_v for v in vs], [-s_v for v in vs]]``; ``-s_v``
    is decomposed, since on degenerate spectra its eigenvectors are not
    those of ``s_v``."""
    out = []
    for shape in dict.fromkeys(m.shape for m in s.values()):
        vs = [v for v, m in s.items() if m.shape == shape]
        stack = np.stack([s[v] for v in vs])
        out.append((vs, *_eigh(np.stack([stack, -stack]))))
    return out


def _kempf_ness_value(rep, s, eta, w, eig=None) -> float:
    """Unchecked kernel of :func:`kempf_ness_value`: ``s`` holds Hermitian
    blocks of the right sizes, ``eta`` and the weights ``w`` are validated;
    ``eig`` are the :func:`_eigenpairs` of ``s`` (computed when not given)."""
    half = {}
    for vs, ev, u in _eigenpairs(s) if eig is None else eig:
        e = _exp_from_eigh(0.5 * ev, u)
        half.update((v, (e[0][i], e[1][i])) for i, v in enumerate(vs))
    total = 0.0
    for a in rep.quiver.arrows:
        t = rep.matrices[a.name]
        if t.size == 0:
            continue
        m = half[a.dst][0] @ t @ half[a.src][1]
        total += w[a.name] * float(np.linalg.norm(m) ** 2)
    for v in rep.quiver.vertices:
        total += eta[v] * float(np.trace(s[v]).real)
    return total


def kempf_ness_gradient(
    rep: Representation,
    s: Mapping[str, np.ndarray],
    eta: Mapping[str, float],
    kahler: Optional[KahlerData] = None,
) -> dict[str, np.ndarray]:
    """Gradient of :func:`kempf_ness_value` for the pairing ``Re tr(G X)``.

    Per vertex,

        G_v = Dexp_{s_v}[P_v] - Dexp_{-s_v}[Q_v] + eta_v Id,

    with the positive-semidefinite accumulations ``P_v = sum_{t(a)=v} w_a T_a
    exp(-s_{s(a)}) T_a^dagger`` and ``Q_v = sum_{s(a)=v} w_a T_a^dagger
    exp(s_{t(a)}) T_a``, and ``Dexp`` the directional derivative of the matrix
    exponential.  ``G_v = 0`` for all v exactly when the residual of
    :func:`king_residual` vanishes at ``h = exp(s)``.
    """
    q = rep.quiver
    w = _weights(q, kahler)
    eta = validate_eta(q, eta)
    return _kempf_ness_gradient(rep, _check_displacement(rep, s), eta, w)


def _kempf_ness_gradient(rep, s, eta, w, spectra=None) -> dict[str, np.ndarray]:
    """Unchecked kernel of :func:`kempf_ness_gradient`, with the inputs of
    :func:`_kempf_ness_value`; ``spectra`` are the :func:`_spectra` at ``s``."""
    spectra = _spectra(_eigenpairs(s)) if spectra is None else spectra
    return {v: _gradient_block(rep, v, spectra, eta, w) for v in rep.quiver.vertices}


def _spectra(eig) -> dict:
    """Vertex -> ``((exp(s_v), u, kernel), (exp(-s_v), u, kernel))``, with
    the eigenvectors ``u`` and Frechet kernels of ``+-s_v``, from the
    :func:`_eigenpairs` ``eig`` of ``s``."""
    out = {}
    for vs, w, u in eig:
        e, k = _exp_from_eigh(w, u), _frechet_kernel(w)
        for i, v in enumerate(vs):
            out[v] = tuple((e[j][i], u[j][i], k[j][i]) for j in (0, 1))
    return out


def _gradient_block(rep, v, spectra, eta, w) -> np.ndarray:
    """Block ``G_v`` of :func:`kempf_ness_gradient` from the :func:`_spectra`
    of ``v`` and of its neighbours; arrows are summed in quiver order.  Where
    some of those spectra are stacks (one vertex perturbed along several
    directions), the block is the stack of blocks."""
    d = rep.dims[v]
    if d == 0:
        return np.zeros((0, 0), dtype=np.complex128)
    p = np.zeros((d, d), dtype=np.complex128)
    qv = np.zeros((d, d), dtype=np.complex128)
    for a in rep.quiver.arrows:
        t = rep.matrices[a.name]
        if t.size == 0:
            continue
        if a.dst == v:
            p = p + w[a.name] * (t @ spectra[a.src][1][0] @ t.conj().T)
        if a.src == v:
            qv = qv + w[a.name] * (t.conj().T @ spectra[a.dst][0][0] @ t)
    (_, u_pos, k_pos), (_, u_neg, k_neg) = spectra[v]
    g = (
        _frechet_apply(u_pos, k_pos, _hermitian_part(p))
        - _frechet_apply(u_neg, k_neg, _hermitian_part(qv))
        + eta[v] * np.eye(d, dtype=np.complex128)
    )
    return _hermitian_part(g)


def _check_gauge_directions(
    rep: Representation,
    u: Mapping[str, np.ndarray],
    name: str = "u",
    metric: Optional[Mapping[str, np.ndarray]] = None,
) -> dict[str, np.ndarray]:
    """Validate a per-vertex family in the gauge Lie algebra of ``metric``
    (validated, default the identity): ``h_v u_v`` anti-Hermitian.

    This is the Lie algebra of the unitary group of the metric family; for
    the identity metric it consists of the anti-Hermitian matrices.
    """
    fam = _check_vertex_family(rep, u, name)
    for v, m in fam.items():
        if m.size == 0:
            continue
        hu = m if metric is None else metric[v] @ m
        defect = sup_norm(hu + hu.conj().T)
        if defect > 1e-12 * max(1.0, sup_norm(hu)):
            raise ValidationError(
                f"{name}[{v!r}]: not anti-self-adjoint for the metric (defect {defect:.3e})"
            )
    return fam


def gauge_variation(rep: Representation, u: Mapping[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Infinitesimal gauge action on arrow matrices:
    ``[A, u]_a = u_{t(a)} A_a - A_a u_{s(a)}``."""
    return _gauge_variation(rep, _check_gauge_directions(rep, u))


def _gauge_variation(rep: Representation, u: Mapping[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Unchecked kernel of :func:`gauge_variation`."""
    out = {}
    for a in rep.quiver.arrows:
        t = rep.matrices[a.name]
        out[a.name] = u[a.dst] @ t - t @ u[a.src]
    return out


def _hamiltonian_core(rep: Representation, weights, eta, u) -> float:
    """Shared Hamiltonian kernel:
    ``-sum_v eta_v Im tr(u_v) + 1/2 Im sum_a w_a tr(A_a ([A,u]_a)^dagger)``."""
    total = 0.0
    for v in rep.quiver.vertices:
        m = u[v]
        if m.size:
            total -= eta[v] * float(np.trace(m).imag)
    var = _gauge_variation(rep, u)
    for a in rep.quiver.arrows:
        t = rep.matrices[a.name]
        if t.size == 0:
            continue
        total += 0.5 * weights[a.name] * float(np.trace(t @ var[a.name].conj().T).imag)
    return total


def hamiltonian_trivial(
    u: Mapping[str, np.ndarray],
    rep: Representation,
    eta: Mapping[str, float],
    kahler: Optional[KahlerData] = None,
) -> float:
    """Hamiltonian of the gauge direction ``u`` on the trivial-metric phase
    space:

        H_u(A) = -sum_v eta_v Im tr(u_v)
                 + 1/2 Im sum_a w_a tr(A_a ([A, u]_a)^dagger).

    ``u`` must be anti-Hermitian per vertex; the value is real by construction.
    """
    q = rep.quiver
    w = _weights(q, kahler)
    eta = validate_eta(q, eta)
    u = _check_gauge_directions(rep, u)
    return _hamiltonian_core(rep, w, eta, u)


def hamiltonian_projector(
    u: Mapping[str, np.ndarray],
    ambient: Representation,
    projector: Mapping[str, np.ndarray],
    eta: Mapping[str, float],
    kahler: Optional[KahlerData] = None,
) -> float:
    """Hamiltonian on a projector-cut subbundle of a trivial ambient bundle.

    ``projector[v]`` must be a Hermitian idempotent in the ambient fiber;
    arrow matrices must satisfy ``X_a = P_{t(a)} X_a P_{s(a)}`` and gauge
    directions ``u_v = P_v u_v P_v`` (all checked to 1e-12 relative).  For
    quiver data the canonical-connection terms drop out and the value reduces
    to the same kernel as :func:`hamiltonian_trivial` on the compressed data;
    with ``P = Id`` the two functions agree identically.
    """
    q = ambient.quiver
    w = _weights(q, kahler)
    eta = validate_eta(q, eta)
    u = _check_gauge_directions(ambient, u)
    proj = _check_vertex_family(ambient, projector, "projector")
    for v, p in proj.items():
        if p.size == 0:
            continue
        scale = max(1.0, sup_norm(p))
        if sup_norm(p - p.conj().T) > 1e-12 * scale:
            raise ValidationError(f"projector[{v!r}] is not Hermitian")
        if sup_norm(p @ p - p) > 1e-12 * scale:
            raise ValidationError(f"projector[{v!r}] is not idempotent")
        if sup_norm(u[v] - p @ u[v] @ p) > 1e-12 * max(1.0, sup_norm(u[v])):
            raise ValidationError(f"u[{v!r}] is not supported on the projector image")
    for a in q.arrows:
        x = ambient.matrices[a.name]
        if x.size == 0:
            continue
        if sup_norm(x - proj[a.dst] @ x @ proj[a.src]) > 1e-12 * max(1.0, sup_norm(x)):
            raise ValidationError(
                f"arrow {a.name!r} is not supported between the projector images"
            )
    return _hamiltonian_core(ambient, w, eta, u)


def poisson_bracket_check(
    u1: Mapping[str, np.ndarray],
    u2: Mapping[str, np.ndarray],
    rep: Representation,
    eta: Mapping[str, float],
    kahler: Optional[KahlerData] = None,
) -> tuple[float, float]:
    """Evaluate both sides of the Poisson-bracket identity at ``rep``.

    Returns ``(lhs, rhs)`` where ``lhs = Im sum_a w_a tr(V1_a V2_a^dagger)``
    pairs the two Hamiltonian vector fields ``Vi = [A, ui]`` through the
    symplectic form, and ``rhs`` is the Hamiltonian of the vertex-wise bracket
    ``u2 u1 - u1 u2``.  The bracket is reversed relative to the row-vector
    formulation because transposing to column conventions is an
    anti-isomorphism of the gauge Lie algebra; the two numbers must agree to
    1e-10 for the identity to hold, which is what callers test.
    """
    q = rep.quiver
    w = _weights(q, kahler)
    eta = validate_eta(q, eta)
    u1 = _check_gauge_directions(rep, u1, "u1")
    u2 = _check_gauge_directions(rep, u2, "u2")
    v1 = _gauge_variation(rep, u1)
    v2 = _gauge_variation(rep, u2)
    lhs = 0.0
    for a in q.arrows:
        if v1[a.name].size == 0:
            continue
        lhs += w[a.name] * float(np.trace(v1[a.name] @ v2[a.name].conj().T).imag)
    bracket = {v: u2[v] @ u1[v] - u1[v] @ u2[v] for v in q.vertices}
    rhs = _hamiltonian_core(rep, w, eta, bracket)
    return lhs, rhs
