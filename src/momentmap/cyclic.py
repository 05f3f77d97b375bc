"""Cyclic-functional reconstruction of the moment-map Hamiltonian.

The quiver path algebra sits inside a graded bimodule

    B  =  A  (+)  Omega  (+)  conj(Omega),

where ``A`` is the commutative algebra of vertex functions (spanned by the
vertex idempotents ``pi_v``), ``Omega`` carries one coordinate per arrow, and
``conj(Omega)`` carries the conjugate coordinate per arrow.  A representation
with a positive metric family turns every component of ``B`` into a concrete
operator between vertex fibres: ``pi_v`` acts as the identity on fibre ``v``,
the arrow coordinate acts by the arrow matrix ``T_a``, and the conjugate
coordinate acts by the metric adjoint ``T_a^{*h}``.

For a gauge direction ``u`` (anti-self-adjoint for the metric on every
fibre) the closed-chain trace :func:`trace_C3` records, for every composable
closed triple of components, the number

    trace( op(c3) @ op(c2) @ op(c1) @ u_{left(c1)} ),

stored in a dense order-3 coefficient cube over the component basis.  The
cyclic functional :func:`xi_evaluate` contracts such a cube with a sparse
weight rule determined by the stability parameters and arrow weights:

* ``(pi_v, pi_v, pi_v)`` carries weight ``2 eta_v`` (mixed vertex triples
  vanish because distinct idempotents multiply to zero);
* ``(alpha_a, conj(alpha_a), pi_{src})`` and its two cyclic placements carry
  weight ``-w_a``;
* ``(conj(alpha_a), alpha_a, pi_{dst})`` and its two cyclic placements carry
  weight ``+w_a``.

The scaled value ``(i/2) * Xi`` is real for genuine gauge directions and
reproduces the moment-map Hamiltonian computed directly from the matrix data
(:func:`momentmap.moment.hamiltonian_trivial` for the identity metric, and
the projector-compressed form for any metric); :func:`universal_hamiltonian`
performs that evaluation and enforces the reality cross-check.

The weight rule is only well defined because the functional is blind to how
tensor factors are re-associated across the ``A``-action: moving a vertex
function ``g`` across a tensor sign must not change the value.  The
:func:`xi_welldefinedness_probe` driver samples random instances of every
such re-association relation (seven families covering each admissible slot
pattern in degrees 0 and 1) and reports the largest deviation.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Mapping, Optional, Tuple

import numpy as np

from .checks import check_int, check_keys
from .errors import ConsistencyError, ValidationError
from .linalg import _metric_adjoint
from .moment import (
    KahlerData,
    _check_gauge_directions,
    _check_metric,
    _weights,
    identity_metric,
)
from .quiver import Arrow, Quiver, Representation, validate_eta

__all__ = [
    "CyclicComponent",
    "cyclic_basis",
    "BElement",
    "TripleTensor",
    "ConnectionData",
    "trace_C3",
    "xi_evaluate",
    "universal_hamiltonian",
    "xi_welldefinedness_probe",
]

#: Absolute bound on the imaginary part tolerated by the reality cross-check
#: inside :func:`universal_hamiltonian`.
REALITY_TOL = 1e-10

@dataclass(frozen=True)
class CyclicComponent:
    """One basis component of the graded bimodule.

    Attributes
    ----------
    kind : str
        ``"vertex"`` (idempotent ``pi_v``), ``"arrow"`` (coordinate of an
        arrow), or ``"arrowbar"`` (conjugate coordinate of an arrow).
    label : str
        Vertex name for ``"vertex"`` components, arrow name otherwise.
    left, right : str
        Vertices through which vertex functions act on the left and right.
        An arrow component has ``left = src`` and ``right = dst``; its
        conjugate swaps them.  Under a representation the component becomes
        an operator from fibre ``left`` to fibre ``right``.
    """

    kind: str
    label: str
    left: str
    right: str


def cyclic_basis(quiver: Quiver) -> Tuple[CyclicComponent, ...]:
    """Component basis of the bimodule: vertex idempotents, then arrow
    coordinates, then conjugate arrow coordinates, in quiver order."""
    comps = [CyclicComponent("vertex", v, v, v) for v in quiver.vertices]
    comps += [CyclicComponent("arrow", a.name, a.src, a.dst) for a in quiver.arrows]
    comps += [CyclicComponent("arrowbar", a.name, a.dst, a.src) for a in quiver.arrows]
    return tuple(comps)


def _check_values(values: Mapping[str, complex], keys, name: str) -> dict[str, complex]:
    """Finite complex coefficients over ``keys`` (missing keys are 0)."""
    if not isinstance(values, Mapping):
        raise ValidationError(f"{name} must be a mapping, got {values!r}")
    keys = tuple(keys)
    if set(values) - set(keys):
        raise ValidationError(
            f"{name} has unknown keys {sorted(set(values) - set(keys), key=repr)}"
        )
    out = {}
    for k in keys:
        z = values.get(k, 0.0)
        if not isinstance(z, numbers.Complex) or isinstance(z, (bool, np.bool_)):
            raise ValidationError(f"{name}[{k!r}] must be a number, got {z!r}")
        try:
            z = complex(z)
        except OverflowError:
            z = complex(math.inf)
        if not (math.isfinite(z.real) and math.isfinite(z.imag)):
            raise ValidationError(f"{name}[{k!r}] is not finite: {z}")
        out[k] = z
    return out


def _check_vertex_scalars(quiver: Quiver, f: Mapping[str, complex]) -> dict[str, complex]:
    """A vertex function: a finite complex coefficient at every vertex."""
    return _check_values(check_keys("f", f, quiver.vertices), quiver.vertices, "f")


@dataclass(frozen=True)
class BElement:
    """Element of the graded bimodule with scalar coordinates per component.

    ``vertex_part`` assigns a coefficient to every vertex idempotent (a
    vertex function), ``arrow_part`` to every arrow coordinate, and
    ``arrowbar_part`` to every conjugate arrow coordinate.  Vertex functions
    multiply elements on either side; the action routes through the
    component's ``left`` / ``right`` vertex:

    * ``(f . b)``: vertex ``f[v] b[v]``, arrow ``f[src] b[a]``, conjugate
      arrow ``f[dst] b[a]``;
    * ``(b . f)``: vertex ``b[v] f[v]``, arrow ``b[a] f[dst]``, conjugate
      arrow ``b[a] f[src]``.

    Parameters
    ----------
    quiver : Quiver
        Underlying quiver.
    vertex_part, arrow_part, arrowbar_part : mapping
        Coefficient mappings; missing keys default to ``0`` and are filled
        in during validation.
    """

    quiver: Quiver
    vertex_part: Mapping[str, complex]
    arrow_part: Mapping[str, complex]
    arrowbar_part: Mapping[str, complex]

    def __post_init__(self) -> None:
        arrows = [a.name for a in self.quiver.arrows]
        object.__setattr__(
            self,
            "vertex_part",
            _check_values(self.vertex_part, self.quiver.vertices, "vertex_part"),
        )
        object.__setattr__(
            self, "arrow_part", _check_values(self.arrow_part, arrows, "arrow_part")
        )
        object.__setattr__(
            self,
            "arrowbar_part",
            _check_values(self.arrowbar_part, arrows, "arrowbar_part"),
        )

    @classmethod
    def zero(cls, quiver: Quiver) -> "BElement":
        """Zero element."""
        return cls(quiver, {}, {}, {})

    @classmethod
    def vertex_element(cls, quiver: Quiver, values: Mapping[str, complex]) -> "BElement":
        """Vertex function with the given coefficients (missing keys are 0)."""
        return cls(quiver, dict(values), {}, {})

    @classmethod
    def arrow_element(cls, quiver: Quiver, values: Mapping[str, complex]) -> "BElement":
        """Degree-(1,0) element with the given arrow coefficients."""
        return cls(quiver, {}, dict(values), {})

    @classmethod
    def arrowbar_element(cls, quiver: Quiver, values: Mapping[str, complex]) -> "BElement":
        """Degree-(0,1) element with the given conjugate-arrow coefficients."""
        return cls(quiver, {}, {}, dict(values))

    def component_value(self, comp: CyclicComponent) -> complex:
        """Coefficient of this element on a basis component."""
        if comp.kind == "vertex":
            return self.vertex_part[comp.label]
        if comp.kind == "arrow":
            return self.arrow_part[comp.label]
        if comp.kind == "arrowbar":
            return self.arrowbar_part[comp.label]
        raise ValidationError(f"unknown component kind {comp.kind!r}")

    def left_mul(self, f: Mapping[str, complex]) -> "BElement":
        """Multiply by the vertex function ``f`` on the left: ``f . b``."""
        f = _check_vertex_scalars(self.quiver, f)
        return BElement(
            self.quiver,
            {v: f[v] * z for v, z in self.vertex_part.items()},
            {a.name: f[a.src] * self.arrow_part[a.name] for a in self.quiver.arrows},
            {a.name: f[a.dst] * self.arrowbar_part[a.name] for a in self.quiver.arrows},
        )

    def right_mul(self, f: Mapping[str, complex]) -> "BElement":
        """Multiply by the vertex function ``f`` on the right: ``b . f``."""
        f = _check_vertex_scalars(self.quiver, f)
        return BElement(
            self.quiver,
            {v: z * f[v] for v, z in self.vertex_part.items()},
            {a.name: self.arrow_part[a.name] * f[a.dst] for a in self.quiver.arrows},
            {a.name: self.arrowbar_part[a.name] * f[a.src] for a in self.quiver.arrows},
        )


@dataclass(frozen=True)
class TripleTensor:
    """Dense order-3 coefficient cube over the component basis.

    ``cube[i, j, k]`` is the coefficient of ``c_i (x) c_j (x) c_k`` where
    ``c_i`` runs over :func:`cyclic_basis`.  Tensors produced by
    :func:`trace_C3` are supported on composable closed component triples
    (``right(c_i) = left(c_{i+1})`` cyclically); tensors built from outer
    products of elements may be supported anywhere.
    """

    quiver: Quiver
    components: Tuple[CyclicComponent, ...]
    cube: np.ndarray

    def __post_init__(self) -> None:
        expected = cyclic_basis(self.quiver)
        if tuple(self.components) != expected:
            raise ValidationError("components do not match the quiver's cyclic basis")
        n = len(expected)
        cube = np.asarray(self.cube, dtype=np.complex128)
        if cube.shape != (n, n, n):
            raise ValidationError(f"cube shape {cube.shape} != {(n, n, n)}")
        if not np.all(np.isfinite(cube)):
            raise ValidationError("cube contains non-finite entries")
        cube = cube.copy()
        cube.flags.writeable = False
        object.__setattr__(self, "components", expected)
        object.__setattr__(self, "cube", cube)
        object.__setattr__(
            self,
            "_index",
            {(c.kind, c.label): i for i, c in enumerate(expected)},
        )

    @classmethod
    def zero(cls, quiver: Quiver) -> "TripleTensor":
        """All-zero tensor."""
        n = len(cyclic_basis(quiver))
        return cls(quiver, cyclic_basis(quiver), np.zeros((n, n, n), dtype=np.complex128))

    @classmethod
    def outer(cls, b1: BElement, b2: BElement, b3: BElement) -> "TripleTensor":
        """Elementary tensor ``b1 (x) b2 (x) b3``."""
        if not (b1.quiver is b2.quiver is b3.quiver or b1.quiver == b2.quiver == b3.quiver):
            raise ValidationError("factors live over different quivers")
        comps = cyclic_basis(b1.quiver)
        vecs = [
            np.array([b.component_value(c) for c in comps], dtype=np.complex128)
            for b in (b1, b2, b3)
        ]
        cube = np.einsum("i,j,k->ijk", *vecs)
        return cls(b1.quiver, comps, cube)

    def index(self, kind: str, label: str) -> int:
        """Position of a component in the basis."""
        try:
            return self._index[(kind, label)]
        except KeyError:
            raise ValidationError(f"no component ({kind!r}, {label!r})") from None

    def coefficient(self, c1, c2, c3) -> complex:
        """Coefficient at a component triple given as ``(kind, label)`` pairs
        (or :class:`CyclicComponent` instances)."""
        ids = []
        for c in (c1, c2, c3):
            if isinstance(c, CyclicComponent):
                ids.append(self.index(c.kind, c.label))
            else:
                ids.append(self.index(*c))
        return complex(self.cube[ids[0], ids[1], ids[2]])

    def cycled(self) -> "TripleTensor":
        """Cyclic rotation ``b1 (x) b2 (x) b3 -> b2 (x) b3 (x) b1``."""
        return TripleTensor(
            self.quiver,
            self.components,
            np.ascontiguousarray(np.transpose(self.cube, (1, 2, 0))),
        )

    def __add__(self, other: "TripleTensor") -> "TripleTensor":
        if not isinstance(other, TripleTensor) or other.quiver != self.quiver:
            return NotImplemented
        return TripleTensor(self.quiver, self.components, self.cube + other.cube)

    def __sub__(self, other: "TripleTensor") -> "TripleTensor":
        if not isinstance(other, TripleTensor) or other.quiver != self.quiver:
            return NotImplemented
        return TripleTensor(self.quiver, self.components, self.cube - other.cube)


@dataclass(frozen=True)
class ConnectionData:
    """A representation together with a positive metric family.

    The metric determines how conjugate arrow coordinates act: the component
    of arrow ``a`` acts by ``T_a`` and its conjugate by the metric adjoint
    ``T_a^{*h} = h_src^{-1} T_a^dagger h_dst`` (precomputed in ``adjoints``).

    Parameters
    ----------
    rep : Representation
        Arrow matrices in column conventions.
    metric : mapping
        Vertex -> positive-definite Hermitian matrix of size ``dims[v]``.
    """

    rep: Representation
    metric: Mapping[str, np.ndarray]
    adjoints: Mapping[str, np.ndarray] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        h = _check_metric(self.rep, self.metric)
        adjoints = {}
        for a in self.rep.quiver.arrows:
            adjoints[a.name] = _metric_adjoint(self.rep.matrices[a.name], h[a.src], h[a.dst])
        object.__setattr__(self, "metric", h)
        object.__setattr__(self, "adjoints", adjoints)

    @classmethod
    def trivial(cls, rep: Representation) -> "ConnectionData":
        """Connection data for the identity metric."""
        return cls(rep, identity_metric(rep))


def trace_C3(u: Mapping[str, np.ndarray], c: ConnectionData) -> TripleTensor:
    """Closed-chain trace of a gauge direction against the connection.

    Applies ``u`` on the fibre where the chain starts and then the three
    component operators in slot order; the coefficient stored at
    ``(c1, c2, c3)`` is ``tr(op(c3) @ op(c2) @ op(c1) @ u_{left(c1)})``.
    Only composable closed triples (``right(c_i) = left(c_{i+1})``
    cyclically) receive coefficients.

    Parameters
    ----------
    u : mapping
        Vertex -> matrix, anti-self-adjoint for the connection's metric
        (``h_v u_v`` anti-Hermitian): exactly the domain on which the scaled
        cyclic functional is real.
    c : ConnectionData
        Representation, metric, and precomputed conjugate actions.

    Returns
    -------
    TripleTensor
    """
    rep = c.rep
    u = _check_gauge_directions(rep, u, metric=c.metric)
    comps = cyclic_basis(rep.quiver)
    ops = []
    for comp in comps:
        if comp.kind == "vertex":
            ops.append(np.eye(rep.dims[comp.label], dtype=np.complex128))
        elif comp.kind == "arrow":
            ops.append(rep.matrices[comp.label])
        else:
            ops.append(c.adjoints[comp.label])
    n = len(comps)
    cube = np.zeros((n, n, n), dtype=np.complex128)
    for i, ci in enumerate(comps):
        start = u[ci.left]
        if start.size == 0 or ops[i].size == 0:
            continue
        first = ops[i] @ start
        for j, cj in enumerate(comps):
            if cj.left != ci.right or ops[j].size == 0:
                continue
            second = ops[j] @ first
            for k, ck in enumerate(comps):
                if ck.left != cj.right or ck.right != ci.left or ops[k].size == 0:
                    continue
                cube[i, j, k] = np.trace(ops[k] @ second)
    return TripleTensor(rep.quiver, comps, cube)


def xi_evaluate(
    t: TripleTensor,
    eta: Mapping[str, float],
    kahler: Optional[KahlerData] = None,
) -> complex:
    """Contract a coefficient cube with the cyclic weight rule.

    The only component triples with nonzero weight are the vertex diagonal
    ``(pi_v, pi_v, pi_v)`` (weight ``2 eta_v``) and, for each arrow ``a``,
    the three cyclic placements of ``(alpha_a, conj(alpha_a), pi_src)``
    (weight ``-w_a``) and of ``(conj(alpha_a), alpha_a, pi_dst)``
    (weight ``+w_a``).

    Parameters
    ----------
    t : TripleTensor
        Coefficient cube.
    eta : mapping
        Vertex -> real stability parameter.
    kahler : KahlerData, optional
        Positive arrow weights; defaults to all ones.

    Returns
    -------
    complex
    """
    q = t.quiver
    w = _weights(q, kahler)
    eta = validate_eta(q, eta)
    cube = t.cube
    total = 0.0 + 0.0j
    for v in q.vertices:
        iv = t.index("vertex", v)
        total += 2.0 * eta[v] * cube[iv, iv, iv]
    for a in q.arrows:
        ia = t.index("arrow", a.name)
        ib = t.index("arrowbar", a.name)
        ivs = t.index("vertex", a.src)
        ivt = t.index("vertex", a.dst)
        wa = w[a.name]
        total -= wa * (cube[ia, ib, ivs] + cube[ivs, ia, ib] + cube[ib, ivs, ia])
        total += wa * (cube[ib, ia, ivt] + cube[ivt, ib, ia] + cube[ia, ivt, ib])
    return complex(total)


def universal_hamiltonian(
    u: Mapping[str, np.ndarray],
    c: ConnectionData,
    eta: Mapping[str, float],
    kahler: Optional[KahlerData] = None,
) -> float:
    """Moment-map Hamiltonian of a gauge direction via the cyclic functional.

    Evaluates ``(i/2) * Xi(trace_C3(u, c))``.  The value is real for genuine
    gauge directions; an imaginary part above ``REALITY_TOL`` indicates an
    internal inconsistency and raises :class:`ConsistencyError`.  The result
    agrees with the Hamiltonian computed directly from the matrix data and is
    additive in ``u`` over the real field.

    Returns
    -------
    float
    """
    t = trace_C3(u, c)
    value = 0.5j * xi_evaluate(t, eta, kahler)
    if abs(value.imag) > REALITY_TOL:
        raise ConsistencyError(
            f"cyclic Hamiltonian is not real: imaginary part {value.imag:.3e}"
        )
    return float(value.real)


def _default_probe_quiver() -> Quiver:
    """Three vertices with a loop, a parallel pair, and a directed cycle, so
    every relation family has nontrivial instances at every slot."""
    return Quiver(
        vertices=("x", "y", "z"),
        arrows=(
            Arrow("loop", "x", "x"),
            Arrow("a", "x", "y"),
            Arrow("b", "y", "z"),
            Arrow("c", "z", "x"),
            Arrow("d", "x", "y"),
        ),
    )


def xi_welldefinedness_probe(
    samples: int,
    seed: int = 0,
    quiver: Optional[Quiver] = None,
) -> float:
    """Largest deviation of the cyclic functional across re-association
    relations on random elementary tensors.

    The functional is defined on tensor products balanced over the vertex
    functions, so for every vertex function ``g`` the two placements

        (b1 . g) (x) b2 (x) b3   and   b1 (x) (g . b2) (x) b3

    (and likewise across the second tensor sign, for every admissible slot
    pattern in degrees 0 and 1) must evaluate identically.  Each sample draws
    random vertex functions ``f1, f2, f3, g``, a random degree-(1,0) element,
    a random degree-(0,1) element, random stability parameters and random
    positive arrow weights, and evaluates all seven relation families.

    Parameters
    ----------
    samples : int
        Number of random samples (0 returns 0.0).
    seed : int
        Random generator seed, an integer >= 0.
    quiver : Quiver, optional
        Quiver to probe; defaults to a three-vertex quiver with a loop, a
        parallel arrow pair, and a directed cycle.

    Returns
    -------
    float
        Maximum absolute deviation ``|Xi(left) - Xi(right)|`` observed.
    """
    samples = check_int("samples", samples, 0)
    rng = np.random.default_rng(check_int("seed", seed, 0))
    if quiver is None:
        quiver = _default_probe_quiver()

    def rand_scalars(keys):
        return {
            k: complex(rng.standard_normal(), rng.standard_normal()) for k in keys
        }

    arrow_names = [a.name for a in quiver.arrows]
    worst = 0.0
    for _ in range(samples):
        f1, f2, f3, g = (rand_scalars(quiver.vertices) for _ in range(4))
        F1 = BElement.vertex_element(quiver, f1)
        F2 = BElement.vertex_element(quiver, f2)
        F3 = BElement.vertex_element(quiver, f3)
        alpha = BElement.arrow_element(quiver, rand_scalars(arrow_names))
        albar = BElement.arrowbar_element(quiver, rand_scalars(arrow_names))
        eta = {v: float(rng.standard_normal()) for v in quiver.vertices}
        kahler = KahlerData({a: float(rng.uniform(0.5, 2.0)) for a in arrow_names})
        relations = (
            ((F1.right_mul(g), F2, F3), (F1, F2.left_mul(g), F3)),
            ((F1.right_mul(g), F2, alpha), (F1, F2.left_mul(g), alpha)),
            ((F1.right_mul(g), F2, albar), (F1, F2.left_mul(g), albar)),
            ((F1.right_mul(g), alpha, F3), (F1, alpha.left_mul(g), F3)),
            ((F1.right_mul(g), albar, F3), (F1, albar.left_mul(g), F3)),
            ((alpha.right_mul(g), F2, F3), (alpha, F2.left_mul(g), F3)),
            ((albar.right_mul(g), F2, F3), (albar, F2.left_mul(g), F3)),
        )
        for left, right in relations:
            lhs = xi_evaluate(TripleTensor.outer(*left), eta, kahler)
            rhs = xi_evaluate(TripleTensor.outer(*right), eta, kahler)
            worst = max(worst, abs(lhs - rhs))
    return worst
