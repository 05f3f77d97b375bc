"""Quiver model, representation containers, stability parameters, and the
JSON problem-file format.

A problem file is a JSON object::

    {
      "vertices": ["1", "2"],
      "arrows":   [{"id": "a", "src": "1", "dst": "2"}, ...],
      "dims":     {"1": 2, "2": 1},
      "eta":      {"1": 1.0, "2": -2.0},
      "rep":      {"a": [[[re, im], ...], ...], ...},     # optional
      "metric":   {"1": [[[re, im], ...], ...], ...}      # optional
    }

All matrices are row-major arrays of two-element ``[re, im]`` pairs.  An arrow
matrix for ``a: src -> dst`` has shape ``(dims[dst], dims[src])`` and acts on
column vectors.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field
from typing import Mapping, Optional

import numpy as np

from .checks import check_int
from .errors import ParseError, ValidationError
from .linalg import as_complex_matrix, as_positive_definite

__all__ = [
    "Arrow",
    "Quiver",
    "Representation",
    "ProblemInstance",
    "validate_dims",
    "validate_eta",
    "validate_slope",
    "parse_quiver_spec",
    "load_problem",
    "problem_to_json",
    "matrix_to_json",
    "matrix_from_json",
    "random_representation",
    "direct_sum",
]

logger = logging.getLogger(__name__)

#: Absolute tolerance on the slope constraint sum(eta_v * dim_v) = 0.
SLOPE_TOL = 1e-12


@dataclass(frozen=True)
class Arrow:
    """Oriented arrow ``name: src -> dst``; loops (src == dst) are allowed."""

    name: str
    src: str
    dst: str


@dataclass(frozen=True)
class Quiver:
    """Finite oriented multigraph with string vertex and arrow identifiers."""

    vertices: tuple[str, ...]
    arrows: tuple[Arrow, ...]

    def __post_init__(self):
        if len(set(self.vertices)) != len(self.vertices):
            raise ValidationError("duplicate vertex identifiers")
        names = [a.name for a in self.arrows]
        if len(set(names)) != len(names):
            raise ValidationError("duplicate arrow identifiers")
        vset = set(self.vertices)
        for a in self.arrows:
            if a.src not in vset or a.dst not in vset:
                raise ValidationError(
                    f"arrow {a.name!r}: endpoint not a vertex ({a.src!r} -> {a.dst!r})"
                )


def validate_dims(quiver: Quiver, dims: Mapping[str, int]) -> dict[str, int]:
    """Check that ``dims`` covers exactly the vertex set with integers >= 0."""
    if set(dims) != set(quiver.vertices):
        raise ValidationError(
            f"dimension vector keys {sorted(dims)} != vertices {sorted(quiver.vertices)}"
        )
    return {v: check_int(f"dimension at vertex {v!r}", dims[v], 0) for v in quiver.vertices}


def validate_eta(quiver: Quiver, eta: Mapping[str, float]) -> dict[str, float]:
    """Check that ``eta`` covers exactly the vertex set with finite reals."""
    if set(eta) != set(quiver.vertices):
        raise ValidationError(
            f"stability parameter keys {sorted(eta)} != vertices {sorted(quiver.vertices)}"
        )
    out = {}
    for v in quiver.vertices:
        x = float(eta[v])
        if not np.isfinite(x):
            raise ValidationError(f"stability parameter at vertex {v!r} is not finite")
        out[v] = x
    return out


def validate_slope(eta: Mapping[str, float], dims: Mapping[str, int]):
    """Enforce the slope constraint ``sum_v eta_v * dim_v = 0``.

    Returns
    -------
    (dict, float)
        The parameters unchanged and the computed sum.

    Raises
    ------
    ValidationError
        If the vertex sets differ or ``|sum| > 1e-12``.
    """
    if set(eta) != set(dims):
        raise ValidationError(
            f"stability/dimension vertex sets differ: {sorted(eta)} vs {sorted(dims)}"
        )
    total = float(sum(eta[v] * dims[v] for v in eta))
    if abs(total) > SLOPE_TOL:
        raise ValidationError(f"slope constraint violated: {total:g} != 0")
    return dict(eta), total


@dataclass(frozen=True)
class Representation:
    """Per-arrow matrices over a dimension vector.

    ``matrices[a.name]`` has shape ``(dims[a.dst], dims[a.src])``.
    """

    quiver: Quiver
    dims: Mapping[str, int]
    matrices: Mapping[str, np.ndarray]

    def __post_init__(self):
        dims = validate_dims(self.quiver, self.dims)
        object.__setattr__(self, "dims", dims)
        arrow_names = {a.name for a in self.quiver.arrows}
        if set(self.matrices) != arrow_names:
            raise ValidationError(
                f"representation arrow keys {sorted(self.matrices)} != arrows {sorted(arrow_names)}"
            )
        mats = {}
        for a in self.quiver.arrows:
            m = as_complex_matrix(self.matrices[a.name], name=f"arrow {a.name!r}")
            want = (dims[a.dst], dims[a.src])
            if m.shape != want:
                raise ValidationError(
                    f"arrow {a.name!r}: matrix shape {m.shape} != expected {want}"
                )
            m.setflags(write=False)
            mats[a.name] = m
        object.__setattr__(self, "matrices", mats)


@dataclass(frozen=True)
class ProblemInstance:
    """A fully parsed problem file."""

    quiver: Quiver
    dims: Mapping[str, int]
    eta: Mapping[str, float]
    rep: Optional[Representation] = None
    metric: Optional[Mapping[str, np.ndarray]] = field(default=None)


def matrix_to_json(a) -> list:
    """Encode a complex matrix as row-major ``[re, im]`` pairs."""
    arr = as_complex_matrix(a)
    return [[[float(z.real), float(z.imag)] for z in row] for row in arr]


def matrix_from_json(data, shape: tuple[int, int], name: str) -> np.ndarray:
    """Decode a row-major ``[re, im]`` matrix, checking the expected shape."""
    if not isinstance(data, list):
        raise ValidationError(f"{name}: expected a list of rows")
    out = np.zeros(shape, dtype=np.complex128)
    if len(data) != shape[0]:
        raise ValidationError(f"{name}: expected {shape[0]} rows, got {len(data)}")
    for i, row in enumerate(data):
        if not isinstance(row, list) or len(row) != shape[1]:
            raise ValidationError(f"{name}: row {i} must have {shape[1]} entries")
        for j, pair in enumerate(row):
            if (
                not isinstance(pair, list)
                or len(pair) != 2
                or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in pair)
            ):
                raise ValidationError(f"{name}: entry ({i},{j}) must be a [re, im] pair")
            out[i, j] = complex(pair[0], pair[1])
    if out.size and not np.all(np.isfinite(out.view(np.float64))):
        raise ValidationError(f"{name}: non-finite entries")
    return out


def _parse_instance(obj, allow_nonzero_slope: bool) -> ProblemInstance:
    if not isinstance(obj, dict):
        raise ValidationError("problem file: top level must be a JSON object")
    for key in ("vertices", "arrows", "dims", "eta"):
        if key not in obj:
            raise ValidationError(f"problem file: missing key {key!r}")
    vertices = obj["vertices"]
    if not isinstance(vertices, list) or not all(isinstance(v, str) for v in vertices):
        raise ValidationError("problem file: 'vertices' must be a list of strings")
    arrows = []
    if not isinstance(obj["arrows"], list):
        raise ValidationError("problem file: 'arrows' must be a list")
    for i, rec in enumerate(obj["arrows"]):
        if not isinstance(rec, dict) or not {"id", "src", "dst"} <= set(rec):
            raise ValidationError(f"problem file: arrow #{i} must have keys id/src/dst")
        arrows.append(Arrow(str(rec["id"]), str(rec["src"]), str(rec["dst"])))
    quiver = Quiver(tuple(vertices), tuple(arrows))
    dims = validate_dims(quiver, obj["dims"])
    eta = validate_eta(quiver, obj["eta"])
    try:
        validate_slope(eta, dims)
    except ValidationError:
        if not allow_nonzero_slope:
            raise
        total = sum(eta[v] * dims[v] for v in eta)
        logger.warning("slope constraint relaxed: sum eta_v dim_v = %g", total)

    rep = None
    if "rep" in obj and obj["rep"] is not None:
        raw = obj["rep"]
        if not isinstance(raw, dict):
            raise ValidationError("problem file: 'rep' must be an object keyed by arrow id")
        mats = {}
        for a in quiver.arrows:
            if a.name not in raw:
                raise ValidationError(f"problem file: 'rep' missing arrow {a.name!r}")
            mats[a.name] = matrix_from_json(
                raw[a.name], (dims[a.dst], dims[a.src]), name=f"rep[{a.name!r}]"
            )
        extra = set(raw) - {a.name for a in quiver.arrows}
        if extra:
            raise ValidationError(f"problem file: 'rep' has unknown arrows {sorted(extra)}")
        rep = Representation(quiver, dims, mats)

    metric = None
    if "metric" in obj and obj["metric"] is not None:
        raw = obj["metric"]
        if not isinstance(raw, dict) or set(raw) != set(quiver.vertices):
            raise ValidationError("problem file: 'metric' must cover exactly the vertex set")
        metric = {}
        for v in quiver.vertices:
            m = matrix_from_json(raw[v], (dims[v], dims[v]), name=f"metric[{v!r}]")
            metric[v] = as_positive_definite(m, name=f"metric[{v!r}]")
    return ProblemInstance(quiver, dims, eta, rep, metric)


def load_problem(text: str, allow_nonzero_slope: bool = False) -> ProblemInstance:
    """Parse a problem file, including the optional initial metric."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    return _parse_instance(obj, allow_nonzero_slope)


def parse_quiver_spec(text: str, allow_nonzero_slope: bool = False):
    """Parse a problem file into ``(quiver, dims, eta, representation-or-None)``.

    Errors carry positions for malformed JSON, the offending arrow for shape
    mismatches, and the computed sum for slope violations.
    """
    inst = load_problem(text, allow_nonzero_slope=allow_nonzero_slope)
    return inst.quiver, dict(inst.dims), dict(inst.eta), inst.rep


def problem_to_json(
    quiver: Quiver,
    dims: Mapping[str, int],
    eta: Mapping[str, float],
    rep: Optional[Representation] = None,
    metric: Optional[Mapping[str, np.ndarray]] = None,
) -> str:
    """Serialize a problem instance to its canonical JSON form."""
    obj = {
        "vertices": list(quiver.vertices),
        "arrows": [{"id": a.name, "src": a.src, "dst": a.dst} for a in quiver.arrows],
        "dims": {v: int(dims[v]) for v in quiver.vertices},
        "eta": {v: float(eta[v]) for v in quiver.vertices},
    }
    if rep is not None:
        obj["rep"] = {name: matrix_to_json(m) for name, m in rep.matrices.items()}
    if metric is not None:
        obj["metric"] = {v: matrix_to_json(metric[v]) for v in quiver.vertices}
    return json.dumps(obj, indent=2, sort_keys=True)


def random_representation(quiver: Quiver, dims: Mapping[str, int], seed: int) -> Representation:
    """Deterministic representation with i.i.d. standard complex Gaussian entries.

    Each entry is ``(x + i y)/sqrt(2)`` with ``x, y ~ N(0, 1)``, so the complex
    variance ``E|z|^2`` is 1.
    """
    dims = validate_dims(quiver, dims)
    rng = np.random.default_rng(seed)
    mats = {}
    for a in quiver.arrows:
        shape = (dims[a.dst], dims[a.src])
        mats[a.name] = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)
    return Representation(quiver, dims, mats)


def direct_sum(r1: Representation, r2: Representation) -> Representation:
    """Block-diagonal sum of two representations of the same quiver."""
    if r1.quiver != r2.quiver:
        raise ValidationError("direct_sum: representations live on different quivers")
    q = r1.quiver
    dims = {v: r1.dims[v] + r2.dims[v] for v in q.vertices}
    mats = {}
    for a in q.arrows:
        m1 = r1.matrices[a.name]
        m2 = r2.matrices[a.name]
        out = np.zeros((dims[a.dst], dims[a.src]), dtype=np.complex128)
        out[: m1.shape[0], : m1.shape[1]] = m1
        out[m1.shape[0] :, m1.shape[1] :] = m2
        mats[a.name] = out
    return Representation(q, dims, mats)
