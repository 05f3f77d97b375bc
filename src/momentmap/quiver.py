"""Quiver model, representation containers, stability parameters, and the
JSON problem-file format.

A problem file is a JSON object::

    {
      "vertices": ["1", "2"],
      "arrows":   [{"id": "a", "src": "1", "dst": "2"}, ...],
      "dims":     {"1": 2, "2": 1},
      "eta":      {"1": 1.0, "2": -2.0},
      "rep":      {"a": [[[re, im], ...], ...], ...}      # optional
    }

and no other key: a solve always starts from the identity metric.  All
matrices are row-major arrays of two-element ``[re, im]`` pairs.  An arrow
matrix for ``a: src -> dst`` has shape ``(dims[dst], dims[src])`` and acts on
column vectors.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass
from typing import Mapping, Optional

import numpy as np

from .checks import check_int, check_keys, check_real, load_json_object
from .errors import ValidationError
from .linalg import as_complex_matrix

__all__ = [
    "Arrow",
    "Quiver",
    "Representation",
    "validate_dims",
    "validate_eta",
    "validate_slope",
    "parse_quiver_spec",
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
    """Check that ``dims`` maps exactly the vertex set to integers >= 0."""
    check_keys("dimension vector", dims, quiver.vertices)
    return {v: check_int(f"dimension at vertex {v!r}", dims[v], 0) for v in quiver.vertices}


def validate_eta(quiver: Quiver, eta: Mapping[str, float]) -> dict[str, float]:
    """Check that ``eta`` maps exactly the vertex set to finite reals."""
    check_keys("stability parameter", eta, quiver.vertices)
    return {v: check_real(f"stability parameter at vertex {v!r}", eta[v]) for v in quiver.vertices}


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
    check_keys("stability parameter", eta, dims)
    try:
        total = float(sum(eta[v] * dims[v] for v in eta))
    except OverflowError:
        total = math.inf
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
        check_keys("representation", self.matrices, [a.name for a in self.quiver.arrows])
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


def matrix_to_json(a) -> list:
    """Encode a complex matrix as row-major ``[re, im]`` pairs."""
    arr = as_complex_matrix(a)
    return [[[float(z.real), float(z.imag)] for z in row] for row in arr]


def matrix_from_json(data, shape: tuple[int, int], name: str) -> np.ndarray:
    """Decode a row-major ``[re, im]`` matrix, checking the expected shape."""
    rows, cols = shape
    if not isinstance(data, list) or len(data) != rows:
        raise ValidationError(f"{name}: expected a list of {rows} rows")
    for i, row in enumerate(data):
        if not isinstance(row, list) or len(row) != cols:
            raise ValidationError(f"{name}: row {i} must have {cols} entries")
    try:
        out = np.zeros(shape, dtype=np.complex128)
    except ValueError as exc:
        raise ValidationError(f"{name}: cannot hold shape {shape}: {exc}") from exc
    for i, row in enumerate(data):
        for j, pair in enumerate(row):
            if not isinstance(pair, list) or len(pair) != 2:
                raise ValidationError(f"{name}: entry ({i},{j}) must be a [re, im] pair")
            label = f"{name}: entry ({i},{j})"
            out[i, j] = complex(check_real(label, pair[0]), check_real(label, pair[1]))
    return out


def parse_quiver_spec(text: str, allow_nonzero_slope: bool = False):
    """Parse a problem file into ``(quiver, dims, eta, representation-or-None)``.

    Errors carry positions for malformed JSON, the offending arrow for shape
    mismatches, and the computed sum for slope violations; an unknown key is
    an error.
    """
    obj = load_json_object(text, ("vertices", "arrows", "dims", "eta"), ("rep",))
    vertices = obj["vertices"]
    if not isinstance(vertices, list) or not all(isinstance(v, str) for v in vertices):
        raise ValidationError("problem file: 'vertices' must be a list of strings")
    if not isinstance(obj["arrows"], list):
        raise ValidationError("problem file: 'arrows' must be a list")
    arrows = []
    for i, rec in enumerate(obj["arrows"]):
        if (
            not isinstance(rec, dict)
            or set(rec) != {"id", "src", "dst"}
            or not all(isinstance(x, str) for x in rec.values())
        ):
            raise ValidationError(
                f"problem file: arrow #{i} must have exactly the string keys id/src/dst"
            )
        arrows.append(Arrow(rec["id"], rec["src"], rec["dst"]))
    quiver = Quiver(tuple(vertices), tuple(arrows))
    dims = validate_dims(quiver, obj["dims"])
    eta = validate_eta(quiver, obj["eta"])
    try:
        validate_slope(eta, dims)
    except ValidationError as exc:
        if not allow_nonzero_slope:
            raise
        logger.warning("nonzero slope allowed: %s", exc)

    rep = None
    if obj.get("rep") is not None:
        raw = check_keys("problem file: 'rep'", obj["rep"], [a.name for a in quiver.arrows])
        mats = {
            a.name: matrix_from_json(
                raw[a.name], (dims[a.dst], dims[a.src]), name=f"rep[{a.name!r}]"
            )
            for a in quiver.arrows
        }
        rep = Representation(quiver, dims, mats)
    return quiver, dims, eta, rep


def problem_to_json(
    quiver: Quiver,
    dims: Mapping[str, int],
    eta: Mapping[str, float],
    rep: Optional[Representation] = None,
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
    return json.dumps(obj, indent=2, sort_keys=True)


def random_representation(quiver: Quiver, dims: Mapping[str, int], seed: int) -> Representation:
    """Deterministic representation with i.i.d. standard complex Gaussian entries.

    Each entry is ``(x + i y)/sqrt(2)`` with ``x, y ~ N(0, 1)``, so the complex
    variance ``E|z|^2`` is 1.  ``seed`` must be an integer >= 0.
    """
    dims = validate_dims(quiver, dims)
    rng = np.random.default_rng(check_int("seed", seed, 0))
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
