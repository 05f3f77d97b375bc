"""Input checks shared by every construction, and the exponent multi-indices
they accept.

Each input fact has one check here: an integer bound (:func:`check_int`), a
finite or positive real (:func:`check_real`), a mapping over a fixed key set
(:func:`check_keys`), a sequence (:func:`check_sequence`), a tuple of
exponents (:func:`check_exponents`) and a JSON object with a fixed key set
(:func:`load_json_object`).  The public constructor, parser or entry point
that receives a fact calls its check once; values the package builds itself
are not checked again.  Every malformed input raises :class:`ValidationError`.
"""

from __future__ import annotations

import itertools
import json
import math
import numbers
import operator
from collections.abc import Mapping, Sequence
from typing import Iterable, Iterator, List, Tuple

import numpy as np

from .errors import ParseError, ValidationError


def is_integer(x) -> bool:
    """True for Python and NumPy integers; ``bool`` is not an integer here."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def check_int(name: str, value, minimum: int) -> int:
    """``value`` as an ``int``, if it is an integer no smaller than ``minimum``."""
    if not is_integer(value) or value < minimum:
        raise ValidationError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return int(value)


def check_real(name: str, value, positive: bool = False) -> float:
    """``value`` as a finite ``float``, if it is a real number (Python or NumPy
    int or float, or a ``Fraction``; not ``bool``, not a string), and, with
    ``positive``, greater than zero."""
    if isinstance(value, numbers.Real) and not isinstance(value, (bool, np.bool_)):
        try:
            x = float(value)
        except OverflowError:
            x = math.inf
        if math.isfinite(x) and (x > 0 or not positive):
            return x
    kind = "a positive" if positive else "a finite"
    raise ValidationError(f"{name} must be {kind} real number, got {value!r}")


def check_keys(name: str, value, keys: Iterable) -> Mapping:
    """``value`` itself, if it is a mapping whose key set is exactly ``keys``."""
    if not isinstance(value, Mapping):
        raise ValidationError(f"{name} must be a mapping, got {value!r}")
    keys = set(keys)
    if set(value) != keys:
        raise ValidationError(
            f"{name} keys {sorted(value, key=repr)} != expected {sorted(keys, key=repr)}"
        )
    return value


def check_sequence(name: str, value) -> Sequence:
    """``value`` itself, if it is a sequence (a list, tuple or 1-d array) and
    not a string."""
    if isinstance(value, (list, tuple)):
        return value
    if isinstance(value, np.ndarray) and value.ndim == 1:
        return value
    if not isinstance(value, Sequence) or isinstance(value, (str, bytes)):
        raise ValidationError(f"{name} must be a sequence, got {value!r}")
    return value


def check_exponents(n: int, m, name: str) -> Tuple[int, ...]:
    """``m`` as a tuple of ``n`` integer exponents ``>= 0``."""
    m = tuple(check_sequence(name, m))
    if len(m) != n:
        raise ValidationError(f"{name}: expected {n} exponents, got {len(m)}")
    for e in m:
        if not is_integer(e) or e < 0:
            raise ValidationError(f"{name}: exponents must be integers >= 0, got {e!r}")
    return tuple(int(e) for e in m)


def load_json_object(text: str, required: Iterable[str], optional: Iterable[str] = ()) -> dict:
    """Parse ``text`` as a JSON object whose keys include every key of
    ``required`` and otherwise come from ``optional``.

    Raises
    ------
    ParseError
        On malformed JSON, with its line and column.
    ValidationError
        If the value is not an object, or a key is missing or unknown.
    """
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(obj, dict):
        raise ValidationError("problem file: top level must be a JSON object")
    required = set(required)
    missing = required - set(obj)
    if missing:
        raise ValidationError(f"problem file: missing keys {sorted(missing)}")
    unknown = set(obj) - required - set(optional)
    if unknown:
        raise ValidationError(f"problem file: unknown keys {sorted(unknown)}")
    return obj


def compositions(n: int, total: int) -> Iterator[Tuple[int, ...]]:
    """Exponent tuples of length ``n >= 1`` summing to ``total``, in
    lexicographic order.

    Stars and bars, without recursion: the nondecreasing cut points
    ``c_1 <= ... <= c_{n-2}`` in ``[0, total]``, in lexicographic order,
    give the first ``n - 2`` parts ``c_1, c_2 - c_1, ...``, and the last two
    parts run through the ``rest + 1`` splits of what remains.
    """
    if n == 1:
        yield (total,)
        return
    for cuts in itertools.combinations_with_replacement(range(total + 1), n - 2):
        head = tuple(map(operator.sub, cuts, (0,) + cuts[:-1]))
        rest = total - (cuts[-1] if cuts else 0)
        for last_but_one in range(rest + 1):
            yield head + (last_but_one, rest - last_but_one)


def graded_monomials(n: int, max_degree: int) -> List[Tuple[int, ...]]:
    """Exponent tuples of length ``n >= 1`` summing to at most
    ``max_degree``, by degree and, within a degree, in decreasing
    lexicographic order (earlier variables ranking higher)."""
    return [
        m for total in range(max_degree + 1) for m in reversed(list(compositions(n, total)))
    ]
