"""Input checks shared by every construction, and the exponent multi-indices
they accept.

Each input fact is checked here, once, by the public constructor, parser or
entry point that receives it; values the package builds itself are not
checked again.
"""

from __future__ import annotations

from typing import Iterator, Tuple

import numpy as np

from .errors import ValidationError


def is_integer(x) -> bool:
    """True for Python and NumPy integers; ``bool`` is not an integer here."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def check_int(name: str, value, minimum: int) -> int:
    """``value`` as an ``int``, if it is an integer no smaller than ``minimum``."""
    if not is_integer(value) or value < minimum:
        raise ValidationError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return int(value)


def check_exponents(n: int, m, name: str) -> Tuple[int, ...]:
    """``m`` as a tuple of ``n`` integer exponents ``>= 0``."""
    m = tuple(m)
    if len(m) != n:
        raise ValidationError(f"{name}: expected {n} exponents, got {len(m)}")
    for e in m:
        if not is_integer(e) or e < 0:
            raise ValidationError(f"{name}: exponents must be integers >= 0, got {e!r}")
    return tuple(int(e) for e in m)


def compositions(n: int, total: int) -> Iterator[Tuple[int, ...]]:
    """Exponent tuples of length ``n >= 1`` summing to ``total``, in
    lexicographic order."""
    if n == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in compositions(n - 1, total - head):
            yield (head,) + tail
