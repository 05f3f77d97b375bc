"""Exact normal-ordering engine for the flat noncommutative coordinate
algebra and the Gaussian state on it.

The *-algebra has generators ``z_1..z_n, z_1*..z_n*`` with relations

    [z_i, z_j] = 0,   [z_i*, z_j*] = 0,   [z_i*, z_j] = hbar delta_ij,

where ``hbar`` is kept symbolic: every coefficient is a polynomial in
``hbar`` with Gaussian-rational coefficients, so all identities in this
module are checked exactly.  A :class:`NormalForm` stores an element as a
combination of normal-ordered monomials ``z^k (z*)^l`` (all plain
generators left of all starred ones); :func:`normal_order` orders each
variable's letters on its own, by the ladder ``z_i* z_i = z_i z_i* + hbar``
on integer counts.  The Gaussian state evaluates

    state( z^k (z*)^l )  =  prod_i delta_{k_i l_i} k_i! rho^{k_i},

and satisfies two exchange identities used as exact oracles:

    (rho + hbar) * state(dbar_i(a))  =  state(a z_i),
    (rho + hbar) * state(z_i a)     =  rho * state(a z_i),

where ``dbar_i`` is the derivation killing plain generators with
``dbar_i(z_j*) = delta_ij``.  :func:`verify_state_identities` sweeps both
identities over all normal monomials up to a degree cap, exactly in
rational arithmetic; :func:`gram_matrix` assembles the positivity witness
``G = state(m_p m_q*)``.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from .checks import (
    check_exponents,
    check_int,
    check_sequence,
    graded_monomials,
    is_integer,
)
from .errors import ValidationError

__all__ = [
    "QQi",
    "HbarPoly",
    "Word",
    "NormalForm",
    "normal_order",
    "nf_multiply",
    "state_rho",
    "dbar",
    "verify_state_identities",
    "gram_matrix",
]

RationalLike = Union[int, Fraction]


def _as_fraction(x, name: str = "value") -> Fraction:
    if isinstance(x, Fraction):
        return x
    if is_integer(x):
        return Fraction(int(x))
    if isinstance(x, float):
        if not np.isfinite(x):
            raise ValidationError(f"{name} must be finite")
        return Fraction(x)
    raise ValidationError(f"{name} must be rational or float, got {type(x).__name__}")


def _coerced(op):
    """Binary operator applied to ``type(self).of(other)``; returns
    ``NotImplemented`` when ``other`` does not coerce."""

    @functools.wraps(op)
    def coerced(self, other):
        if type(other) is not type(self):
            try:
                other = type(self).of(other)
            except ValidationError:
                return NotImplemented
        return op(self, other)

    return coerced


@dataclass(frozen=True)
class QQi:
    """Gaussian rational ``re + i im`` with exact :class:`Fraction` parts.

    Each part may be given as an integer, a :class:`Fraction` or a finite
    float (converted exactly); anything else, ``bool`` included, raises
    :class:`ValidationError`.
    """

    re: Fraction = Fraction(0)
    im: Fraction = Fraction(0)

    def __post_init__(self) -> None:
        object.__setattr__(self, "re", _as_fraction(self.re, "re"))
        object.__setattr__(self, "im", _as_fraction(self.im, "im"))

    @staticmethod
    def of(x) -> "QQi":
        """Coerce an int, Fraction, complex, or QQi to a Gaussian rational."""
        if isinstance(x, QQi):
            return x
        if isinstance(x, complex):
            return _qqi(_as_fraction(x.real), _as_fraction(x.imag))
        return _qqi(_as_fraction(x))

    @_coerced
    def __add__(self, o):
        return _qqi(self.re + o.re, self.im + o.im)

    @_coerced
    def __sub__(self, o):
        return self + -o

    @_coerced
    def __mul__(self, o):
        return _qqi(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)

    __radd__ = __add__
    __rmul__ = __mul__

    def __neg__(self) -> "QQi":
        return _qqi(-self.re, -self.im)

    def conjugate(self) -> "QQi":
        return _qqi(self.re, -self.im)

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    def to_complex(self) -> complex:
        return complex(float(self.re), float(self.im))

    def abs2(self) -> Fraction:
        """Exact squared modulus."""
        return self.re * self.re + self.im * self.im


def _qqi(re: Fraction, im: Fraction = Fraction(0)) -> QQi:
    """Trusted construction from :class:`Fraction` parts this module computed
    itself: nothing is checked."""
    z = object.__new__(QQi)
    object.__setattr__(z, "re", re)
    object.__setattr__(z, "im", im)
    return z


_ZERO = _qqi(Fraction(0))
_ONE = _qqi(Fraction(1))


@dataclass(frozen=True)
class HbarPoly:
    """Polynomial in ``hbar`` with Gaussian-rational coefficients.

    ``coeffs`` maps degree to a nonzero :class:`QQi`.
    """

    coeffs: Mapping[int, QQi]

    def __post_init__(self) -> None:
        clean = {}
        for deg, val in self.coeffs.items():
            if not is_integer(deg) or deg < 0:
                raise ValidationError(f"bad hbar degree {deg!r}")
            val = QQi.of(val)
            if val:
                clean[int(deg)] = val
        object.__setattr__(self, "coeffs", clean)

    @staticmethod
    def of(x) -> "HbarPoly":
        """Coerce an int/Fraction/QQi (degree 0) or HbarPoly."""
        if isinstance(x, HbarPoly):
            return x
        if isinstance(x, NormalForm):
            raise ValidationError("cannot coerce a NormalForm to a coefficient")
        return _poly({0: QQi.of(x)})

    @staticmethod
    def hbar(power: int = 1) -> "HbarPoly":
        return HbarPoly({power: _ONE})

    @_coerced
    def __add__(self, o):
        out = dict(self.coeffs)
        for deg, val in o.coeffs.items():
            out[deg] = out.get(deg, _ZERO) + val
        return _poly(out)

    @_coerced
    def __sub__(self, o):
        return self + -o

    @_coerced
    def __mul__(self, o):
        out: dict[int, QQi] = {}
        for d1, v1 in self.coeffs.items():
            for d2, v2 in o.coeffs.items():
                d = d1 + d2
                out[d] = out.get(d, _ZERO) + v1 * v2
        return _poly(out)

    __radd__ = __add__
    __rmul__ = __mul__

    def __neg__(self) -> "HbarPoly":
        return _poly({d: -v for d, v in self.coeffs.items()})

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    @_coerced
    def __eq__(self, other) -> bool:
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def conjugate(self) -> "HbarPoly":
        return _poly({d: v.conjugate() for d, v in self.coeffs.items()})

    def evaluate_exact(self, hbar: RationalLike) -> QQi:
        """Exact evaluation at a rational ``hbar``."""
        h = _as_fraction(hbar, "hbar")
        total = _ZERO
        for deg, val in self.coeffs.items():
            total = total + val * _qqi(h**deg)
        return total

    def evaluate(self, hbar: float) -> complex:
        """Floating evaluation at a numeric ``hbar``, summed in ascending
        degree so that equal polynomials give equal floats."""
        h, c = float(hbar), self.coeffs
        return sum((c[d].to_complex() * h**d for d in sorted(c)), 0j)


def _poly(coeffs: dict) -> HbarPoly:
    """Trusted construction from ``int -> QQi`` coefficients this module
    built itself: zeros are dropped, nothing is checked."""
    p = object.__new__(HbarPoly)
    object.__setattr__(p, "coeffs", {d: v for d, v in coeffs.items() if v})
    return p


_ZERO_POLY = HbarPoly({})
_HBAR = HbarPoly.hbar()


def _check_index(n: int, i: int) -> int:
    if not is_integer(i) or not 1 <= i <= n:
        raise ValidationError(f"generator index must be in 1..{n}, got {i!r}")
    return int(i)


@dataclass(frozen=True)
class Word:
    """Scalar multiple of a product of generators, as written.

    ``letters`` is a sequence of ``(index, starred)`` pairs with indices in
    ``1..n`` and ``bool`` flags; ``(2, True)`` denotes ``z_2*``.
    """

    n: int
    letters: Tuple[Tuple[int, bool], ...]
    scalar: QQi = _ONE

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", check_int("n", self.n, 1))
        letters = []
        for letter in check_sequence("letters", self.letters):
            letter = check_sequence("letter", letter)
            if len(letter) != 2 or not isinstance(letter[1], (bool, np.bool_)):
                raise ValidationError(f"not an (index, bool) letter: {letter!r}")
            letters.append((_check_index(self.n, letter[0]), bool(letter[1])))
        object.__setattr__(self, "letters", tuple(letters))
        object.__setattr__(self, "scalar", QQi.of(self.scalar))

    def star(self) -> "Word":
        """Involution: reverse the letters, star each, conjugate the scalar."""
        flipped = tuple((i, not s) for i, s in reversed(self.letters))
        return _word(self.n, flipped, self.scalar.conjugate())

    def concat(self, other: "Word") -> "Word":
        """Product of two words (letter concatenation)."""
        if not isinstance(other, Word):
            raise ValidationError(f"expected Word, got {type(other).__name__}")
        if other.n != self.n:
            raise ValidationError("words over different generator counts")
        return _word(self.n, self.letters + other.letters, self.scalar * other.scalar)


def _word(n: int, letters: tuple, scalar: QQi) -> Word:
    """Trusted construction from letters and a scalar of words this module
    already validated: nothing is checked."""
    w = object.__new__(Word)
    object.__setattr__(w, "n", n)
    object.__setattr__(w, "letters", letters)
    object.__setattr__(w, "scalar", scalar)
    return w


@dataclass(frozen=True)
class NormalForm:
    """Exact combination of normal-ordered monomials ``z^k (z*)^l``.

    ``terms`` maps ``(k, l)`` exponent pairs to nonzero ``hbar``-polynomial
    coefficients.
    """

    n: int
    terms: Mapping[Tuple[Tuple[int, ...], Tuple[int, ...]], HbarPoly]

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", check_int("n", self.n, 1))
        clean = {}
        for (k, l), coeff in self.terms.items():
            key = (check_exponents(self.n, k, "k"), check_exponents(self.n, l, "l"))
            coeff = HbarPoly.of(coeff)
            if coeff:
                clean[key] = coeff
        object.__setattr__(self, "terms", clean)

    @classmethod
    def zero(cls, n: int) -> "NormalForm":
        return cls(n, {})

    @classmethod
    def one(cls, n: int) -> "NormalForm":
        zero = (0,) * n
        return cls(n, {(zero, zero): HbarPoly.of(1)})

    @classmethod
    def monomial(cls, n: int, k, l, coeff=1) -> "NormalForm":
        return cls(n, {(tuple(k), tuple(l)): HbarPoly.of(coeff)})

    def __add__(self, other: "NormalForm") -> "NormalForm":
        if not isinstance(other, NormalForm) or other.n != self.n:
            return NotImplemented
        out = dict(self.terms)
        for key, coeff in other.terms.items():
            out[key] = out.get(key, _ZERO_POLY) + coeff
        return _form(self.n, out)

    def __sub__(self, other: "NormalForm") -> "NormalForm":
        if not isinstance(other, NormalForm) or other.n != self.n:
            return NotImplemented
        return self + other.scale(-1)

    def scale(self, factor) -> "NormalForm":
        f = HbarPoly.of(factor)
        return _form(self.n, {key: coeff * f for key, coeff in self.terms.items()})

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, NormalForm)
            and other.n == self.n
            and dict(other.terms) == dict(self.terms)
        )

    def __hash__(self):
        return hash((self.n, frozenset(self.terms.items())))

    def __bool__(self) -> bool:
        return bool(self.terms)

    def mul_z(self, i: int) -> "NormalForm":
        """Right multiplication by ``z_i``: commute it through the starred
        block, producing the ladder term ``hbar l_i``."""
        i = _check_index(self.n, i) - 1
        out: dict = {}

        def add(key, coeff):
            out[key] = out.get(key, _ZERO_POLY) + coeff

        for (k, l), coeff in self.terms.items():
            bumped = k[:i] + (k[i] + 1,) + k[i + 1 :]
            add((bumped, l), coeff)
            if l[i] >= 1:
                lowered = l[:i] + (l[i] - 1,) + l[i + 1 :]
                add((k, lowered), coeff * _HBAR * l[i])
        return _form(self.n, out)

    def mul_zstar(self, i: int) -> "NormalForm":
        """Right multiplication by ``z_i*`` (already normal-ordered)."""
        i = _check_index(self.n, i) - 1
        out: dict = {}
        for (k, l), coeff in self.terms.items():
            bumped = l[:i] + (l[i] + 1,) + l[i + 1 :]
            key = (k, bumped)
            out[key] = out.get(key, _ZERO_POLY) + coeff
        return _form(self.n, out)

    def lmul_z(self, i: int) -> "NormalForm":
        """Left multiplication by ``z_i`` (no reordering needed)."""
        i = _check_index(self.n, i) - 1
        out: dict = {}
        for (k, l), coeff in self.terms.items():
            bumped = k[:i] + (k[i] + 1,) + k[i + 1 :]
            key = (bumped, l)
            out[key] = out.get(key, _ZERO_POLY) + coeff
        return _form(self.n, out)

    def star(self) -> "NormalForm":
        """Involution: ``(z^k (z*)^l)* = z^l (z*)^k`` with conjugated
        coefficients (``hbar`` is real)."""
        return _form(
            self.n, {(l, k): coeff.conjugate() for (k, l), coeff in self.terms.items()}
        )


def _form(n: int, terms: dict) -> NormalForm:
    """Trusted construction from exponent-pair -> :class:`HbarPoly` terms this
    module built itself: zero coefficients are dropped, nothing is checked."""
    f = object.__new__(NormalForm)
    object.__setattr__(f, "n", n)
    object.__setattr__(f, "terms", {key: c for key, c in terms.items() if c})
    return f


def normal_order(w: Union[Word, Iterable[Word]]) -> NormalForm:
    """Rewrite a word (or a sum of words) into its exact normal form.

    Distinct variables commute, so each variable's letters are ordered on
    their own, on integer counts of states ``z^k (z*)^l``: ``z_i*`` takes
    ``(k, l)`` to ``(k, l+1)``, and ``z_i`` to ``(k+1, l)`` plus ``l`` times
    ``(k, l-1)``, a ladder term ``z_i* z_i = z_i z_i* + hbar``.  The word's
    terms are products of one state per variable, of hbar degree
    ``(letters - |k| - |l|) / 2``.
    """
    if not isinstance(w, (Word, Iterable)):
        raise ValidationError(f"expected a Word or Words, got {type(w).__name__}")
    words = [w] if isinstance(w, Word) else list(w)
    if not words:
        raise ValidationError("empty word sum has no generator count")
    for word in words:
        if not isinstance(word, Word):
            raise ValidationError(f"expected Word, got {type(word).__name__}")
        if word.n != words[0].n:
            raise ValidationError("words over different generator counts")
    n = words[0].n
    out: dict = {}
    for word in words:
        if not word.scalar:
            continue
        ladders = [{(0, 0): 1} for _ in range(n)]
        for idx, star in word.letters:
            step: dict = {}
            for (k, l), count in ladders[idx - 1].items():
                if star:
                    step[k, l + 1] = count
                else:
                    step[k + 1, l] = step.get((k + 1, l), 0) + count
                    if l:
                        step[k, l - 1] = step.get((k, l - 1), 0) + count * l
            ladders[idx - 1] = step
        scalar = word.scalar
        for states in itertools.product(*(ladder.items() for ladder in ladders)):
            k = tuple(kl[0] for kl, _ in states)
            l = tuple(kl[1] for kl, _ in states)
            count = math.prod(c for _, c in states)
            degree = (len(word.letters) - sum(k) - sum(l)) // 2
            coeff = scalar if count == 1 else _qqi(scalar.re * count, scalar.im * count)
            term = _poly({degree: coeff})
            key = (k, l)
            out[key] = out[key] + term if key in out else term
    return _form(n, out)


def nf_multiply(x: NormalForm, y: NormalForm) -> NormalForm:
    """Product of two normal forms via the per-variable closed form

        (z*)^m z^p = sum_j j! C(m,j) C(p,j) hbar^j z^{p-j} (z*)^{m-j},

    applied independently in each variable (distinct variables commute).
    """
    if not isinstance(x, NormalForm) or not isinstance(y, NormalForm):
        raise ValidationError("nf_multiply expects two NormalForm operands")
    if x.n != y.n:
        raise ValidationError("normal forms over different generator counts")
    n = x.n
    out: dict = {}
    for (k1, l1), c1 in x.terms.items():
        for (k2, l2), c2 in y.terms.items():
            base = c1 * c2
            # iterate over contraction vectors j <= min(l1, k2) componentwise
            ranges = [range(min(l1[i], k2[i]) + 1) for i in range(n)]
            for j in itertools.product(*ranges):
                factor = 1
                for i in range(n):
                    ji = j[i]
                    factor *= (
                        math.factorial(ji)
                        * math.comb(l1[i], ji)
                        * math.comb(k2[i], ji)
                    )
                coeff = base * _poly({sum(j): _ONE}) * factor
                key = (
                    tuple(k1[i] + k2[i] - j[i] for i in range(n)),
                    tuple(l1[i] + l2[i] - j[i] for i in range(n)),
                )
                out[key] = out.get(key, _ZERO_POLY) + coeff
    return _form(n, out)


def state_rho(x: NormalForm, rho) -> HbarPoly:
    """Gaussian state: only balanced monomials ``k = l`` survive, each
    contributing ``prod_i k_i! rho^{k_i}`` times its coefficient.

    The result stays a polynomial in ``hbar`` (exact when ``rho`` is
    rational); evaluate it to obtain a number.
    """
    if not isinstance(x, NormalForm):
        raise ValidationError(f"expected NormalForm, got {type(x).__name__}")
    rho = _as_fraction(rho, "rho")
    total = _ZERO_POLY
    for (k, l), coeff in x.terms.items():
        if k != l:
            continue
        weight = Fraction(1)
        for e in k:
            weight *= math.factorial(e) * rho**e
        total = total + coeff * _qqi(weight)
    return total


def dbar(x: NormalForm, i: int) -> NormalForm:
    """Derivation in the starred directions: ``dbar_i(z_j*) = delta_ij``,
    ``dbar_i(z_j) = 0``; on monomials ``l_i z^k (z*)^{l - e_i}``."""
    if not isinstance(x, NormalForm):
        raise ValidationError(f"expected NormalForm, got {type(x).__name__}")
    i = _check_index(x.n, i) - 1
    out: dict = {}
    for (k, l), coeff in x.terms.items():
        if l[i] == 0:
            continue
        lowered = l[:i] + (l[i] - 1,) + l[i + 1 :]
        key = (k, lowered)
        out[key] = out.get(key, _ZERO_POLY) + coeff * l[i]
    return _form(x.n, out)


def verify_state_identities(n: int, max_degree: int, rho, hbar) -> float:
    """Sweep the two exchange identities over all normal monomials of total
    degree up to ``max_degree`` and report the largest deviation.

    Both identities are checked in their multiplied-through form, which is a
    polynomial identity:

        (rho + hbar) state(dbar_i(a)) - state(a z_i)        == 0,
        (rho + hbar) state(z_i a)     - rho state(a z_i)    == 0.

    With rational ``rho`` and ``hbar`` the computation is exact and the
    return value is ``0.0`` exactly; with floats it is the max absolute
    deviation.
    """
    n, max_degree = check_int("n", n, 1), check_int("max_degree", max_degree, 0)
    exact = not (isinstance(rho, float) or isinstance(hbar, float))
    rho_frac = _as_fraction(rho, "rho")
    hbar_frac = _as_fraction(hbar, "hbar")
    rho_plus_hbar = _poly({0: _qqi(rho_frac), 1: _ONE})

    def magnitude(poly: HbarPoly) -> float:
        if exact:
            value = poly.evaluate_exact(hbar_frac)
            return 0.0 if not value else float(value.abs2()) ** 0.5
        return abs(poly.evaluate(float(hbar_frac)))

    worst = 0.0
    exponents = graded_monomials(n, max_degree)
    for k in exponents:
        for l in exponents:
            if sum(k) + sum(l) > max_degree:
                continue
            a = NormalForm.monomial(n, k, l)
            for i in range(1, n + 1):
                az = state_rho(a.mul_z(i), rho_frac)
                byparts = rho_plus_hbar * state_rho(dbar(a, i), rho_frac) - az
                exch = rho_plus_hbar * state_rho(a.lmul_z(i), rho_frac) - az * _qqi(
                    rho_frac
                )
                worst = max(worst, magnitude(byparts), magnitude(exch))
    return worst


def gram_matrix(n: int, max_degree: int, rho, hbar) -> np.ndarray:
    """Positivity witness: ``G[p, q] = state(m_p m_q*)`` over all normal
    monomials of total degree up to ``max_degree``, evaluated numerically."""
    n, max_degree = check_int("n", n, 1), check_int("max_degree", max_degree, 0)
    exponents = graded_monomials(n, max_degree)
    basis = [
        (k, l)
        for k in exponents
        for l in exponents
        if sum(k) + sum(l) <= max_degree
    ]
    rho_f = _as_fraction(rho, "rho")
    hbar_f = float(_as_fraction(hbar, "hbar"))
    size = len(basis)
    gram = np.zeros((size, size), dtype=np.complex128)
    forms = [NormalForm.monomial(n, k, l) for k, l in basis]
    stars = [f.star() for f in forms]
    for p in range(size):
        for q in range(size):
            gram[p, q] = state_rho(nf_multiply(forms[p], stars[q]), rho_f).evaluate(
                hbar_f
            )
    return gram
