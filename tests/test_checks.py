"""Tests for the shared input checks and for the three problem-file parsers:
malformed input is a ValidationError wherever it enters."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momentmap.adhm import ADHMData, adhm_from_json, adhm_residuals, solve_adhm
from momentmap.checks import (
    check_exponents,
    check_keys,
    check_real,
    check_sequence,
    compositions,
    graded_monomials,
    load_json_object,
)
from momentmap.cyclic import BElement, xi_welldefinedness_probe
from momentmap.errors import ParseError, ValidationError
from momentmap.moment import KahlerData, identity_metric, king_residual
from momentmap.nekrasov import (
    build_truncation,
    commutator_diagnostics,
    fock_weights,
    nekrasov_residual,
    solve_nekrasov,
    truncation_from_json,
)
from momentmap.quiver import (
    Arrow,
    Quiver,
    Representation,
    parse_quiver_spec,
    random_representation,
    validate_dims,
    validate_eta,
)
from momentmap.solver import SolveOptions

LOOP = Quiver(("v",), (Arrow("l", "v", "v"),))
LOOP_REP = Representation(LOOP, {"v": 1}, {"l": [[1.0]]})
TRUNCATION = build_truncation(1, [(1,)], 6)
BARGMANN = fock_weights(TRUNCATION, 1.0)
ADHM = ADHMData(1, 1, [[0.0]], [[0.0]], [[0.0]], [[1.0]])

KING_PROBLEM = {
    "vertices": ["v", "w"],
    "arrows": [{"id": "a", "src": "v", "dst": "w"}, {"id": "l", "src": "v", "dst": "v"}],
    "dims": {"v": 1, "w": 1},
    "eta": {"v": 0.0, "w": 0.0},
    "rep": {"a": [[[1.0, 0.0]]], "l": [[[0.5, -0.5]]]},
}
NEKRASOV_PROBLEM = {"n": 1, "module": {"ideal": [[1]]}, "D": 6, "hbar": 0.7, "m": 1, "buffer": 2}
ADHM_PROBLEM = {
    "N": 1, "k": 1, "eta": 1.0,
    "alpha": [[[0.0, 0.0]]], "beta": [[[0.0, 0.0]]], "a": [[[0.0, 0.0]]], "b": [[[1.0, 0.0]]],
}
PARSERS = {
    "king": (parse_quiver_spec, KING_PROBLEM),
    "nekrasov": (truncation_from_json, NEKRASOV_PROBLEM),
    "adhm": (adhm_from_json, ADHM_PROBLEM),
}


class TestCheckReal:
    @pytest.mark.parametrize(
        "value,expect",
        [(2, 2.0), (-1.5, -1.5), (np.float32(0.5), 0.5), (np.int64(3), 3.0),
         (Fraction(1, 4), 0.25), (np.float64(-0.0), -0.0)],
    )
    def test_real_numbers_become_floats(self, value, expect):
        got = check_real("x", value)
        assert type(got) is float and got == expect

    @pytest.mark.parametrize(
        "value",
        [True, np.True_, "1.5", None, 1j, math.nan, math.inf, -math.inf, 10**400,
         Fraction(10**400)],
    )
    def test_everything_else_is_rejected(self, value):
        with pytest.raises(ValidationError, match="x must be a finite real number"):
            check_real("x", value)

    @pytest.mark.parametrize("value", [0, 0.0, -1e-300, -2])
    def test_positive(self, value):
        assert check_real("x", value) == value
        with pytest.raises(ValidationError, match="x must be a positive real number"):
            check_real("x", value, positive=True)


#: Every place a finite (or positive) real enters the program.
REAL_SITES = {
    "SolveOptions.tol": lambda x: SolveOptions(tol=x),
    "validate_eta": lambda x: validate_eta(LOOP, {"v": x}),
    "kahler_weight": lambda x: king_residual(
        LOOP_REP, identity_metric(LOOP_REP), {"v": 0.0}, KahlerData({"l": x})
    ),
    "adhm_residuals": lambda x: adhm_residuals(ADHM, x),
    "solve_adhm": lambda x: solve_adhm(1, 1, x),
    "adhm_from_json": lambda x: adhm_from_json(json.dumps({**ADHM_PROBLEM, "eta": x})),
    "fock_weights": lambda x: fock_weights(TRUNCATION, x),
    "nekrasov_residual": lambda x: nekrasov_residual(TRUNCATION, BARGMANN, x, 1),
    "solve_nekrasov": lambda x: solve_nekrasov(TRUNCATION, x),
    "commutator_diagnostics": lambda x: commutator_diagnostics(TRUNCATION, BARGMANN, x),
    "truncation_from_json": lambda x: truncation_from_json(
        json.dumps({**NEKRASOV_PROBLEM, "hbar": x})
    ),
}


@pytest.mark.parametrize("value", ["one", None, True, math.nan, math.inf, -math.inf, "1.5"])
@pytest.mark.parametrize("site", sorted(REAL_SITES))
def test_real_sites_reject_non_reals(site, value):
    with pytest.raises(ValidationError):
        REAL_SITES[site](value)


#: Every place a random seed enters the program.
SEED_SITES = {
    "solve_adhm": lambda x: solve_adhm(1, 1, 1.0, seed=x),
    "random_representation": lambda x: random_representation(LOOP, {"v": 1}, x),
    "xi_welldefinedness_probe": lambda x: xi_welldefinedness_probe(1, seed=x),
}


@pytest.mark.parametrize("value", [-1, True, 2.5])
@pytest.mark.parametrize("site", sorted(SEED_SITES))
def test_seed_sites_reject_non_seeds(site, value):
    with pytest.raises(ValidationError, match="seed must be an integer >= 0"):
        SEED_SITES[site](value)


def test_real_sites_accept_fractions():
    assert SolveOptions(tol=Fraction(1, 10)).tol == 0.1
    assert validate_eta(LOOP, {"v": Fraction(-1, 2)}) == {"v": -0.5}
    assert fock_weights(TRUNCATION, Fraction(1)).values.tobytes() == BARGMANN.values.tobytes()


class TestShapeFacts:
    def test_keys(self):
        assert check_keys("m", {"a": 1}, ["a"]) == {"a": 1}
        with pytest.raises(ValidationError, match="m must be a mapping"):
            check_keys("m", [("a", 1)], ["a"])
        with pytest.raises(ValidationError, match="m keys"):
            check_keys("m", {"a": 1, 2: 2}, ["a"])

    def test_sequences(self):
        assert check_sequence("s", [1, 2]) == [1, 2]
        assert check_exponents(2, np.array([1, 0]), "e") == (1, 0)
        for bad in (5, "12", {"a": 1}, None, np.zeros((1, 1))):
            with pytest.raises(ValidationError, match="must be a sequence"):
                check_sequence("s", bad)
            with pytest.raises(ValidationError):
                check_exponents(2, bad, "e")

    @pytest.mark.parametrize("bad", [2, 0.0, None, [["v", 1]], "v"])
    def test_vertex_families_must_be_mappings(self, bad):
        with pytest.raises(ValidationError, match="must be a mapping"):
            validate_dims(LOOP, bad)
        with pytest.raises(ValidationError, match="must be a mapping"):
            validate_eta(LOOP, bad)

    @pytest.mark.parametrize("module", [5, {"ideal": 5}, [[1], 5], "ideal"])
    def test_ideal_generators_must_be_sequences(self, module):
        with pytest.raises(ValidationError):
            build_truncation(1, module, 4)
        if isinstance(module, dict):
            with pytest.raises(ValidationError):
                truncation_from_json(json.dumps({**NEKRASOV_PROBLEM, "module": module}))

    @pytest.mark.parametrize("value", ["1+2j", True, None, [1.0], math.nan, 10**400])
    def test_bimodule_coefficients_must_be_finite_numbers(self, value):
        with pytest.raises(ValidationError):
            BElement(LOOP, {"v": value}, {}, {})
        with pytest.raises(ValidationError):
            BElement(LOOP, {}, {"l": value}, {})
        with pytest.raises(ValidationError):
            BElement.zero(LOOP).left_mul({"v": value})

    def test_bimodule_coefficients_accept_numbers(self):
        b = BElement(LOOP, {"v": Fraction(1, 2)}, {"l": np.complex128(1 + 2j)}, {"l": 3})
        assert b.vertex_part == {"v": 0.5}
        assert b.arrow_part == {"l": 1 + 2j}
        assert b.arrowbar_part == {"l": 3 + 0j}


class TestLoadJsonObject:
    def test_valid(self):
        assert load_json_object('{"a": 1, "b": 2}', ["a"], ["b", "c"]) == {"a": 1, "b": 2}

    def test_malformed_json_reports_line_and_column(self):
        with pytest.raises(ParseError, match="line 2, column 1"):
            load_json_object('{"a": 1,\n}', ["a"])

    @pytest.mark.parametrize(
        "text,match",
        [("[1]", "must be a JSON object"), ("3", "must be a JSON object"),
         ('{"b": 1}', r"missing keys \['a'\]"), ('{"a": 1, "z": 2}', r"unknown keys \['z'\]")],
    )
    def test_structure(self, text, match):
        with pytest.raises(ValidationError, match=match):
            load_json_object(text, ["a"], ["b"])

    @pytest.mark.parametrize("fmt", sorted(PARSERS))
    def test_each_parser_rejects_unknown_and_missing_keys(self, fmt):
        parse, problem = PARSERS[fmt]
        parse(json.dumps(problem))
        with pytest.raises(ValidationError, match="unknown keys"):
            parse(json.dumps({**problem, "extra": 1}))
        key = sorted(problem)[0]
        with pytest.raises(ValidationError, match="missing keys"):
            parse(json.dumps({k: v for k, v in problem.items() if k != key}))


def _paths(doc, prefix=()):
    """Every position in a JSON document, the root included."""
    yield prefix
    children = doc.items() if isinstance(doc, dict) else (
        enumerate(doc) if isinstance(doc, list) else ()
    )
    for key, value in children:
        yield from _paths(value, prefix + (key,))


def _replaced(doc, path, value):
    if not path:
        return value
    out = dict(doc) if isinstance(doc, dict) else list(doc)
    out[path[0]] = _replaced(doc[path[0]], path[1:], value)
    return out


#: Arbitrary JSON.  Integers stay small: a valid truncation has
#: C(n + D, n) monomials, so an arbitrary (n, D) could be a valid problem
#: too large to build, which says nothing about the parser.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 12) | st.floats() | st.text(max_size=6),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=12,
)


@st.composite
def mutated_problems(draw):
    fmt = draw(st.sampled_from(sorted(PARSERS)))
    parse, problem = PARSERS[fmt]
    path = draw(st.sampled_from(list(_paths(problem))))
    if draw(st.booleans()):
        return parse, _replaced(problem, path, draw(JSON_VALUES)), False
    # add a key to the top level, or to an object inside
    objects = [p for p in _paths(problem) if isinstance(_at(problem, p), dict)]
    where = draw(st.sampled_from(objects))
    key = draw(st.text(max_size=6).filter(lambda k: k not in _at(problem, where)))
    extended = {**_at(problem, where), key: draw(JSON_VALUES)}
    return parse, _replaced(problem, where, extended), True


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(mutated_problems())
def test_parsers_accept_or_raise_validation_error(case):
    parse, doc, added_key = case
    try:
        parse(json.dumps(doc))
    except ValidationError:
        return
    assert not added_key, "an unknown key was accepted"


def recursive_compositions(n, total):
    """Compositions by peeling off the first part: one recursion level per
    variable."""
    if n == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in recursive_compositions(n - 1, total - head):
            yield (head,) + tail


def reference_grlex_key(m):
    """The sort key of the graded order before it had one enumeration:
    degree, then earlier variables ranking higher."""
    return (sum(m), tuple(-e for e in m))


class TestGradedMonomials:
    def test_equals_the_sorted_graded_order(self):
        for n in range(1, 5):
            for degree in range(7):
                everything = [m for d in range(degree + 1) for m in compositions(n, d)]
                got = graded_monomials(n, degree)
                assert got == sorted(everything, key=reference_grlex_key)
                # the per-degree reverse sort the Fock sweeps used
                assert got == [
                    m for d in range(degree + 1) for m in sorted(compositions(n, d), reverse=True)
                ]

    def test_reiterable_list(self):
        got = graded_monomials(2, 2)
        assert isinstance(got, list)
        assert got == [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]


class TestCompositions:
    def test_same_tuples_in_the_same_order(self):
        for n in range(1, 7):
            for total in range(9):
                assert list(compositions(n, total)) == list(recursive_compositions(n, total))

    def test_many_variables_without_recursion(self):
        # Peeling one variable per level raised RecursionError here.
        ones = [parts.index(1) for parts in compositions(3000, 1)]
        assert ones == list(range(2999, -1, -1))
