"""Tests for the quiver model and the JSON problem-file format."""

import json

import numpy as np
import numpy.testing as npt
import pytest

from momentmap.errors import ParseError, ValidationError
from momentmap.quiver import (
    Arrow,
    Quiver,
    Representation,
    direct_sum,
    matrix_from_json,
    matrix_to_json,
    parse_quiver_spec,
    problem_to_json,
    random_representation,
    validate_slope,
)

JORDAN_SPEC = """
{
  "vertices": ["v"],
  "arrows": [{"id": "a", "src": "v", "dst": "v"}],
  "dims": {"v": 2},
  "eta": {"v": 0.0},
  "rep": {"a": [[[0, 0], [1, 0]], [[0, 0], [0, 0]]]}
}
"""


def two_vertex_quiver():
    return Quiver(("1", "2"), (Arrow("a", "1", "2"),))


class TestQuiverModel:
    def test_duplicate_vertices_rejected(self):
        with pytest.raises(ValidationError):
            Quiver(("v", "v"), ())

    def test_duplicate_arrows_rejected(self):
        with pytest.raises(ValidationError):
            Quiver(("v",), (Arrow("a", "v", "v"), Arrow("a", "v", "v")))

    def test_dangling_endpoint_rejected(self):
        with pytest.raises(ValidationError):
            Quiver(("v",), (Arrow("a", "v", "w"),))

    def test_representation_shape_check(self):
        q = two_vertex_quiver()
        with pytest.raises(ValidationError, match="'a'"):
            Representation(q, {"1": 2, "2": 3}, {"a": np.zeros((2, 3))})
        Representation(q, {"1": 2, "2": 3}, {"a": np.zeros((3, 2))})  # correct shape

    def test_zero_dimension_vertex_allowed(self):
        q = two_vertex_quiver()
        r = Representation(q, {"1": 0, "2": 2}, {"a": np.zeros((2, 0))})
        assert r.matrices["a"].shape == (2, 0)


class TestSlope:
    def test_balanced(self):
        eta, total = validate_slope({"1": 1.0, "2": -2.0}, {"1": 2, "2": 1})
        assert total == 0.0
        assert eta == {"1": 1.0, "2": -2.0}

    def test_zero_eta(self):
        _, total = validate_slope({"v": 0.0}, {"v": 5})
        assert total == 0.0

    def test_violation(self):
        with pytest.raises(ValidationError, match="2"):
            validate_slope({"1": 1.0, "2": 1.0}, {"1": 1, "2": 1})

    def test_sum_beyond_float_range(self):
        with pytest.raises(ValidationError, match="inf"):
            validate_slope({"v": 0.0}, {"v": 10**400})


class TestParsing:
    def test_minimal_instance(self):
        q, dims, eta, rep = parse_quiver_spec(JORDAN_SPEC)
        assert q.vertices == ("v",)
        assert [a.name for a in q.arrows] == ["a"]
        assert dims == {"v": 2}
        assert eta == {"v": 0.0}
        npt.assert_array_equal(rep.matrices["a"], np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_malformed_json_reports_position(self):
        with pytest.raises(ParseError, match="line"):
            parse_quiver_spec("{ not json")

    def test_shape_mismatch_names_arrow(self):
        obj = json.loads(JORDAN_SPEC)
        obj["rep"]["a"] = [[[0, 0]]]
        with pytest.raises(ValidationError, match="'a'"):
            parse_quiver_spec(json.dumps(obj))

    def test_slope_violation_reports_sum(self):
        obj = json.loads(JORDAN_SPEC)
        obj["eta"] = {"v": 1.0}
        with pytest.raises(ValidationError, match="slope constraint violated: 2"):
            parse_quiver_spec(json.dumps(obj))

    def test_slope_violation_downgradable(self):
        obj = json.loads(JORDAN_SPEC)
        obj["eta"] = {"v": 1.0}
        q, dims, eta, rep = parse_quiver_spec(json.dumps(obj), allow_nonzero_slope=True)
        assert eta == {"v": 1.0}

    @pytest.mark.parametrize(
        "diagonal", [(2, 3), (1, -1)], ids=["positive-definite", "indefinite"]
    )
    def test_metric_key_rejected(self, diagonal):
        # a solve always starts from the identity metric, so an initial
        # metric would be ignored: the key is unknown, valid or not
        obj = json.loads(JORDAN_SPEC)
        a, b = diagonal
        obj["metric"] = {"v": [[[a, 0], [0, 0]], [[0, 0], [b, 0]]]}
        with pytest.raises(ValidationError, match=r"unknown keys \['metric'\]"):
            parse_quiver_spec(json.dumps(obj))

    def test_roundtrip_is_fixed_point(self):
        q, dims, eta, rep = parse_quiver_spec(JORDAN_SPEC)
        text1 = problem_to_json(q, dims, eta, rep)
        q2, dims2, eta2, rep2 = parse_quiver_spec(text1)
        text2 = problem_to_json(q2, dims2, eta2, rep2)
        assert text1 == text2
        npt.assert_array_equal(rep.matrices["a"], rep2.matrices["a"])

    def test_matrix_json_shape_beyond_memory(self):
        obj = json.loads(JORDAN_SPEC)
        obj.update(
            vertices=["v", "w"],
            arrows=[{"id": "a", "src": "v", "dst": "w"}],
            dims={"v": 2**62, "w": 0},
            eta={"v": 0.0, "w": 0.0},
            rep={"a": []},
        )
        with pytest.raises(ValidationError, match="rep\\['a'\\]"):
            parse_quiver_spec(json.dumps(obj))

    def test_matrix_json_roundtrip(self):
        rng = np.random.default_rng(3)
        m = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
        back = matrix_from_json(matrix_to_json(m), (2, 3), "m")
        npt.assert_array_equal(back, m)


class TestRandomRepresentation:
    def test_deterministic(self):
        q = two_vertex_quiver()
        r1 = random_representation(q, {"1": 2, "2": 3}, seed=42)
        r2 = random_representation(q, {"1": 2, "2": 3}, seed=42)
        npt.assert_array_equal(r1.matrices["a"], r2.matrices["a"])

    def test_seed_sensitivity(self):
        q = two_vertex_quiver()
        r1 = random_representation(q, {"1": 2, "2": 3}, seed=1)
        r2 = random_representation(q, {"1": 2, "2": 3}, seed=2)
        assert np.any(r1.matrices["a"] != r2.matrices["a"])

    def test_unit_variance(self):
        q = Quiver(("v",), (Arrow("a", "v", "v"),))
        r = random_representation(q, {"v": 100}, seed=5)
        var = np.mean(np.abs(r.matrices["a"]) ** 2)
        assert abs(var - 1.0) < 0.1


class TestDirectSum:
    def test_dims_add(self):
        q = Quiver(("v",), (Arrow("a", "v", "v"),))
        r1 = random_representation(q, {"v": 1}, seed=0)
        r2 = random_representation(q, {"v": 2}, seed=1)
        s = direct_sum(r1, r2)
        assert s.dims == {"v": 3}

    def test_block_structure(self):
        q = two_vertex_quiver()
        r1 = random_representation(q, {"1": 1, "2": 2}, seed=0)
        r2 = random_representation(q, {"1": 2, "2": 1}, seed=1)
        s = direct_sum(r1, r2)
        m = s.matrices["a"]
        npt.assert_array_equal(m[:2, :1], r1.matrices["a"])
        npt.assert_array_equal(m[2:, 1:], r2.matrices["a"])
        npt.assert_array_equal(m[:2, 1:], np.zeros((2, 2)))
        npt.assert_array_equal(m[2:, :1], np.zeros((1, 1)))

    def test_zero_summand_embeds(self):
        q = Quiver(("v",), (Arrow("a", "v", "v"),))
        r = random_representation(q, {"v": 2}, seed=9)
        z = Representation(q, {"v": 0}, {"a": np.zeros((0, 0))})
        s = direct_sum(r, z)
        npt.assert_array_equal(s.matrices["a"], r.matrices["a"])

    def test_associative_dims(self):
        q = Quiver(("v",), (Arrow("a", "v", "v"),))
        r1 = random_representation(q, {"v": 1}, seed=0)
        r2 = random_representation(q, {"v": 2}, seed=1)
        r3 = random_representation(q, {"v": 1}, seed=2)
        lhs = direct_sum(direct_sum(r1, r2), r3)
        rhs = direct_sum(r1, direct_sum(r2, r3))
        npt.assert_array_equal(lhs.matrices["a"], rhs.matrices["a"])

    def test_quiver_mismatch(self):
        q1 = Quiver(("v",), (Arrow("a", "v", "v"),))
        q2 = Quiver(("w",), (Arrow("a", "w", "w"),))
        r1 = random_representation(q1, {"v": 1}, seed=0)
        r2 = random_representation(q2, {"w": 1}, seed=0)
        with pytest.raises(ValidationError):
            direct_sum(r1, r2)
