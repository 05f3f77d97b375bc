"""Tests for the exact normal-ordering layer and the Gaussian state."""

import sys
from fractions import Fraction

import numpy as np
import pytest

from momentmap.errors import ValidationError
from momentmap.fock import (
    HbarPoly,
    NormalForm,
    QQi,
    Word,
    dbar,
    gram_matrix,
    nf_multiply,
    normal_order,
    state_rho,
    verify_state_identities,
)


def rand_scalar(rng) -> QQi:
    return QQi(
        Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 10))),
        Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 10))),
    )


def rand_word(rng, n: int, max_len: int = 8) -> Word:
    length = int(rng.integers(0, max_len + 1))
    letters = tuple(
        (int(rng.integers(1, n + 1)), bool(rng.integers(0, 2))) for _ in range(length)
    )
    return Word(n, letters, rand_scalar(rng))


class TestQQi:
    def test_coercions(self):
        assert QQi.of(3) == QQi(Fraction(3))
        assert QQi.of(Fraction(2, 7)) == QQi(Fraction(2, 7))
        assert QQi.of(1.5 - 2.5j) == QQi(Fraction(3, 2), Fraction(-5, 2))
        x = QQi(Fraction(1), Fraction(2))
        assert QQi.of(x) is x

    def test_arithmetic(self):
        a = QQi(Fraction(1), Fraction(2))
        b = QQi(Fraction(3), Fraction(-1))
        assert a * b == QQi(Fraction(5), Fraction(5))
        assert a + b == QQi(Fraction(4), Fraction(1))
        assert a - b == QQi(Fraction(-2), Fraction(3))
        assert -a == QQi(Fraction(-1), Fraction(-2))
        assert a.conjugate() == QQi(Fraction(1), Fraction(-2))
        assert 2 + a == QQi(Fraction(3), Fraction(2))
        assert 2 * a == QQi(Fraction(2), Fraction(4))

    def test_abs2_exact(self):
        assert QQi(Fraction(1, 2), Fraction(1, 3)).abs2() == Fraction(13, 36)

    def test_truthiness(self):
        assert not QQi()
        assert QQi(Fraction(0), Fraction(1, 5))

    def test_mixed_product_promotes_to_polynomial(self):
        result = QQi.of(2) * HbarPoly.hbar()
        assert isinstance(result, HbarPoly)
        assert result == HbarPoly({1: QQi.of(2)})

    def test_nonfinite_rejected(self):
        with pytest.raises(ValidationError):
            QQi.of(float("inf"))

    @pytest.mark.parametrize(
        "re,im", [("a", 1), (1, "b"), (float("nan"), 0), (0, float("nan")), (True, 0), (0, False)]
    )
    def test_constructor_rejects_bad_parts(self, re, im):
        with pytest.raises(ValidationError):
            QQi(re, im)

    def test_constructor_stores_exact_fractions(self):
        z = QQi(2, 0.5)
        assert (z.re, z.im) == (Fraction(2), Fraction(1, 2))
        assert type(z.re) is Fraction and type(z.im) is Fraction
        assert QQi(np.int64(3)) == QQi(Fraction(3))


class TestHbarPoly:
    def test_zero_coefficients_stripped(self):
        p = HbarPoly({0: QQi.of(0), 2: QQi.of(1)})
        assert p.coeffs == {2: QQi.of(1)}

    def test_ring_operations(self):
        one = HbarPoly.of(1)
        h = HbarPoly.hbar()
        assert (one + h) * (one - h) == one - HbarPoly.hbar(2)
        assert h * h == HbarPoly.hbar(2)
        assert 3 * h == HbarPoly({1: QQi.of(3)})
        assert (h - h) == HbarPoly({})
        assert not (h - h)

    def test_evaluation(self):
        p = HbarPoly({0: QQi.of(2), 2: QQi(Fraction(1, 3))})
        exact = p.evaluate_exact(Fraction(3, 2))
        assert exact == QQi(Fraction(2) + Fraction(1, 3) * Fraction(9, 4))
        assert p.evaluate(1.5) == pytest.approx(2 + 9 / 12)

    def test_equal_polynomials_evaluate_to_equal_floats(self):
        # In insertion order, (0.1 + 0.2) + 0.3 and (0.3 + 0.2) + 0.1 differ.
        tenths = {d: QQi(Fraction(d + 1, 10)) for d in range(3)}
        up = HbarPoly(tenths)
        down = HbarPoly(dict(reversed(tenths.items())))
        assert up == down
        assert up.evaluate(1.0) == down.evaluate(1.0) == 0.6000000000000001

    def test_conjugate(self):
        p = HbarPoly({1: QQi(Fraction(0), Fraction(2))})
        assert p.conjugate() == HbarPoly({1: QQi(Fraction(0), Fraction(-2))})

    def test_negative_degree_rejected(self):
        with pytest.raises(ValidationError):
            HbarPoly({-1: QQi.of(1)})

    @pytest.mark.parametrize("degree", [True, False, 1.0, "1"])
    def test_non_integer_degree_rejected(self, degree):
        with pytest.raises(ValidationError, match="hbar degree"):
            HbarPoly({degree: QQi.of(1)})

    def test_numpy_integer_degree_stored_as_int(self):
        p = HbarPoly({np.int64(2): QQi.of(1)})
        assert p == HbarPoly.hbar(2) == HbarPoly.hbar(np.int32(2))
        assert [type(d) for d in p.coeffs] == [int]

    def test_equality_against_scalars_and_junk(self):
        assert HbarPoly.of(3) == 3
        assert not (HbarPoly.of(3) == "three")

    def test_normal_form_not_a_coefficient(self):
        with pytest.raises(ValidationError, match="NormalForm"):
            HbarPoly.of(NormalForm.one(1))


def letter_fold(words) -> NormalForm:
    """Normal form of a word sum by right multiplication, one letter at a time."""
    total = NormalForm.zero(words[0].n)
    for w in words:
        acc = NormalForm.one(w.n).scale(HbarPoly({0: w.scalar}))
        for idx, star in w.letters:
            acc = acc.mul_zstar(idx) if star else acc.mul_z(idx)
        total = total + acc
    return total


class TestWord:
    def test_validation(self):
        with pytest.raises(ValidationError):
            Word(0, ())
        with pytest.raises(ValidationError):
            Word(2, ((3, False),))
        for letters in ([1], 5, "ab", [(1,)], [(1, True, 3)], [(1, "yes")], [(1, 2)], [(1, None)]):
            with pytest.raises(ValidationError):
                Word(1, letters)
        with pytest.raises(ValidationError):
            Word(1, ()).concat(5)

    def test_numpy_bool_flag_accepted(self):
        w = Word(1, [[1, np.True_], (np.int64(1), np.False_)])
        assert w.letters == ((1, True), (1, False))
        assert [type(s) for _, s in w.letters] == [bool, bool]

    def test_star_reverses_and_flips(self):
        w = Word(2, ((1, False), (2, True)), QQi(Fraction(0), Fraction(1)))
        s = w.star()
        assert s.letters == ((2, False), (1, True))
        assert s.scalar == QQi(Fraction(0), Fraction(-1))
        assert w.star().star() == w

    def test_concat(self):
        a = Word(2, ((1, False),), QQi.of(2))
        b = Word(2, ((2, True),), QQi.of(3))
        ab = a.concat(b)
        assert ab.letters == ((1, False), (2, True))
        assert ab.scalar == QQi.of(6)
        with pytest.raises(ValidationError):
            a.concat(Word(3, ()))


class TestNormalOrder:
    def test_star_then_plain_produces_ladder_term(self):
        # z1* z1  ->  z1 z1* + hbar
        w = Word(1, ((1, True), (1, False)))
        expected = NormalForm(
            1, {((1,), (1,)): HbarPoly.of(1), ((0,), (0,)): HbarPoly.hbar()}
        )
        assert normal_order(w) == expected

    def test_plain_product_is_already_ordered(self):
        w = Word(2, ((1, False), (2, False)))
        assert normal_order(w) == NormalForm.monomial(2, (1, 1), (0, 0))

    def test_double_star_single_plain(self):
        # z1* z1* z1  ->  z1 (z1*)^2 + 2 hbar z1*
        w = Word(1, ((1, True), (1, True), (1, False)))
        expected = NormalForm(
            1,
            {
                ((1,), (2,)): HbarPoly.of(1),
                ((0,), (1,)): HbarPoly({1: QQi.of(2)}),
            },
        )
        assert normal_order(w) == expected

    def test_distinct_variables_commute_without_ladder(self):
        w = Word(2, ((1, True), (2, False)))
        assert normal_order(w) == NormalForm.monomial(2, (0, 1), (1, 0))

    def test_scalar_is_carried(self):
        s = QQi(Fraction(2, 3), Fraction(-1, 4))
        w = Word(1, ((1, False),), s)
        assert normal_order(w) == NormalForm.monomial(1, (1,), (0,), s)

    def test_sum_of_words_is_additive(self):
        rng = np.random.default_rng(11)
        w1, w2 = rand_word(rng, 2, 5), rand_word(rng, 2, 5)
        assert normal_order([w1, w2]) == normal_order(w1) + normal_order(w2)

    def test_empty_sum_rejected(self):
        with pytest.raises(ValidationError, match="empty"):
            normal_order([])

    def test_mixed_generator_counts_rejected(self):
        with pytest.raises(ValidationError):
            normal_order([Word(1, ()), Word(2, ())])

    def test_non_word_rejected(self):
        with pytest.raises(ValidationError):
            normal_order([Word(1, ()), "z"])
        with pytest.raises(ValidationError):
            normal_order(["z", Word(1, ())])
        with pytest.raises(ValidationError, match="Word"):
            normal_order(42)

    def test_equals_letter_fold(self):
        rng = np.random.default_rng(26)
        for _ in range(150):
            w = rand_word(rng, int(rng.integers(1, 4)), 16)
            assert normal_order(w) == letter_fold([w])
        for _ in range(30):
            n = int(rng.integers(1, 4))
            words = [rand_word(rng, n) for _ in range(int(rng.integers(1, 4)))]
            words += [Word(n, words[0].letters, 0), Word(n, words[0].letters, -words[0].scalar)]
            assert normal_order(words) == letter_fold(words)

    def test_single_variable_matches_binomial_closed_form(self):
        for m in range(21):
            for p in range(21):
                w = Word(1, ((1, True),) * m + ((1, False),) * p)
                closed = nf_multiply(
                    NormalForm.monomial(1, (0,), (m,)), NormalForm.monomial(1, (p,), (0,))
                )
                assert normal_order(w) == closed


class TestMultiplicativityAndInvolution:
    def test_normal_order_is_multiplicative(self):
        rng = np.random.default_rng(5)
        for _ in range(60):
            n = int(rng.integers(1, 4))
            w1, w2 = rand_word(rng, n), rand_word(rng, n)
            lhs = normal_order(w1.concat(w2))
            rhs = nf_multiply(normal_order(w1), normal_order(w2))
            assert lhs == rhs

    def test_normal_order_intertwines_star(self):
        rng = np.random.default_rng(6)
        for _ in range(60):
            n = int(rng.integers(1, 4))
            w = rand_word(rng, n)
            assert normal_order(w.star()) == normal_order(w).star()

    def test_product_is_associative(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = int(rng.integers(1, 3))
            a, b, c = (normal_order(rand_word(rng, n, 5)) for _ in range(3))
            assert nf_multiply(nf_multiply(a, b), c) == nf_multiply(a, nf_multiply(b, c))

    def test_star_is_an_antihomomorphism(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            n = int(rng.integers(1, 3))
            a = normal_order(rand_word(rng, n, 5))
            b = normal_order(rand_word(rng, n, 5))
            assert nf_multiply(a, b).star() == nf_multiply(b.star(), a.star())

    def test_mismatched_counts_rejected(self):
        with pytest.raises(ValidationError):
            nf_multiply(NormalForm.one(1), NormalForm.one(2))
        with pytest.raises(ValidationError):
            nf_multiply(NormalForm.one(1), "x")


class TestGaussianState:
    def test_unit_normalization(self):
        assert state_rho(NormalForm.one(1), Fraction(3, 2)) == HbarPoly.of(1)

    def test_ordered_pair_gives_rho(self):
        zzbar = NormalForm.monomial(1, (1,), (1,))
        assert state_rho(zzbar, Fraction(3, 2)) == HbarPoly.of(Fraction(3, 2))

    def test_reversed_pair_gains_hbar(self):
        w = Word(1, ((1, True), (1, False)))
        rho = Fraction(3, 2)
        assert state_rho(normal_order(w), rho) == HbarPoly({0: QQi.of(rho), 1: QQi.of(1)})

    def test_unbalanced_monomials_vanish(self):
        assert state_rho(NormalForm.monomial(1, (2,), (1,)), Fraction(1)) == HbarPoly({})

    def test_factorial_weights_per_variable(self):
        m = NormalForm.monomial(2, (2, 1), (2, 1))
        rho = Fraction(1, 3)
        assert state_rho(m, rho) == HbarPoly.of(2 * rho**3)

    def test_linearity(self):
        rng = np.random.default_rng(9)
        a = normal_order(rand_word(rng, 2, 6))
        b = normal_order(rand_word(rng, 2, 6))
        rho = Fraction(2, 5)
        assert state_rho(a + b, rho) == state_rho(a, rho) + state_rho(b, rho)

    def test_float_rho_accepted(self):
        assert state_rho(NormalForm.monomial(1, (1,), (1,)), 0.5) == HbarPoly.of(
            Fraction(1, 2)
        )

    def test_type_checks(self):
        with pytest.raises(ValidationError):
            state_rho("z", Fraction(1))
        with pytest.raises(ValidationError):
            state_rho(NormalForm.one(1), float("nan"))


class TestDbar:
    def test_kills_plain_and_differentiates_starred(self):
        assert dbar(NormalForm.monomial(1, (1,), (0,)), 1) == NormalForm.zero(1)
        assert dbar(NormalForm.monomial(1, (0,), (1,)), 1) == NormalForm.one(1)

    def test_power_rule(self):
        x = NormalForm.monomial(1, (2,), (3,))
        assert dbar(x, 1) == NormalForm.monomial(1, (2,), (2,), 3)

    def test_acts_per_variable(self):
        x = NormalForm.monomial(2, (0, 0), (1, 2))
        assert dbar(x, 2) == NormalForm.monomial(2, (0, 0), (1, 1), 2)
        assert dbar(x, 1) == NormalForm.monomial(2, (0, 0), (0, 2))

    def test_index_validated(self):
        with pytest.raises(ValidationError):
            dbar(NormalForm.one(2), 3)


class TestStateIdentities:
    def test_exact_zero_one_variable(self):
        assert verify_state_identities(1, 6, Fraction(2, 3), Fraction(1, 5)) == 0.0

    def test_exact_zero_two_variables(self):
        assert verify_state_identities(2, 6, Fraction(1, 2), Fraction(1, 3)) == 0.0

    def test_exact_zero_integer_parameters(self):
        assert verify_state_identities(2, 4, 2, 1) == 0.0

    def test_float_mode_is_small(self):
        assert verify_state_identities(1, 4, 0.7, 0.3) < 1e-12

    def test_validation(self):
        with pytest.raises(ValidationError):
            verify_state_identities(0, 4, Fraction(1), Fraction(1))
        with pytest.raises(ValidationError):
            verify_state_identities(1, -1, Fraction(1), Fraction(1))

    def test_bool_degree_rejected(self):
        with pytest.raises(ValidationError, match="max_degree"):
            verify_state_identities(1, True, Fraction(1), Fraction(1))


class TestGramMatrix:
    def test_two_variable_gram_is_positive(self):
        g = gram_matrix(2, 4, Fraction(1, 2), Fraction(1, 2))
        assert g.shape == (70, 70)
        assert np.max(np.abs(g - g.conj().T)) < 1e-12
        eigs = np.linalg.eigvalsh(g)
        assert eigs[0] > -1e-10

    def test_one_variable_gram_is_positive(self):
        g = gram_matrix(1, 4, Fraction(1), Fraction(1, 3))
        assert np.max(np.abs(g - g.conj().T)) < 1e-12
        assert np.linalg.eigvalsh(g)[0] > -1e-10

    def test_validation(self):
        with pytest.raises(ValidationError):
            gram_matrix(0, 4, 1, 1)

    @pytest.mark.parametrize("degree", [-1, 2.5, True])
    def test_degree_validated(self, degree):
        with pytest.raises(ValidationError, match="max_degree"):
            gram_matrix(1, degree, 1, 1)


class TestValidateOnce:
    def test_checks_do_not_grow_with_terms(self, monkeypatch):
        from momentmap import checks

        def form(degree):
            terms = {
                (k, l): HbarPoly({0: QQi(Fraction(1 + sum(k), 1 + sum(l))), 1: 1})
                for k in [(a, b) for a in range(degree) for b in range(degree)]
                for l in [(1, 0), (0, 2)]
            }
            return NormalForm(2, terms)

        small, large = form(2), form(5)
        calls = []
        original = checks.check_exponents

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        for name, mod in list(sys.modules.items()):
            if name == "momentmap" or name.startswith("momentmap."):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        monkeypatch.setattr(mod, key, counted)
        post_init = HbarPoly.__post_init__

        def counted_post_init(self):
            calls.append(1)
            post_init(self)

        monkeypatch.setattr(HbarPoly, "__post_init__", counted_post_init)
        product = nf_multiply(small, small.star())
        few = len(calls)
        assert len(product.terms) > len(small.terms)
        nf_multiply(large, large.star())
        assert len(large.terms) > 3 * len(small.terms)
        assert len(calls) - few == few
