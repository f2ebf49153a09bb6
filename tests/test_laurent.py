"""Integer Laurent polynomials, exact division, and the u-coefficients
of the quantum torus."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from valq.laurent import (
    MAX_EXPONENT,
    ArityMismatch,
    ExponentOverflow,
    InexactDivision,
    LaurentPoly,
    ZeroPolynomial,
    _layout,
    _outside,
    exact_div,
    tropical_evaluate,
)
from valq.qtorus import QTorusElem, render_coeff

from conftest import (
    count_products,
    is_bar_invariant,
    shift,
    substitute_monomials,
)


def max_exponents(p):
    """The largest exponent of each variable over the terms of p."""
    exps = p.exponent_terms()
    return tuple(max(e[i] for e in exps) for i in range(p.nvars))


def poly(nvars, terms):
    return LaurentPoly(nvars, terms)


# Strategy: small 2-variable Laurent polynomials with exponents in
# [-3, 3] and coefficients in [-4, 4].
exponents = st.tuples(
    st.integers(min_value=-3, max_value=3),
    st.integers(min_value=-3, max_value=3),
)
small_polys = st.dictionaries(
    exponents, st.integers(min_value=-4, max_value=4), max_size=5
).map(lambda t: LaurentPoly(2, t))
nonzero_polys = small_polys.filter(lambda p: not p.is_zero())


class TestConstruction:
    def test_zero_coefficients_dropped(self):
        p = poly(2, {(1, 0): 0, (0, 1): 3})
        assert p.exponent_terms() == {(0, 1): 3}

    def test_zero_one_variable(self):
        assert LaurentPoly.zero(3).is_zero()
        assert LaurentPoly.one(3).exponent_terms() == {(0, 0, 0): 1}
        x1 = LaurentPoly.variable(3, 0)
        assert x1.exponent_terms() == {(1, 0, 0): 1}
        assert x1.is_monomial()

    def test_monomial(self):
        m = LaurentPoly(2, {(2, -1): 5})
        assert m.exponent_terms() == {(2, -1): 5}
        assert m.is_monomial()

    def test_equality_and_hash(self):
        a = poly(2, {(1, 0): 1, (0, 0): 1})
        b = poly(2, {(0, 0): 1, (1, 0): 1})
        assert a == b
        assert hash(a) == hash(b)
        assert a != poly(2, {(1, 0): 1})

    def test_arity_mismatch(self):
        with pytest.raises(ArityMismatch):
            LaurentPoly.one(2) + LaurentPoly.one(3)
        with pytest.raises(ArityMismatch):
            LaurentPoly(2, {(1,): 1})


class TestArithmetic:
    def test_add_cancellation(self):
        a = poly(1, {(1,): 1})
        b = poly(1, {(1,): -1, (0,): 2})
        assert (a + b).exponent_terms() == {(0,): 2}

    def test_negative_power_of_monomial(self):
        x = LaurentPoly.variable(2, 0)
        assert (x ** -2).exponent_terms() == {(-2, 0): 1}

    def test_binomial_power(self):
        p = LaurentPoly.one(1) + LaurentPoly.variable(1, 0)
        cube = p ** 3
        assert cube.exponent_terms() == {(0,): 1, (1,): 3, (2,): 3, (3,): 1}

    def test_int_scaling(self):
        p = poly(1, {(1,): 2})
        assert (3 * p).exponent_terms() == {(1,): 6}
        assert (p * 0).is_zero()

    @settings(max_examples=60, deadline=None)
    @given(small_polys, small_polys, small_polys)
    def test_ring_axioms(self, a, b, c):
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + LaurentPoly.zero(2) == a
        assert a * LaurentPoly.one(2) == a
        assert a - a == LaurentPoly.zero(2)


def assert_clean(p):
    """A result holds no zero coefficient and no wrong-length exponent,
    and equals, hash included, the polynomial the validating constructor
    builds from its terms."""
    assert all(type(c) is int and c != 0 for c in p.terms.values())
    assert all(
        type(e) is tuple and len(e) == p.nvars for e in p.exponent_terms()
    )
    rebuilt = LaurentPoly(p.nvars, p.exponent_terms())
    assert p == rebuilt and hash(p) == hash(rebuilt)


class TestPowers:
    @settings(max_examples=40, deadline=None)
    @given(small_polys, st.integers(min_value=0, max_value=6))
    def test_power_is_the_repeated_product(self, p, k):
        expected = LaurentPoly.one(2)
        for _ in range(k):
            expected = expected * p
        assert p ** k == expected

    @settings(max_examples=40, deadline=None)
    @given(
        exponents,
        st.sampled_from([1, -1]),
        st.integers(min_value=1, max_value=6),
    )
    def test_negative_power_of_a_unit_monomial(self, exp, c, k):
        m = LaurentPoly(2, {exp: c})
        inverse = m ** -k
        assert inverse == LaurentPoly(2, {tuple(-k * e for e in exp): c ** k})
        assert inverse * m ** k == LaurentPoly.one(2)
        assert_clean(inverse)

    @pytest.mark.parametrize("k, most", [(1, 1), (2, 2), (4, 3)])
    def test_no_square_after_the_last_bit(self, monkeypatch, k, most):
        x = LaurentPoly.one(3) + LaurentPoly.variable(3, 0)
        calls = count_products(monkeypatch, LaurentPoly)
        x ** k
        assert len(calls) <= most


class TestTrustedResults:
    @settings(max_examples=60, deadline=None)
    @given(small_polys, small_polys)
    def test_results_are_clean(self, a, b):
        for result in (a + b, a - b, -a, a * b, a * 3, a * 0, 0 * a, a - a):
            assert_clean(result)
        assert (a - a).terms == {} and (a * 0).terms == {}

    @settings(max_examples=60, deadline=None)
    @given(small_polys, nonzero_polys)
    def test_quotients_are_clean(self, a, b):
        q = exact_div(a * b, b)
        assert_clean(q)
        assert q == a


class TestExactDiv:
    def test_known_quotient(self):
        x = LaurentPoly.variable(1, 0)
        num = x ** 2 - LaurentPoly.one(1)
        den = x + LaurentPoly.one(1)
        assert exact_div(num, den) == x - LaurentPoly.one(1)

    def test_laurent_quotient(self):
        # (x + x^-1) / x^-1 = x^2 + 1.
        x = LaurentPoly.variable(1, 0)
        num = x + x ** -1
        assert exact_div(num, x ** -1) == x ** 2 + LaurentPoly.one(1)

    def test_inexact_raises(self):
        x = LaurentPoly.variable(1, 0)
        with pytest.raises(InexactDivision):
            exact_div(x + LaurentPoly.one(1), x - LaurentPoly.one(1))

    def test_coefficient_inexact_raises(self):
        two = LaurentPoly.one(1) * 2
        three = LaurentPoly.one(1) * 3
        with pytest.raises(InexactDivision):
            exact_div(three, two)

    def test_zero_numerator(self):
        assert exact_div(LaurentPoly.zero(1), LaurentPoly.one(1)).is_zero()

    @settings(max_examples=60, deadline=None)
    @given(small_polys, nonzero_polys)
    def test_round_trip(self, a, b):
        assert exact_div(a * b, b) == a


# Both rings of the shared sparse-term core in two variables, each as a
# monomial builder from an exponent and an int, and its exact division.
RINGS = {
    "LaurentPoly": (lambda exp, c: LaurentPoly(2, {exp: c}), exact_div),
    "QTorusElem": (
        lambda exp, c: QTorusElem.basis_elem(((0, 1), (-1, 0)), exp, c),
        QTorusElem.div_right,
    ),
}


@pytest.fixture(params=sorted(RINGS))
def ring(request):
    return RINGS[request.param]


class TestSharedCore:
    """Division and power edge cases, on both rings."""

    def test_zero_divisor_raises(self, ring):
        mono, div = ring
        with pytest.raises(ZeroDivisionError):
            div(mono((1, 0), 1), mono((0, 0), 0))

    def test_quotient_exponent_out_of_the_box_raises(self, ring):
        # x1 / (x1 + x2) leaves -x2, whose quotient exponent (-1, 1)
        # falls below the box corner (1, 0) - (1, 1) = (0, -1).
        mono, div = ring
        with pytest.raises(InexactDivision, match="out of range"):
            div(mono((1, 0), 1), mono((1, 0), 1) + mono((0, 1), 1))

    def test_negative_power_of_sum_rejected(self, ring):
        mono, _ = ring
        with pytest.raises(InexactDivision):
            (mono((0, 0), 1) + mono((1, 0), 1)) ** -1

    def test_negative_power_of_a_non_unit_monomial_rejected(self, ring):
        mono, _ = ring
        with pytest.raises(InexactDivision):
            mono((1, -1), 2) ** -1

    def test_zeroth_power_is_one(self, ring):
        mono, _ = ring
        assert (mono((0, 0), 1) + mono((1, -1), 3)) ** 0 == mono((0, 0), 1)


class TestKeptValues:
    """An element keeps its sort key and minimal exponents, like its
    hash, once computed: the kept values must equal recomputed ones, and
    the results of arithmetic keep none of their operands'."""

    @pytest.mark.parametrize("name", sorted(RINGS))
    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(exponents, st.integers(-4, 4).filter(bool)),
            min_size=1,
            max_size=4,
        ),
        st.lists(
            st.tuples(exponents, st.integers(-4, 4).filter(bool)),
            min_size=1,
            max_size=4,
        ),
    )
    def test_kept_values_equal_recomputed_ones(self, name, left, right):
        mono, _ = RINGS[name]
        a, b = (
            sum((mono(*t) for t in ts[1:]), mono(*ts[0])) for ts in (left, right)
        )
        for x in (a, b, a * b):
            if x.is_zero():
                continue
            key, mins = x.sort_key(), x.min_exponents()
            assert x.sort_key() is key and x.min_exponents() is mins
            assert key == type(x).sort_key(x._like(x.terms, x._bound))
            exps = x.exponent_terms()
            assert mins == tuple(min(e[i] for e in exps) for i in range(2))
            assert x.denominator_vector(1) == (-mins[0],)
        if not (a.is_zero() or b.is_zero()):
            # both rings are domains: a product's least exponents are the
            # sums of its factors'
            want = tuple(map(sum, zip(a.min_exponents(), b.min_exponents())))
            assert (a * b).min_exponents() == want


# Exponent vectors of 1 to 8 variables, each entry drawn often from
# the two ends of the packed range.
edge_exponents = st.one_of(
    st.sampled_from([-MAX_EXPONENT, MAX_EXPONENT, 0]),
    st.integers(min_value=-MAX_EXPONENT, max_value=MAX_EXPONENT),
)
edge_vectors = st.integers(min_value=1, max_value=8).flatmap(
    lambda n: st.lists(st.tuples(*[edge_exponents] * n), min_size=1, max_size=6)
)
# Two-variable polynomials whose exponents reach past half the range.
steep_polys = st.dictionaries(
    st.tuples(*[st.integers(-MAX_EXPONENT, MAX_EXPONENT)] * 2),
    st.integers(min_value=-3, max_value=3).filter(bool),
    min_size=1,
    max_size=4,
).map(lambda t: LaurentPoly(2, t))


def tuple_product(a, b):
    """The product of two polynomials' exponent terms, on tuples."""
    out = {}
    for ea, ca in a.exponent_terms().items():
        for eb, cb in b.exponent_terms().items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def tuple_sum(a, b):
    """The sum of two polynomials' exponent terms, on tuples."""
    out = dict(a.exponent_terms())
    for e, c in b.exponent_terms().items():
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


@st.composite
def accumulate_pairs(draw):
    """Two polynomials in 1 to 3 variables, drawn free, as a and -a (a
    sum that cancels to zero), as a and a partial negation of it, or as a
    geometric sum a and b = x^s - 1, whose product cancels every term but
    its two ends."""
    n = draw(st.integers(min_value=1, max_value=3))
    exps = st.tuples(*[st.integers(min_value=-3, max_value=3)] * n)
    terms = st.dictionaries(exps, st.integers(min_value=-4, max_value=4), max_size=6)
    a, b = draw(terms), draw(terms)
    mode = draw(st.sampled_from(["free", "negated", "partial", "telescoping"]))
    if mode == "negated":
        b = {e: -c for e, c in a.items()}
    elif mode == "partial":
        b.update({e: -c for e, c in a.items() if draw(st.booleans())})
    elif mode == "telescoping":
        s = draw(exps.filter(any))
        c = draw(st.integers(min_value=1, max_value=4))
        a = {tuple(k * x for x in s): c for k in range(draw(st.integers(1, 3)))}
        b = {s: 1, (0,) * n: -1}
    return LaurentPoly(n, a), LaurentPoly(n, b)


class TestMultiplyAccumulate:
    """Sums, products and exact quotients, all on the one sparse
    multiply-accumulate, against convolution on exponent tuples."""

    @settings(max_examples=200, deadline=None)
    @given(accumulate_pairs())
    def test_sum_product_and_quotient_match_tuples(self, pair):
        a, b = pair
        assert (a + b).exponent_terms() == tuple_sum(a, b)
        product = tuple_product(a, b)
        assert (a * b).exponent_terms() == product
        if not b.is_zero():
            num = LaurentPoly(a.nvars, product)
            assert exact_div(num, b).exponent_terms() == a.exponent_terms()


class TestPackedKeys:
    @settings(max_examples=80, deadline=None)
    @given(edge_vectors)
    def test_round_trip_at_both_ends(self, vectors):
        lay = _layout(len(vectors[0]))
        for exp in vectors:
            assert lay.unpack(lay.pack(exp)) == exp
            assert LaurentPoly(len(exp), {exp: 1}).exponent_terms() == {exp: 1}

    @settings(max_examples=80, deadline=None)
    @given(edge_vectors)
    def test_key_order_is_lexicographic(self, vectors):
        lay = _layout(len(vectors[0]))
        keys = sorted(lay.pack(exp) for exp in vectors)
        assert [lay.unpack(k) for k in keys] == sorted(vectors)

    @settings(max_examples=120, deadline=None)
    @given(edge_vectors)
    def test_box_test_is_coordinatewise(self, vectors):
        # As in the division loop: a candidate key formed from a leading
        # key and the divisor's, whose fields may leave the range.
        lay = _layout(len(vectors[0]))
        lead, den_lead, lo, hi = (vectors * 4)[:4]
        q_key = lay.pack(lead) - lay.pack(den_lead) + lay.bias
        q = [x - y for x, y in zip(lead, den_lead)]
        want = any(not a <= x <= b for x, a, b in zip(q, lo, hi))
        assert _outside(q_key, lay.pack(lo), lay.pack(hi), lay.guard) == want

    @settings(max_examples=80, deadline=None)
    @given(edge_vectors)
    def test_corners_are_fieldwise(self, vectors):
        lay = _layout(len(vectors[0]))
        lo, hi = lay.corners([lay.pack(exp) for exp in vectors])
        assert lay.unpack(lo) == tuple(map(min, zip(*vectors)))
        assert lay.unpack(hi) == tuple(map(max, zip(*vectors)))

    @settings(max_examples=150, deadline=None)
    @given(steep_polys, steep_polys)
    def test_overflow_before_any_key_wraps(self, a, b):
        # A product raises exactly when the product on tuples leaves the
        # range, and otherwise equals it; so does the quotient by b.
        want = tuple_product(a, b)
        if any(abs(x) > MAX_EXPONENT for e in want for x in e):
            with pytest.raises(ExponentOverflow):
                a * b
            return
        got = a * b
        assert got.exponent_terms() == want
        assert exact_div(got, b) == a

    @settings(max_examples=60, deadline=None)
    @given(steep_polys, st.integers(min_value=2, max_value=5))
    def test_power_overflow_is_raised_up_front(self, p, k):
        top = max(map(abs, p.min_exponents() + max_exponents(p)))
        if top * k <= MAX_EXPONENT:
            assert p ** k == p ** (k - 1) * p
            return
        # No product may run before the check: each would call None.
        real = LaurentPoly.__mul__
        LaurentPoly.__mul__ = None
        try:
            with pytest.raises(ExponentOverflow):
                p ** k
        finally:
            LaurentPoly.__mul__ = real

    def test_inputs_out_of_range_rejected(self):
        with pytest.raises(ExponentOverflow):
            LaurentPoly(2, {(MAX_EXPONENT + 1, 0): 1})
        with pytest.raises(ExponentOverflow):
            QTorusElem.basis_elem(((0, 1), (-1, 0)), (0, -MAX_EXPONENT - 1))
        assert LaurentPoly.one(2).coefficient((MAX_EXPONENT + 1, 0)) == 0

    def test_bounds_near_the_range(self):
        # Propagated bounds (4000 + 4000 for big, then 8000 + 7999)
        # pass the range; the exact boxes do not.
        x = LaurentPoly.variable(2, 0)
        y = LaurentPoly.variable(2, 1)
        big = x ** 4000 * x ** 4000
        assert exact_div(big, x ** 7999) == x
        assert max_exponents(big * y ** 8000) == (8000, 8000)
        with pytest.raises(ExponentOverflow):
            big * x ** 192
        with pytest.raises(ExponentOverflow):
            exact_div(x ** -8000, x ** 192)


class TestExponentGeometry:
    def test_min_max_and_denominator(self):
        p = poly(2, {(-1, 2): 1, (0, -3): 4})
        assert p.min_exponents() == (-1, -3)
        assert max_exponents(p) == (0, 2)
        assert p.denominator_vector() == (1, 3)
        assert p.denominator_vector(upto=1) == (1,)

    def test_zero_has_no_range(self):
        with pytest.raises(ZeroPolynomial):
            LaurentPoly.zero(2).min_exponents()

    def test_shift(self):
        p = poly(2, {(0, 0): 1, (1, 0): 1})
        assert shift(p, (0, -1)).exponent_terms() == {(0, -1): 1, (1, -1): 1}


class TestSubstitution:
    def test_specialize_ones_merges_terms(self):
        p = poly(2, {(1, 1): 1, (1, 0): 1})
        assert p.specialize_ones([1]).exponent_terms() == {(1, 0): 2}

    def test_drop_vars(self):
        p = poly(3, {(1, 0, 2): 5})
        q = p.drop_vars([0, 2])
        assert q.nvars == 2 and q.exponent_terms() == {(1, 2): 5}

    def test_drop_vars_guards_support(self):
        p = poly(3, {(1, 1, 0): 1})
        with pytest.raises(ArityMismatch):
            p.drop_vars([0, 2])

    def test_substitute_monomials(self):
        # x1 -> z1*z2, x2 -> z2^-1 applied to x1*x2 + 1.
        p = poly(2, {(1, 1): 1, (0, 0): 1})
        q = substitute_monomials(p, 2, [(1, 1), (0, -1)])
        assert q.exponent_terms() == {(1, 0): 1, (0, 0): 1}


class TestRender:
    def test_descending_terms_and_signs(self):
        p = poly(2, {(1, 0): 1, (-1, 2): -3, (0, 0): 1})
        assert p.render() == "x1 + 1 - 3*x1^-1*x2^2"

    def test_custom_names(self):
        p = poly(2, {(1, 1): 1, (1, 0): 1})
        assert p.render(["y1", "y2"]) == "y1*y2 + y1"

    def test_zero(self):
        assert LaurentPoly.zero(2).render() == "0"


class TestTropical:
    def test_min_plus_of_terms(self):
        # Terms x1 and x2^2 under x1 -> (1, 0), x2 -> (0, -1).
        p = poly(2, {(1, 0): 1, (0, 2): 1})
        val = tropical_evaluate(p, [(1, 0), (0, -1)])
        assert val == (0, -2)

    def test_negative_coefficient_rejected(self):
        p = poly(1, {(1,): -1})
        with pytest.raises(ValueError):
            tropical_evaluate(p, [(1, 0)])

    def test_monomial_is_linear(self):
        p = poly(2, {(2, -1): 3})
        assert tropical_evaluate(p, [(1, 1), (0, 1)]) == (2, 1)


class TestQCoeff:
    """The u-coefficients of the quantum torus, read as {u-exponent: int}
    dicts, with quotients taken by ``exact_div`` in one variable."""

    LAM = ((0, 1), (-1, 0))

    def c(self, coeff):
        """``coeff`` as the constant term of a rank-2 torus element."""
        return QTorusElem.basis_elem(self.LAM, (0, 0), coeff)

    @staticmethod
    def u(coeff):
        return LaurentPoly(1, {(k,): c for k, c in coeff.items()})

    def test_u_power_and_integer(self):
        assert self.c({2: 1}).sorted_terms() == [((0, 0), {2: 1})]
        assert self.c(-3).sorted_terms() == [((0, 0), {0: -3})]
        assert self.c(0).is_zero()
        assert self.c({1: 0}).is_zero()

    def test_arithmetic(self):
        a = self.c({1: 1, -1: 1})
        b = self.c({1: 1})
        assert (a * b).sorted_terms() == [((0, 0), {2: 1, 0: 1})]
        assert (a - a).is_zero()

    def test_bar_negates_exponents(self):
        a = self.c({2: 1, 0: 3})
        assert a.bar().sorted_terms() == [((0, 0), {-2: 1, 0: 3})]
        assert not is_bar_invariant(a)
        assert is_bar_invariant(self.c({1: 1, -1: 1}))

    def test_specialize(self):
        a = self.c({2: 1, 0: 3})
        assert a.specialize_q1() == LaurentPoly(2, {(0, 0): 4})

    def test_qdiv_round_trip(self):
        a = self.u({3: 1, 0: 2})
        b = self.u({-1: 1, 1: 1})
        assert exact_div(a * b, b) == a

    def test_qdiv_inexact(self):
        with pytest.raises(InexactDivision):
            exact_div(self.u({1: 1, 0: 1}), self.u({0: 2}))

    def test_render(self):
        assert render_coeff({1: 1, -1: 1}) == "u + u^-1"
        assert render_coeff({2: 1, 0: 1, -2: 1}) == "u^2 + 1 + u^-2"
        assert render_coeff({3: -2, 0: 1, -1: -1}) == "-2*u^3 + 1 - u^-1"
        assert render_coeff({}) == "0"
