"""Quantum torus elements and quantum seed mutation."""

import copy
import json
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from valq import matrices as mx
from valq.classical import ClassicalSeed, enumerate_exchange_graph
from valq.exchange import ExchangeData, build_exchange_data, builtin_exchange_data
from valq.laurent import InexactDivision, LaurentPoly, exact_div
from valq.qtorus import (
    GraphResult,
    LambdaMismatch,
    NonUnitLead,
    QTorusElem,
    QuantumSeed,
    enumerate_quantum_seeds,
    walk_seeds,
)
from valq.verify import VerificationReport, _SeedPair

from conftest import context_for, count_products, is_bar_invariant, reference_walk
from test_exchange import (
    acyclic_skew_symmetrizable,
    all_acyclic_skew_symmetrizable,
)

B2 = builtin_exchange_data("B2")
A2 = builtin_exchange_data("A2")
F4_MATRIX = json.loads(
    (Path(__file__).resolve().parents[1] / "bench" / "f4.json").read_text()
)["B"]

vec4 = st.tuples(*([st.integers(min_value=-2, max_value=2)] * 4))

# Coefficients with two or three powers of u.
multi_coeff = st.dictionaries(
    st.integers(min_value=-2, max_value=2),
    st.integers(min_value=-3, max_value=3).filter(bool),
    min_size=2,
    max_size=3,
)


def X(exp, coeff=1):
    return QTorusElem.basis_elem(B2.lam, exp, coeff)


def elem(terms):
    out = QTorusElem.zero(B2.lam)
    for exp, coeff in terms.items():
        out = out + X(exp, coeff)
    return out


class TestTorusArithmetic:
    def test_product_twists_by_lambda(self):
        a, b = (1, 0, 0, 0), (0, 0, 1, 0)
        assert X(a) * X(b) == X((1, 0, 1, 0), {B2.lam_pairing(a, b): 1})
        assert B2.lam_pairing(a, b) == -2

    @settings(max_examples=50, deadline=None)
    @given(vec4, vec4)
    def test_commutation_rule(self, a, b):
        lhs = X(a) * X(b)
        assert lhs == (X(b) * X(a)).shift_u(2 * B2.lam_pairing(a, b))
        assert lhs == X(tuple(x + y for x, y in zip(a, b)), {B2.lam_pairing(a, b): 1})

    def test_scale_and_shift(self):
        x = X((1, 0, 0, 0))
        assert x.scale(3) == x + x + x
        assert x.shift_u(2) == x.scale({2: 1})

    def test_power_of_monomial(self):
        x = X((1, 0, -1, 0))
        sq = x ** 2
        ((exp, coeff),) = sq.exponent_terms().items()
        assert exp == (2, 0, -2, 0)
        # Normalized monomials stay normalized under powers.
        assert is_bar_invariant(sq)

    def test_bar_is_an_antiautomorphism(self):
        x = X((1, 0, 0, 0)) + X((0, 1, 0, 0), {1: 1})
        y = X((0, 0, 1, 0)) - X((0, 0, 0, 1))
        assert x.bar().bar() == x
        assert (x * y).bar() == y.bar() * x.bar()

    def test_normalized_monomials_are_bar_invariant(self):
        assert is_bar_invariant(X((1, 2, -1, 0)))
        assert not is_bar_invariant(X((1, 0, 0, 0), {1: 1}))

    def test_mismatched_forms_rejected(self):
        other = QTorusElem.basis_elem(A2.lam, (1, 0, 0, 0))
        with pytest.raises(LambdaMismatch):
            X((1, 0, 0, 0)) + other

    def test_specialize_q1_forgets_the_twist(self):
        x = X((1, 0, 0, 0), {3: 1}) + X((0, 1, 0, 0), 2)
        p = x.specialize_q1()
        assert p.exponent_terms() == {(1, 0, 0, 0): 1, (0, 1, 0, 0): 2}


small_elems = st.dictionaries(
    vec4,
    st.one_of(st.integers(min_value=-2, max_value=2).filter(bool), multi_coeff),
    max_size=3,
).map(elem)


class TestPowers:
    @settings(max_examples=30, deadline=None)
    @given(small_elems, st.integers(min_value=0, max_value=6))
    def test_power_is_the_repeated_product(self, x, k):
        expected = QTorusElem.one(B2.lam)
        for _ in range(k):
            expected = expected * x
        assert x ** k == expected

    @settings(max_examples=30, deadline=None)
    @given(
        vec4,
        st.integers(min_value=-2, max_value=2),
        st.sampled_from([1, -1]),
        st.integers(min_value=1, max_value=6),
    )
    def test_negative_power_of_a_unit_monomial(self, a, s, c, k):
        x = X(a, {s: c})
        one = QTorusElem.one(B2.lam)
        assert x ** -k * x ** k == one
        assert x ** k * x ** -k == one

    @pytest.mark.parametrize("k, most", [(1, 1), (2, 2), (4, 3)])
    def test_no_square_after_the_last_bit(self, monkeypatch, k, most):
        x = X((1, 0, 0, 0)) + X((0, 0, 1, 0), {1: 1})
        calls = count_products(monkeypatch, QTorusElem)
        x ** k
        assert len(calls) <= most


class TestDivRight:
    def test_round_trip(self):
        num = X((1, 0, 0, 0)) + X((0, 1, 1, 0), {-1: 1})
        den = X((0, 0, 1, 1))
        assert (num * den).div_right(den) == num

    @settings(max_examples=40, deadline=None)
    @given(vec4, vec4, vec4)
    def test_round_trip_random(self, a, b, d):
        num = X(a) + X(b, {1: 1})
        den = X(d)
        assert (num * den).div_right(den) == num

    def test_exactness_enforced(self):
        num = X((1, 0, 0, 0)) + X((0, 1, 0, 0))
        with pytest.raises(ArithmeticError):
            num.div_right(X((0, 0, 1, 0)) + X((0, 0, 0, 1)))

    @settings(max_examples=40, deadline=None)
    @given(
        st.dictionaries(vec4, multi_coeff, min_size=1, max_size=3),
        st.dictionaries(vec4, multi_coeff, min_size=2, max_size=3),
    )
    def test_round_trip_with_u_coefficients(self, num_terms, den_terms):
        # Every coefficient of den, its leading one too, has at least two
        # powers of u, so den leads with no unit and is refused; under a
        # unit lead the same terms divide back.
        num, den = elem(num_terms), elem(den_terms)
        assert len(den.terms) >= 2
        with pytest.raises(NonUnitLead):
            (num * den).div_right(den)
        den = X(UNIT_LEAD, {1: -1}) + den
        assert (num * den).div_right(den) == num

    def test_leading_slice_must_divide(self, monkeypatch):
        # The lead u + u^-1 is no unit: refused before any elimination.
        den = X((0, 0, 1, 0), {1: 1, -1: 1}) + X((0, 0, 0, 1))
        calls = []
        monkeypatch.setattr(
            QTorusElem, "_divide", lambda *args: calls.append(args)
        )
        with pytest.raises(NonUnitLead):
            X((1, 0, 1, 0)).div_right(den)
        assert not calls

    def test_operands_are_left_unchanged(self):
        x = X((1, 0, 0, 0), {1: 1, -1: 1}) + X((0, 1, 0, 0), {0: 2})
        y = X((1, 0, 0, 0), {3: -1}) + X((0, 0, 1, 0), {-1: 1, 1: 2})
        prod = x * y
        before = copy.deepcopy((x.terms, y.terms, prod.terms))
        quotient = prod.div_right(y)
        results = [x + y, x - y, y * x, x.scale({1: 1, 0: 1}), quotient]
        # Arithmetic on results that may share coefficients with x or y.
        for r in results:
            assert (r + r) - r == r
            assert (r * y).div_right(y) == r
            r.scale(2)
        assert (x.terms, y.terms, prod.terms) == before
        assert quotient == x


# Leading coefficients that are units of Z[u, 1/u]: u^3, -u^-2 and -1.
UNITS = [{3: 1}, {-2: -1}, {0: -1}]
# Above every exponent vector that vec4 draws, so it leads.
UNIT_LEAD = (3, 0, 0, 0)
# Central and not a unit: a divisor scaled by it is refused.
ONE_PLUS_Q = {0: 1, 2: 1}


def unit_lead(unit, rest):
    den = X(UNIT_LEAD, unit) + elem(rest)
    assert den.sorted_terms()[0] == (UNIT_LEAD, unit)
    return den


class TestUnitDivision:
    """A divisor whose leading coefficient is a unit divides by a shift
    and a sign, and agrees at u = 1 with ``exact_div``; the same divisor
    scaled by 1 + u^2 leads with no unit and is refused."""

    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from(UNITS),
        st.dictionaries(vec4, multi_coeff, min_size=1, max_size=3),
        st.dictionaries(vec4, multi_coeff, min_size=1, max_size=3),
    )
    def test_round_trip_and_exact_div_agree(self, unit, num_terms, rest):
        num, den = elem(num_terms), unit_lead(unit, rest)
        prod = num * den
        assert prod.div_right(den) == num
        # Its lead survives u = 1, so the classical quotient is num's.
        assert exact_div(
            prod.specialize_q1(), den.specialize_q1()
        ) == num.specialize_q1()
        with pytest.raises(NonUnitLead):
            prod.scale(ONE_PLUS_Q).div_right(den.scale(ONE_PLUS_Q))
        # den is no monomial, so no unit: prod + 1 has no exact quotient.
        with pytest.raises(InexactDivision):
            (prod + X((0, 0, 0, 0))).div_right(den)


# Coefficients past the 64-bit slot: values at and beyond 2^63, 2^64
# and 2^128, either sign, with negative powers of u.
huge_int = st.one_of(
    st.integers(min_value=-3, max_value=3),
    st.sampled_from(
        [2**63 - 1, 2**63, 2**64 - 1, 2**64, 2**128 - 1, 2**128, 2**129]
    ).flatmap(lambda m: st.sampled_from([m, -m])),
    st.integers(min_value=-(2**130), max_value=2**130),
).filter(bool)
huge_coeff = st.dictionaries(
    st.integers(min_value=-4, max_value=4), huge_int, min_size=1, max_size=4
)
huge_terms = st.dictionaries(vec4, huge_coeff, min_size=1, max_size=3)


def twist(a, b):
    return sum(a[i] * B2.lam[i][j] * b[j] for i in range(4) for j in range(4))


def dict_clean(terms):
    out = {}
    for e, c in terms.items():
        c = {k: x for k, x in c.items() if x}
        if c:
            out[e] = c
    return out


def dict_add(a, b):
    out = {e: dict(c) for e, c in a.items()}
    for e, c in b.items():
        acc = out.setdefault(e, {})
        for k, x in c.items():
            acc[k] = acc.get(k, 0) + x
    return dict_clean(out)


def dict_mul(a, b):
    """The twisted product by convolving {u-exponent: int} dicts."""
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            t = twist(ea, eb)
            acc = out.setdefault(tuple(x + y for x, y in zip(ea, eb)), {})
            for ka, xa in ca.items():
                for kb, xb in cb.items():
                    acc[ka + kb + t] = acc.get(ka + kb + t, 0) + xa * xb
    return dict_clean(out)


def as_dicts(x):
    return dict(x.sorted_terms())


class TestPackedCoefficients:
    """Each coefficient is one int of balanced slots; every operation must
    agree with convolving {u-exponent: int} dicts, at every slot width."""

    @settings(max_examples=60, deadline=None)
    @given(huge_terms, huge_terms)
    def test_sum_and_product(self, a, b):
        x, y = elem(a), elem(b)
        assert as_dicts(x) == dict_clean(a)
        assert as_dicts(x + y) == dict_add(a, b)
        assert as_dicts(x * y) == dict_mul(a, b)
        assert as_dicts(x - x) == {}

    @settings(max_examples=60, deadline=None)
    @given(huge_terms, vec4, st.integers(min_value=-5, max_value=5))
    def test_translate_bar_and_specialize(self, a, exp, k):
        x = elem(a)
        moved = {
            tuple(p + q for p, q in zip(exp, e)): {
                j + k + twist(exp, e): c for j, c in coeff.items()
            }
            for e, coeff in a.items()
        }
        assert as_dicts(x.translate(exp, k)) == dict_clean(moved)
        assert as_dicts(x.shift_u(k)) == {
            e: {j + k: c for j, c in coeff.items()}
            for e, coeff in dict_clean(a).items()
        }
        assert as_dicts(x.bar()) == {
            e: {-j: c for j, c in coeff.items()}
            for e, coeff in dict_clean(a).items()
        }
        at_one = {e: sum(c.values()) for e, c in a.items()}
        assert x.specialize_q1() == LaurentPoly(
            4, {e: c for e, c in at_one.items() if c}
        )

    @settings(max_examples=60, deadline=None)
    @given(huge_terms, huge_terms, huge_coeff)
    def test_equal_elements_hold_equal_pairs(self, a, b, c):
        x, y = elem(a), elem(b)
        for z in [(x + y) - y, (x * y) + x - x * y, -(-x)]:
            assert z == x and hash(z) == hash(x) and z.terms == x.terms
        assert x.scale(c).scale({0: 1}) == x.scale(c)

    @settings(max_examples=60, deadline=None)
    @given(
        huge_terms,
        st.sampled_from(UNITS),
        huge_coeff,
        st.dictionaries(vec4, huge_coeff, min_size=1, max_size=2),
    )
    def test_division(self, q, lead, huge_lead, rest):
        # Under a unit lead num = q * den divides back to q, and num + 1
        # has no quotient; a lead of huge_coeff that is no unit is
        # refused.
        den = X(UNIT_LEAD, lead) + elem(rest)
        num = elem(dict_mul(q, as_dicts(den)))
        assert num.div_right(den) == elem(q)
        with pytest.raises(InexactDivision):
            (num + X((0, 0, 0, 0))).div_right(den)
        if len(huge_lead) > 1 or abs(*huge_lead.values()) != 1:
            with pytest.raises(NonUnitLead):
                num.div_right(X(UNIT_LEAD, huge_lead) + elem(rest))

    def test_a_quotient_wider_than_its_operands_divides_again(self, monkeypatch):
        # (1 - x^10)^22 / (1 - x)^22 = (1 + x + ... + x^9)^22: the
        # quotient's coefficients pass 2^64 while the numerator's stay
        # below 2^20, so the first certificate at 64 bits fails.
        x = X((1, 0, 0, 0))
        one = QTorusElem.one(B2.lam)
        num = (one - x ** 10) ** 22
        den = (one - x) ** 22
        quotient = sum((x ** j for j in range(1, 10)), one) ** 22
        assert num._w == den._w == 64 and quotient._w == 128
        calls = []
        real = QTorusElem._divide

        def counting(self, *args):
            calls.append(args)
            return real(self, *args)

        monkeypatch.setattr(QTorusElem, "_divide", counting)
        assert num.div_right(den) == quotient
        assert len(calls) == 2

    @settings(max_examples=30, deadline=None)
    @given(huge_terms)
    def test_exponent_terms_unpack_the_coefficients(self, a):
        assert elem(a).exponent_terms() == dict_clean(a)


class TestSeedMutation:
    def test_first_mutation_of_b2(self):
        s = QuantumSeed.initial_seed(B2)
        m = s.mutate(0)
        assert m.variables[0] == X((-1, 2, 0, 0)) + X((-1, 0, 1, 0))
        # The other variables are untouched.
        assert m.variables[1] == s.variables[1]
        assert m.variables[2] == s.variables[2]

    def test_mutation_is_an_involution(self):
        # walk_seeds reads a move back along an edge instead of mutating
        # again, which rests on this at every seed and slot.
        for name, depth in [("B2", None), ("B3", None), ("G2", None), ("WILD3", 2)]:
            g = enumerate_quantum_seeds(builtin_exchange_data(name), max_depth=depth)
            for s in g.seeds:
                for k in range(s.current.n):
                    back = s.mutate(k).mutate(k)
                    assert back.variables == s.variables
                    assert back.current.btilde == s.current.btilde
                    assert back.current.lam == s.current.lam

    def test_wild_mutation_agrees_with_the_classical_engine(self):
        # A wild matrix whose fifth quantum step multiplies variables of
        # hundreds of terms, each coefficient hundreds of powers of u.
        data = build_exchange_data([[0, -2, -2], [2, 0, -2], [2, 2, 0]])
        word = [0, 1, 2, 0, 1]
        quantum = QuantumSeed.initial_seed(data).mutate_sequence(word)
        classical = ClassicalSeed.initial_seed(data).mutate_sequence(word)
        assert [v.specialize_q1() for v in quantum.variables] == list(
            classical.variables
        )

    def test_variables_stay_bar_invariant(self):
        s = QuantumSeed.initial_seed(B2).mutate_sequence([0, 1, 0])
        for v in s.variables:
            assert is_bar_invariant(v)

    def test_depth_and_history(self):
        s = QuantumSeed.initial_seed(B2).mutate_sequence([0, 1])
        assert s.depth == 2 and s.history == (0, 1)

    def test_frame_monomial_at_initial_seed_is_normalized(self):
        s = QuantumSeed.initial_seed(B2)
        for c in [(1, 0, -1, 0), (0, 1, 0, 1), (2, 1, 0, -1)]:
            assert s.frame_monomial(c) == X(c)
            assert is_bar_invariant(s.frame_monomial(c))

    def test_frame_monomial_after_mutation(self):
        s = QuantumSeed.initial_seed(B2).mutate(1)
        f = s.frame_monomial((1, 1, 0, -1))
        assert is_bar_invariant(f)
        assert f.specialize_q1() == (
            s.variables[0] * s.variables[1] * s.variables[3] ** -1
        ).specialize_q1()

    def test_frame_monomial_length_guard(self):
        s = QuantumSeed.initial_seed(B2)
        with pytest.raises(LambdaMismatch):
            s.frame_monomial((1, 0))


def ordered_frame(seed, c):
    """The definition of ``frame_monomial``: u^-t times the ordered
    product of the powers X_i^c_i, t the sum over i < j of lambda_ij c_i
    c_j for the seed's current skew form."""
    size = 2 * seed.current.n
    lam = seed.current.lam
    twist = sum(
        lam[i][j] * c[i] * c[j] for i in range(size) for j in range(i + 1, size)
    )
    out = QTorusElem.basis_elem(seed.initial.lam, (0,) * size, {-twist: 1})
    for i in range(size):
        if c[i]:
            out = out * seed.variables[i] ** c[i]
    return out


# Every seed of the B3 and G2 exchange graphs and of the WILD3 graph to
# depth 3.
FRAME_SEEDS = [
    seed
    for name, depth in (("B3", None), ("G2", None), ("WILD3", 3))
    for seed in enumerate_quantum_seeds(
        builtin_exchange_data(name), max_depth=depth
    ).seeds
]


class TestFrameFold:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_fold_equals_the_ordered_product(self, data):
        # Exponents may be negative only at variables that are still
        # basis monomials, which the fold moves in front.
        seed = data.draw(st.sampled_from(FRAME_SEEDS))
        c = tuple(
            data.draw(
                st.integers(
                    min_value=-3 if var.basis_exponent() is not None else 0,
                    max_value=3,
                )
            )
            for var in seed.variables
        )
        assert seed.frame_monomial(c) == ordered_frame(seed, c)

    def test_initial_and_depth_one_frames_take_no_product(self, monkeypatch):
        start = QuantumSeed.initial_seed(builtin_exchange_data("G2"))
        seeds = [start] + [start.mutate(k) for k in range(2)]
        calls = count_products(monkeypatch, QTorusElem)
        for seed in seeds:
            for c in [(1, 1, 0, 0), (0, 1, -1, 2), (1, 0, 1, -1)]:
                seed.frame_monomial(c)
        assert calls == []

    def test_basis_exponent(self):
        assert X((1, -2, 0, 3)).basis_exponent() == (1, -2, 0, 3)
        assert X((1, 0, 0, 0), {1: 1}).basis_exponent() is None
        assert X((1, 0, 0, 0), 2).basis_exponent() is None
        assert (X((1, 0, 0, 0)) + X((0, 1, 0, 0))).basis_exponent() is None


class TestFrameCache:
    """``QuantumSeed.frame`` keeps each frame monomial on its seed.  The
    seeds of ``FRAME_SEEDS`` live across examples, so their memos grow
    as exponents repeat; every frame kept must equal a fresh build and
    the ordered product that defines it."""

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_kept_frames_equal_fresh_builds(self, data):
        seed = data.draw(st.sampled_from(FRAME_SEEDS))
        c = tuple(
            data.draw(
                st.integers(
                    min_value=-2 if var.basis_exponent() is not None else 0,
                    max_value=2,
                )
            )
            for var in seed.variables
        )
        kept = seed.frame(c)
        assert seed.frame(c) is kept and seed.frames[c] is kept
        assert kept == seed.frame_monomial(c) == ordered_frame(seed, c)
        for other, frame in seed.frames.items():
            assert frame == seed.frame_monomial(other)

    def test_memo_is_per_seed_and_ignored_by_equality(self):
        start = QuantumSeed.initial_seed(B2)
        c = (1, 0, 0, 1)
        start.frame(c)
        again = QuantumSeed(start.initial, start.current, start.variables)
        assert again == start and hash(again) == hash(start)
        assert again.frames == {} and list(start.frames) == [c]
        assert start.mutate(0).frames == {}


class TestCanonicalKey:
    def test_double_mutation_returns_to_start(self):
        s = QuantumSeed.initial_seed(A2)
        assert s.mutate(0).mutate(0).canonical_key() == s.canonical_key()

    def test_pentagon_periodicity(self):
        s = QuantumSeed.initial_seed(A2)
        assert s.mutate_sequence([0, 1, 0, 1, 0]).canonical_key() == s.canonical_key()
        assert s.mutate_sequence([0, 1, 0, 1]).canonical_key() != s.canonical_key()

    @pytest.mark.parametrize("name, count", [("G2", 8), ("B3", 20)])
    def test_walks_never_render(self, monkeypatch, name, count):
        def refuse(*args):
            raise AssertionError("rendered inside a walk")

        monkeypatch.setattr(LaurentPoly, "render", refuse)
        monkeypatch.setattr(QTorusElem, "render", refuse)
        data = builtin_exchange_data(name)
        assert enumerate_exchange_graph(data).count == count
        assert enumerate_quantum_seeds(data).count == count

    @pytest.mark.parametrize("engine", [ClassicalSeed, QuantumSeed])
    @settings(max_examples=25, deadline=None)
    @given(
        acyclic_skew_symmetrizable(),
        st.lists(st.integers(min_value=0, max_value=2), max_size=2),
        st.integers(min_value=0, max_value=2),
    )
    def test_double_mutation_keeps_the_key(self, engine, b, word, k):
        seed = engine.initial_seed(build_exchange_data(b))
        seed = seed.mutate_sequence(word)
        key = seed.canonical_key()
        assert seed.mutate_sequence([k, k]).canonical_key() == key
        assert seed.mutate(k).canonical_key() != key

    @pytest.mark.parametrize("engine", [ClassicalSeed, QuantumSeed])
    def test_key_holds_the_variables_in_order(self, engine):
        seed = engine.initial_seed(builtin_exchange_data("B3"))
        seed = seed.mutate_sequence([2, 0, 1])
        variables, btilde = seed.canonical_key()
        assert set(variables) == set(seed.variables[:3])
        assert [v.sort_key() for v in variables] == sorted(
            v.sort_key() for v in variables
        )
        assert len(btilde) == 6


class TestGraph:
    def test_a2_graph(self):
        g = enumerate_quantum_seeds(A2)
        assert g.count == 5 and not g.truncated
        assert len(g.edges) == 5

    def test_truncation_flag(self):
        g = enumerate_quantum_seeds(A2, max_seeds=2)
        assert g.truncated and g.count == 2
        g2 = enumerate_quantum_seeds(A2, max_depth=1)
        assert g2.truncated and g2.count == 3


def assert_same_walk(got, want):
    # Seeds compare by their histories, variables and exchange data.
    assert got.seeds == want.seeds
    assert list(got.index.items()) == list(want.index.items())
    assert list(got.moves.items()) == list(want.moves.items())
    assert got.truncated == want.truncated


class TestWalkOracle:
    """``walk_seeds`` reads each move back along an edge instead of
    mutating again; ``reference_walk`` mutates every seed in every
    direction.  Their results must agree item for item."""

    @staticmethod
    def _both(start, n, max_depth=None, max_seeds=10000):
        return (
            walk_seeds(start, n, max_depth, max_seeds),
            reference_walk(start, n, max_depth, max_seeds),
        )

    @pytest.mark.parametrize("engine", [ClassicalSeed, QuantumSeed])
    @pytest.mark.parametrize(
        "name, depth",
        [("A2", None), ("B2", None), ("C2", None), ("G2", None), ("A3", None),
         ("B3", None), ("WILD3", 2), ("WILD3", 3), ("F4", None)],
    )
    def test_whole_walks(self, engine, name, depth):
        if name == "F4":
            data = build_exchange_data(F4_MATRIX)
        else:
            data = builtin_exchange_data(name)
        assert_same_walk(*self._both(engine.initial_seed(data), data.n, depth))

    @pytest.mark.parametrize("engine", [ClassicalSeed, QuantumSeed])
    @pytest.mark.parametrize("name", ["G2", "B3", "WILD3"])
    @pytest.mark.parametrize(
        "max_depth, max_seeds", [(1, 10000), (2, 10000), (None, 2), (None, 7)]
    )
    def test_capped_walks(self, engine, name, max_depth, max_seeds):
        data = builtin_exchange_data(name)
        got, want = self._both(
            engine.initial_seed(data), data.n, max_depth, max_seeds
        )
        assert got.truncated
        assert_same_walk(got, want)

    @pytest.mark.parametrize(
        "name, k, mutated",
        # B3's sink and source, and A3 paired with its own unmutated
        # algebra, where the two sides disagree on slots.
        [("B3", 0, True), ("B3", 2, True), ("A3", 0, False)],
    )
    def test_paired_walks(self, name, k, mutated):
        ctx = context_for(name)
        n = ctx.n
        fresh = ctx.data
        if mutated:
            fresh = build_exchange_data(ctx.data.mutate(k).btilde[:n])
        start = _SeedPair(
            ClassicalSeed.initial_seed(fresh),
            ClassicalSeed.initial_seed(ctx.data).mutate(k),
        )
        assert_same_walk(*self._both(start, n))

    @pytest.mark.parametrize("engine", [ClassicalSeed, QuantumSeed])
    def test_closed_walk_mutates_once_per_edge(self, monkeypatch, engine):
        real = engine.mutate
        calls = []

        def counting(seed, k):
            calls.append(k)
            return real(seed, k)

        monkeypatch.setattr(engine, "mutate", counting)
        start = engine.initial_seed(builtin_exchange_data("B3"))
        g = walk_seeds(start, 3, None, 10000)
        assert not g.truncated
        assert len(calls) == len(g.edges) == 30


class _Forgetful(dict):
    """An exchange memo that keeps nothing, so every lookup misses."""

    def __setitem__(self, key, value):
        pass


class TestExchangeMemo:
    """Seeds of one algebra share their exchange relations; reading a
    relation from the memo must give what computing it gives."""

    CASES = [("B3", None), ("G2", None), ("F4", None), ("WILD3", 3)]

    @staticmethod
    def _walk(engine, name, depth, memo=None):
        if name == "F4":
            data = build_exchange_data(F4_MATRIX)
        else:
            data = builtin_exchange_data(name)
        start = engine.initial_seed(data)
        if memo is not None:
            start = engine(
                data, start.current, start.variables, exchanges=memo
            )
        return walk_seeds(start, data.n, depth, 10000)

    @pytest.mark.parametrize("engine", [ClassicalSeed, QuantumSeed])
    @pytest.mark.parametrize("name, depth", CASES)
    def test_memo_changes_nothing(self, engine, name, depth):
        got = self._walk(engine, name, depth)
        want = self._walk(engine, name, depth, _Forgetful())
        assert all(type(s.exchanges) is _Forgetful for s in want.seeds)
        assert all(s.exchanges is got.seeds[0].exchanges for s in got.seeds)
        assert_same_walk(got, want)
        for a, b in zip(got.seeds, want.seeds):
            assert a.variables == b.variables
            assert a.current == b.current
            assert a.history == b.history

    def test_one_memo_for_algebras_with_one_initial_cluster(self):
        # A2, B2, C2 and G2 start from the same four Laurent variables but
        # differ in their b_ik, which the classical key keeps.  (Quantum
        # variables carry their skew form, so there no two of these
        # algebras share a key.)
        shared = {}
        for name in ["A2", "B2", "C2", "G2"]:
            start = ClassicalSeed.initial_seed(builtin_exchange_data(name))
            own = walk_seeds(start, 2, None, 10000)
            start = ClassicalSeed(
                start.initial, start.current, start.variables, exchanges=shared
            )
            assert_same_walk(walk_seeds(start, 2, None, 10000), own)

    @pytest.mark.parametrize("engine", [ClassicalSeed, QuantumSeed])
    @pytest.mark.parametrize("name, depth", CASES)
    def test_exchange_back_gives_the_old_variable(self, engine, name, depth):
        # Mutation is an involution: the memo's reverse entries rely on it.
        walk = self._walk(engine, name, depth)
        for seed in walk.seeds:
            for k in range(seed.current.n):
                assert seed.mutate(k)._exchange(k) == seed.variables[k]


def _pair(name):
    data = builtin_exchange_data(name)
    return _SeedPair(
        ClassicalSeed.initial_seed(data), ClassicalSeed.initial_seed(data)
    )


class TestValueClasses:
    """The seed, exchange-data, walk and report classes compare by value
    like the dataclasses they replaced; the frozen ones also hash by value
    and refuse assignment."""

    FROZEN = {
        "ExchangeData": lambda: builtin_exchange_data("B3"),
        "ClassicalSeed": lambda: ClassicalSeed.initial_seed(B2),
        "QuantumSeed": lambda: QuantumSeed.initial_seed(B2),
        "_SeedPair": lambda: _pair("B2"),
    }

    @pytest.mark.parametrize("name", sorted(FROZEN))
    def test_equal_instances_compare_and_hash_equal(self, name):
        a, b = self.FROZEN[name](), self.FROZEN[name]()
        assert a is not b
        assert a == b and not a != b
        assert hash(a) == hash(b)

    def test_unequal_fields_compare_unequal(self):
        b2, c2 = builtin_exchange_data("B2"), builtin_exchange_data("C2")
        assert b2 != c2
        assert ClassicalSeed.initial_seed(b2) != ClassicalSeed.initial_seed(c2)
        assert _pair("B2") != _pair("C2")
        seed = ClassicalSeed.initial_seed(b2)
        assert seed != seed.mutate(0)
        # Equal fields of different classes do not make equal values.
        quantum = QuantumSeed(seed.initial, seed.current, seed.variables)
        assert seed != quantum

    def test_constructors_take_positions_and_keywords(self):
        data = builtin_exchange_data("G2")
        assert data == ExchangeData(data.n, data.btilde, data.diag, data.lam)
        assert data == ExchangeData(
            n=data.n, btilde=data.btilde, diag=data.diag, lam=data.lam
        )
        seed = ClassicalSeed.initial_seed(data)
        assert seed.history == ()
        assert seed == ClassicalSeed(
            initial=data,
            current=seed.current,
            variables=seed.variables,
            history=(),
        )
        walk = walk_seeds(seed, 2, None, 10000)
        assert walk == GraphResult(
            walk.seeds, walk.moves, walk.index, walk.truncated
        )

    def test_seed_ignores_exchanges(self):
        seed = ClassicalSeed.initial_seed(B2)
        other = ClassicalSeed(
            seed.initial, seed.current, seed.variables, exchanges={"x": 1}
        )
        assert seed == other and hash(seed) == hash(other)
        assert "exchanges" not in repr(seed)
        assert repr(seed).startswith("ClassicalSeed(initial=ExchangeData(n=2,")

    def test_seed_starts_a_new_memo(self):
        a = ClassicalSeed(B2, B2, ClassicalSeed.initial_seed(B2).variables)
        b = ClassicalSeed(B2, B2, a.variables)
        assert a.exchanges == {} and a.exchanges is not b.exchanges

    @pytest.mark.parametrize(
        "name, field",
        [
            ("ExchangeData", "lam"),
            ("ClassicalSeed", "variables"),
            ("QuantumSeed", "exchanges"),
            ("_SeedPair", "fresh"),
        ],
    )
    def test_frozen_fields_refuse_assignment(self, name, field):
        value = self.FROZEN[name]()
        before = getattr(value, field)
        with pytest.raises(AttributeError):
            setattr(value, field, None)
        with pytest.raises(AttributeError):
            delattr(value, field)
        with pytest.raises(AttributeError):
            value.other = 1
        assert getattr(value, field) is before

    def test_mutable_classes_have_no_hash(self):
        walk = walk_seeds(ClassicalSeed.initial_seed(B2), 2, None, 10000)
        report = VerificationReport("tropical", {"name": "B2"}, "exhaustive", "PASS")
        for value in (walk, report):
            with pytest.raises(TypeError):
                hash(value)
        report.status = "FAIL"
        assert report.status == "FAIL"

    def test_report_dict_drops_a_none_counterexample(self):
        report = VerificationReport("tropical", {"name": "B2"}, "exhaustive", "PASS")
        assert report == VerificationReport(
            check="tropical",
            target={"name": "B2"},
            scope="exhaustive",
            status="PASS",
            detail="",
            counterexample=None,
        )
        assert list(report.to_dict().items()) == [
            ("check", "tropical"),
            ("target", {"name": "B2"}),
            ("scope", "exhaustive"),
            ("status", "PASS"),
            ("detail", ""),
        ]
        failed = VerificationReport(
            "tropical", {"name": "B2"}, "exhaustive", "FAIL", "bad", {"d": [1]}
        )
        assert list(failed.to_dict()) == [
            "check", "target", "scope", "status", "detail", "counterexample"
        ]
        assert failed.to_dict()["counterexample"] == {"d": [1]}


def lead(var):
    """A variable's leading exponent, and whether its coefficient there
    is a unit: +-1 classically, +-u^k in the torus."""
    if isinstance(var, QTorusElem):
        exp, coeff = var.sorted_terms()[0]
        return exp, len(coeff) == 1 and abs(*coeff.values()) == 1
    terms = var.exponent_terms()
    exp = max(terms)
    return exp, abs(terms[exp]) == 1


def assert_unit_leads(seeds):
    # Every variable leads with a unit, and the leading exponents of a
    # seed's 2n variables form a matrix of determinant +-1.
    for seed in seeds:
        leads = [lead(v) for v in seed.variables]
        assert all(unit for _, unit in leads), seed.history
        assert abs(mx.det([exp for exp, _ in leads])) == 1, seed.history


class TestUnitLeads:
    """The induction behind ``div_right``'s refusal of a divisor that
    leads with no unit (the ``qtorus`` docstring), checked seed by seed
    on whole walks of both engines."""

    @pytest.mark.parametrize("engine", [ClassicalSeed, QuantumSeed])
    @pytest.mark.parametrize(
        "name, depth",
        [(name, None) for name in ("A2", "B2", "C2", "G2", "A3", "B3", "F4")]
        + [("WILD3", 4)],
    )
    def test_builtin_walks(self, engine, name, depth):
        assert_unit_leads(TestExchangeMemo._walk(engine, name, depth).seeds)

    @pytest.mark.parametrize(
        "engine, depth", [(ClassicalSeed, 3), (QuantumSeed, 2)]
    )
    @settings(max_examples=25, deadline=None)
    @given(acyclic_skew_symmetrizable())
    def test_random_acyclic_walks(self, engine, depth, b):
        start = engine.initial_seed(build_exchange_data(b))
        assert_unit_leads(walk_seeds(start, 3, depth, 10000).seeds)


def form_from_leads(seed, lam0):
    """L_t^T lam0 L_t, the columns of L_t the leading exponents of the
    seed's variables."""
    leads = [lead(v)[0] for v in seed.variables]
    return mx.matmul(mx.matmul(leads, lam0), mx.transpose(leads))


def walk_and_check_forms(data, depth):
    """Walk ``data`` with both engines, which must find the same seeds
    in the same order, and check at every seed that the quantum form is
    L_t^T Lambda_0 L_t for the leads of either engine's variables.
    Returns the number of seeds."""
    walks = [
        walk_seeds(engine.initial_seed(data), data.n, depth, 10000)
        for engine in (ClassicalSeed, QuantumSeed)
    ]
    classical, quantum = ([s.history for s in w.seeds] for w in walks)
    assert classical == quantum
    for c, q in zip(*(w.seeds for w in walks)):
        assert q.current.lam == form_from_leads(q, data.lam), q.history
        assert q.current.lam == form_from_leads(c, data.lam), q.history
    return len(quantum)


class TestFormFromLeads:
    """The cluster fixes the skew form, Lambda_t = L_t^T Lambda_0 L_t
    (the ``qtorus`` docstring), which is why no seed key holds it."""

    def test_every_small_matrix(self):
        # Every matrix the acyclic strategy can draw: the 31 of finite
        # type walked to closure, the others to depth 2.
        seeds = 0
        for b in all_acyclic_skew_symmetrizable():
            data = build_exchange_data(b)
            depth = None if data.is_finite_type() else 2
            seeds += walk_and_check_forms(data, depth)
        # The count when the seed keys still held the form: dropping it
        # merged no two vertices.
        assert seeds == 5269

    @pytest.mark.parametrize(
        "b, lambda0, count",
        [
            (
                F4_MATRIX,
                [[0, 1, 2, 3], [-1, 0, 1, 2], [-2, -1, 0, 1], [-3, -2, -1, 0]],
                105,
            ),
            (
                builtin_exchange_data("B3").principal(),
                [[0, 1, 2], [-1, 0, 3], [-2, -3, 0]],
                20,
            ),
        ],
    )
    def test_nonzero_base_form(self, b, lambda0, count):
        data = build_exchange_data(b, lambda0)
        assert walk_and_check_forms(data, None) == count


class TestTorusInvariants:
    """What lets the quantum engine share the classical seed keys: the
    variables of a seed quasi-commute by its form, and an exchange reads
    its slots in no order."""

    def test_cluster_variables_quasi_commute(self):
        cases = [(name, None) for name in ("A2", "B2", "C2", "G2", "A3", "B3")]
        pairs = 0
        for name, depth in cases + [("WILD3", 2), ("F4", None)]:
            for seed in TestExchangeMemo._walk(QuantumSeed, name, depth).seeds:
                lam = seed.current.lam
                xs = seed.variables
                for i, j in combinations(range(len(xs)), 2):
                    twisted = (xs[j] * xs[i]).shift_u(2 * lam[i][j])
                    assert xs[i] * xs[j] == twisted, (name, seed.history)
                    pairs += 1
        assert pairs == 3750

    def test_renumbered_slots_share_the_exchange(self, monkeypatch):
        seed = QuantumSeed.initial_seed(builtin_exchange_data("B3"))
        seed = seed.mutate_sequence([2, 0])
        cur = seed.current
        # slots 0 and 2 swapped, frozen slots kept
        swap = (2, 1, 0, 3, 4, 5)
        renumbered = QuantumSeed(
            seed.initial,
            ExchangeData(
                cur.n,
                tuple(tuple(cur.btilde[i][j] for j in swap[:3]) for i in swap),
                cur.diag,
                tuple(tuple(cur.lam[i][j] for j in swap) for i in swap),
            ),
            tuple(seed.variables[i] for i in swap),
            seed.history,
            exchanges=seed.exchanges,
        )
        assert renumbered.canonical_key() == seed.canonical_key()
        calls = []
        real = QuantumSeed._exchange

        def counting(s, k):
            calls.append(k)
            return real(s, k)

        monkeypatch.setattr(QuantumSeed, "_exchange", counting)
        new = seed.mutate(1).variables[1]
        assert calls == [1]
        assert renumbered.mutate(1).variables[1] is new
        assert calls == [1]
