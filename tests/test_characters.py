"""Counting polynomials and quantum cluster characters.

Includes the combinatorial denominator certificate: every character
term has mutable exponent P(e) + N(v-e) - v, where P and N collect the
positive and negative parts of the exchange matrix, and both P(e) and
N(v-e) are nonnegative.  The denominator vector of the character equals
v exactly when the floor min_e (P(e) + N(v-e)) vanishes coordinatewise
over the counted dimension vectors e.
"""

from fractions import Fraction
from itertools import product
from math import gcd, lcm, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from valq.characters import (
    DEFAULT_PRIMES,
    InterpolationInconsistent,
    character_in_seed,
    counting_polynomials,
    dimension_bound,
    generic_character,
    interpolate_counts,
    lagrange_basis,
    lagrange_poly,
)
from valq.classical import enumerate_exchange_graph
from valq.exchange import (
    BUILTIN_MATRICES,
    builtin_exchange_data,
    sinks_and_sources,
)
from valq.qtorus import QTorusElem, QuantumSeed
from valq.reps import (
    ValuedQuiver,
    build_rigid_rep,
    count_all_subreps,
    reflect,
    simple_reflection,
)
from valq.verify import VerifyContext, run_check

from conftest import context_for, is_bar_invariant
from test_qtorus import ordered_frame
from test_reps import brute_count_subreps


def principal_part(data):
    return tuple(row[: data.n] for row in data.btilde[: data.n])


def reps_of(data, v, primes=DEFAULT_PRIMES, rng_seed=0):
    """Rigid representations of dimension v from a fresh context, one
    per prime."""
    return VerifyContext(data, primes=primes, rng_seed=rng_seed).rigid_reps(v)


def tables_of(reps):
    return {rep.quiver.p: count_all_subreps(rep) for rep in reps}


def noninitial_d_vectors(data):
    out = set()
    for seed in enumerate_exchange_graph(data).seeds:
        for i in range(data.n):
            d = seed.d_vector(i)
            if not all(x <= 0 for x in d):
                out.add(d)
    return sorted(out)


def exponent_floor(b, v, polys):
    """Coordinatewise min over counted e of P(e) + N(v-e)."""
    n = len(b)
    floor = None
    for e, coeffs in polys.items():
        if not any(coeffs):
            continue
        vec = []
        for i in range(n):
            pos = sum(max(b[i][j], 0) * e[j] for j in range(n))
            neg = sum(max(-b[i][j], 0) * (v[j] - e[j]) for j in range(n))
            vec.append(pos + neg)
        floor = vec if floor is None else [min(a, c) for a, c in zip(floor, vec)]
    return tuple(floor)


def fraction_lagrange(xs, ys):
    """The textbook interpolant sum y_i * prod (x - x_j) / (x_i - x_j)
    in Fraction coefficients, ascending, without trailing zeros."""
    coeffs = [Fraction(0)] * len(xs)
    for i, xi in enumerate(xs):
        num = [Fraction(ys[i])]
        for j, xj in enumerate(xs):
            if j != i:
                num = [Fraction(0)] + num
                for deg in range(len(num) - 1):
                    num[deg] += num[deg + 1] * -xj
                num = [c / (xi - xj) for c in num]
        for deg, c in enumerate(num):
            coeffs[deg] += c
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def fraction_interpolate_counts(diag, v, tables, primes):
    """``interpolate_counts`` as it was defined in Fraction arithmetic:
    its polynomials, or its error text."""
    if len(set(primes)) != len(primes):
        return "primes must be distinct, got %s" % (list(primes),)
    polys = {}
    for e in product(*(range(x + 1) for x in v)):
        bound = dimension_bound(diag, v, e)
        if bound + 2 > len(primes):
            return "need %d primes for %s, have %d" % (bound + 2, e, len(primes))
        pts = primes[: bound + 1]
        coeffs = fraction_lagrange(pts, [tables[p][e] for p in pts])
        for c in coeffs:
            if c.denominator != 1:
                return "non-integer coefficient %s at %s" % (c, e)
        coeffs = tuple(int(c) for c in coeffs)
        for p in primes[bound + 1 :]:
            if sum(c * p**deg for deg, c in enumerate(coeffs)) != tables[p][e]:
                return "held-out prime %d disagrees at %s" % (p, e)
        if coeffs:
            polys[e] = coeffs
    return polys


def as_fractions(xs, ys):
    numerators, den = lagrange_poly(xs, ys)
    return [Fraction(c, den) for c in numerators]


class TestLagrange:
    def test_interpolates_exactly(self):
        xs = (2, 3, 5)
        ys = (5, 10, 26)  # x**2 + 1
        assert as_fractions(xs, ys) == [1, 0, 1]

    def test_constant(self):
        assert as_fractions((2, 3), (7, 7)) == [7]

    def test_shared_basis_on_random_points(self):
        # One basis per point set serves every list of values; check it
        # against the textbook sum of y_i * prod (x - x_j) / (x_i - x_j),
        # built afresh for each list.
        import random

        rng = random.Random(3)
        for _ in range(30):
            xs = tuple(rng.sample(range(-20, 40), rng.randrange(1, 8)))
            den, basis = lagrange_basis(xs)
            assert lagrange_basis(xs)[1] is basis
            for i, poly in enumerate(basis):
                assert [
                    sum(c * x**deg for deg, c in enumerate(poly)) for x in xs
                ] == [den * (i == j) for j in range(len(xs))]
            for _ in range(5):
                ys = [rng.randrange(-50, 50) for _ in xs]
                assert as_fractions(xs, ys) == fraction_lagrange(xs, ys)
                assert as_fractions(list(xs), ys) == fraction_lagrange(xs, ys)

    def test_common_denominator_is_the_least(self):
        # den is the lcm of the node products, so some numerator
        # coefficient shares no factor with it
        for xs in [(2,), (2, 3), (2, 3, 5, 7), (2, 3, 5, 7, 11, 13, 17)]:
            den, basis = lagrange_basis(xs)
            weights = [
                prod(xi - xj for xj in xs if xj != xi) for xi in xs
            ]
            assert den == lcm(*weights) and den > 0
            assert gcd(den, *(c for poly in basis for c in poly)) == 1

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_interpolate_counts_matches_fractions(self, data):
        # Tables from integer polynomials of degree up to the bound, then
        # optionally one count bent at an interpolation node (a
        # non-integer or a held-out failure) or at a held-out prime.
        diag = data.draw(st.sampled_from([(1, 1), (2, 1), (3, 1), (1, 2, 2)]))
        v = tuple(data.draw(st.integers(0, 2)) for _ in diag)
        nprimes = data.draw(st.integers(1, len(DEFAULT_PRIMES)))
        primes = DEFAULT_PRIMES[:nprimes]
        if data.draw(st.booleans()):
            primes = tuple(data.draw(st.permutations(primes)))
        box = list(product(*(range(x + 1) for x in v)))
        tables = {p: {} for p in primes}
        for e in box:
            degree = min(dimension_bound(diag, v, e), nprimes - 1)
            coeffs = [data.draw(st.integers(-9, 9)) for _ in range(degree + 1)]
            for p in primes:
                tables[p][e] = sum(c * p**k for k, c in enumerate(coeffs))
        if data.draw(st.booleans()):
            e = data.draw(st.sampled_from(box))
            p = data.draw(st.sampled_from(primes))
            tables[p][e] += data.draw(st.integers(-3, 3))
        want = fraction_interpolate_counts(diag, v, tables, primes)
        if isinstance(want, str):
            with pytest.raises(InterpolationInconsistent) as exc:
                interpolate_counts(diag, v, tables, primes)
            assert str(exc.value) == want
        else:
            assert interpolate_counts(diag, v, tables, primes) == want

    def test_error_texts(self):
        # (0, 1) has bound 1: nodes 3 and 5, and 2 held out
        diag, v, primes = (1, 1), (0, 2), (3, 5, 2)
        ones = {(0, 0): 1, (0, 1): 1, (0, 2): 1}
        tables = {p: dict(ones) for p in primes}
        assert interpolate_counts(diag, v, tables, primes) == {
            e: (1,) for e in ones
        }
        for count, text in [
            (2, "non-integer coefficient -1/2 at (0, 1)"),
            (3, "held-out prime 2 disagrees at (0, 1)"),
        ]:
            tables[5][(0, 1)] = count
            with pytest.raises(InterpolationInconsistent) as exc:
                interpolate_counts(diag, v, tables, primes)
            assert str(exc.value) == text


class TestCountingPolynomials:
    def test_b2_full_table(self, b2):
        assert counting_polynomials(reps_of(b2, (1, 2))) == {
            (0, 0): (1,),
            (1, 0): (1,),
            (1, 1): (1, 1),
            (1, 2): (1,),
        }

    def test_unit_vectors_have_trivial_tables(self, b2):
        assert counting_polynomials(reps_of(b2, (1, 0))) == {
            (0, 0): (1,),
            (1, 0): (1,),
        }

    def test_dimension_bounds(self, b2, g2):
        assert dimension_bound(b2.diag, (1, 2), (1, 1)) == 1
        worst = max(
            dimension_bound(g2.diag, (2, 3), (i, j))
            for i in range(3)
            for j in range(4)
        )
        assert worst == 5
        # The default prime list can fit and still hold one prime out.
        assert worst + 2 <= len(DEFAULT_PRIMES)

    def test_default_primes_cover_all_rigid_dimension_vectors(self, b2, g2):
        for data in (b2, g2):
            for v in noninitial_d_vectors(data):
                boxes = [
                    tuple(e)
                    for e in __import__("itertools").product(
                        *[range(x + 1) for x in v]
                    )
                ]
                worst = max(dimension_bound(data.diag, v, e) for e in boxes)
                assert worst + 2 <= len(DEFAULT_PRIMES)

    def test_tables_are_deterministic(self, b2):
        t1 = tables_of(reps_of(b2, (1, 1), (2, 3), rng_seed=4))
        t2 = tables_of(reps_of(b2, (1, 1), (2, 3), rng_seed=4))
        assert t1 == t2

    def test_held_out_prime_rejects_corrupted_counts(self, b2):
        primes = (2, 3, 5, 7)
        tables = tables_of(reps_of(b2, (1, 1), primes))
        tables[7][(1, 1)] += 1
        with pytest.raises(InterpolationInconsistent):
            interpolate_counts(b2.diag, (1, 1), tables, primes)

    def test_duplicate_primes_are_rejected(self, b2):
        # A repeated prime adds no held-out evidence, and one among the
        # interpolation nodes would divide by zero.
        for primes in ((2, 3, 3, 5), (2, 2, 3, 5)):
            reps = reps_of(b2, (1, 1), primes)
            with pytest.raises(InterpolationInconsistent):
                interpolate_counts(b2.diag, (1, 1), tables_of(reps), primes)
            # The primes are read from the representations, one each.
            with pytest.raises(InterpolationInconsistent):
                counting_polynomials(reps)

    def test_shared_rigid_representation_gives_the_same_tables(self, b2):
        b = principal_part(b2)
        reps = [
            build_rigid_rep(
                ValuedQuiver.from_matrix(b, b2.diag, p), (1, 2), rng_seed=3
            )
            for p in (2, 3)
        ]
        ctx = VerifyContext(b2, primes=(2, 3), rng_seed=3)
        assert ctx.rigid_reps((1, 2)) == reps
        # Built once per prime and dimension vector, then shared.
        assert ctx.rigid_rep(2, [1, 2]) is ctx.rigid_reps((1, 2))[0]
        assert tables_of(ctx.rigid_reps((1, 2))) == tables_of(reps)

    def test_counts_evaluate_at_each_prime(self, b2):
        # The fitted polynomial at q = p reproduces every table, the
        # held-out primes included.
        reps = reps_of(b2, (1, 2))
        polys = counting_polynomials(reps)
        tables = tables_of(reps)
        for p in DEFAULT_PRIMES:
            for e, coeffs in polys.items():
                value = sum(c * p**k for k, c in enumerate(coeffs))
                assert value == tables[p][e]

    def test_g2_hardest_case_against_brute_force(self, g2):
        # Degree-5 counting data, checked at p = 2 by enumerating every
        # subspace tuple of an independently built rigid module.
        b = principal_part(g2)
        table = count_all_subreps(reps_of(g2, (2, 3), (2,))[0])
        quiver = ValuedQuiver.from_matrix(b, g2.diag, 2)
        rep = build_rigid_rep(quiver, (2, 3), rng_seed=0)
        assert sum(table.values()) > 0
        for e, cnt in table.items():
            assert cnt == brute_count_subreps(rep, e)


class TestDenominatorCertificate:
    @pytest.mark.parametrize("name", ["A2", "B2", "G2", "A3", "B3"])
    def test_exponent_floor_vanishes(self, name):
        ctx = context_for(name)
        b = principal_part(ctx.data)
        for v in noninitial_d_vectors(ctx.data):
            polys = counting_polynomials(ctx.rigid_reps(v))
            assert exponent_floor(b, v, polys) == (0,) * ctx.n


class TestGenericCharacter:
    def test_b2_first_variable(self, b2):
        seed = QuantumSeed.initial_seed(b2)
        x = generic_character(seed, reps_of(b2, (1, 0)))
        expected = QTorusElem.basis_elem(b2.lam, (-1, 2, 0, 0)) + QTorusElem.basis_elem(
            b2.lam, (-1, 0, 1, 0)
        )
        assert x == expected
        assert x == seed.mutate(0).variables[0]

    def test_bar_invariance_and_denominator(self, b2):
        seed = QuantumSeed.initial_seed(b2)
        for v in noninitial_d_vectors(b2):
            x = generic_character(seed, reps_of(b2, v))
            assert is_bar_invariant(x)
            assert x.denominator_vector(2) == v

    @pytest.mark.parametrize("name", ["B2", "G2"])
    def test_denominator_vector_survives_specialization(self, name):
        ctx = context_for(name)
        n = ctx.n
        for v in noninitial_d_vectors(ctx.data):
            x = ctx.generic_char(v)
            assert x.denominator_vector(n) == x.specialize_q1().denominator_vector(n)

    def test_specializes_to_the_classical_variable(self, b2):
        from valq.classical import ClassicalSeed

        cs = ClassicalSeed.initial_seed(b2).mutate(0).mutate(1)
        qx = generic_character(
            QuantumSeed.initial_seed(b2), reps_of(b2, cs.d_vector(1))
        )
        assert qx.specialize_q1() == cs.variables[1]

    def test_coefficients_are_positive_symmetric_laurent(self, g2):
        x = generic_character(
            QuantumSeed.initial_seed(g2), reps_of(g2, (2, 3))
        )
        for exp, coeff in x.sorted_terms():
            assert coeff == {-k: c for k, c in coeff.items()}
            assert all(c > 0 for c in coeff.values())


class TestReflectedCharacters:
    def test_reflected_tables_match_mutated_matrix(self, b2):
        for k, v in [(0, (1, 1)), (1, (1, 1)), (0, (1, 2))]:
            reflected = [reflect(rep, k) for rep in reps_of(b2, v)]
            v_new = simple_reflection(principal_part(b2), k, v)
            assert all(rep.dims == v_new for rep in reflected)
            mutated = b2.mutate(k)
            assert reflected[0].quiver.b == principal_part(mutated)
            assert counting_polynomials(reflected) == counting_polynomials(
                reps_of(mutated, v_new)
            )

    def test_character_transport_through_one_mutation(self, b2):
        # The initial-seed character of v equals the character computed
        # in the neighboring seed from the reflected counting data.
        for k, v in [(0, (1, 1)), (1, (1, 2))]:
            reps = reps_of(b2, v)
            v_new = simple_reflection(principal_part(b2), k, v)
            polys = counting_polynomials([reflect(rep, k) for rep in reps])
            lhs = generic_character(QuantumSeed.initial_seed(b2), reps)
            rhs = character_in_seed(
                QuantumSeed.initial_seed(b2).mutate(k), v_new, polys
            )
            assert lhs == rhs

    def test_initial_seed_character_matches_generic(self, b2):
        reps = reps_of(b2, (1, 1))
        polys = counting_polynomials(reps)
        direct = character_in_seed(QuantumSeed.initial_seed(b2), (1, 1), polys)
        assert direct == generic_character(QuantumSeed.initial_seed(b2), reps)


class TestFrameMemo:
    @pytest.mark.parametrize("name", sorted(BUILTIN_MATRICES))
    def test_kept_frames_of_the_checks_equal_fresh_builds(
        self, name, monkeypatch
    ):
        # The denominators check assembles characters in the initial seed
        # and the reflection check in each k-mutated one.  Every exponent
        # they ask for is kept on its seed, and every frame kept equals
        # the frame built afresh in a seed mutated anew.
        asked = {}
        real_frame = QuantumSeed.frame

        def frame(seed, c):
            asked.setdefault(id(seed), (seed, set()))[1].add(c)
            return real_frame(seed, c)

        monkeypatch.setattr(QuantumSeed, "frame", frame)
        depth = 2 if name == "WILD3" else None
        ctx = VerifyContext(builtin_exchange_data(name), max_depth=depth)
        for check in ("denominators", "reflection"):
            assert run_check(check, ctx).status == "PASS", check
        # one initial seed, the context's, and one seed per sink or source
        sinks, sources = sinks_and_sources(ctx.b)
        histories = sorted(seed.history for seed, _ in asked.values())
        assert histories == [()] + [(k,) for k in sorted(sinks + sources)]
        assert id(ctx.quantum_seed()) in asked
        for seed, exponents in asked.values():
            assert set(seed.frames) == exponents
            fresh = QuantumSeed.initial_seed(ctx.data).mutate_sequence(
                seed.history
            )
            for c, kept in seed.frames.items():
                assert kept == fresh.frame_monomial(c) == ordered_frame(fresh, c)
