"""Counting polynomials and quantum cluster characters.

Includes the combinatorial denominator certificate: every character
term has mutable exponent P(e) + N(v-e) - v, where P and N collect the
positive and negative parts of the exchange matrix, and both P(e) and
N(v-e) are nonnegative.  The denominator vector of the character equals
v exactly when the floor min_e (P(e) + N(v-e)) vanishes coordinatewise
over the counted dimension vectors e.
"""

import pytest

from valq.characters import (
    DEFAULT_PRIMES,
    InterpolationInconsistent,
    character_in_seed,
    counting_polynomials,
    dimension_bound,
    generic_character,
    interpolate_counts,
    lagrange_poly,
    reflected_counting_polynomials,
    rigid_count_tables,
    torus_denominator_vector,
)
from valq.classical import enumerate_exchange_graph
from valq.exchange import builtin_exchange_data
from valq.qtorus import QTorusElem, QuantumSeed
from valq.reps import ValuedQuiver, build_rigid_rep, simple_reflection

from test_reps import brute_count_subreps


def principal_part(data):
    return tuple(row[: data.n] for row in data.btilde[: data.n])


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


class TestLagrange:
    def test_interpolates_exactly(self):
        xs = (2, 3, 5)
        ys = (5, 10, 26)  # x**2 + 1
        assert lagrange_poly(xs, ys) == [1, 0, 1]

    def test_constant(self):
        assert lagrange_poly((2, 3), (7, 7)) == [7]


class TestCountingPolynomials:
    def test_b2_full_table(self, b2):
        b = principal_part(b2)
        assert counting_polynomials(b, b2.diag, (1, 2)) == {
            (0, 0): (1,),
            (1, 0): (1,),
            (1, 1): (1, 1),
            (1, 2): (1,),
        }

    def test_unit_vectors_have_trivial_tables(self, b2):
        b = principal_part(b2)
        assert counting_polynomials(b, b2.diag, (1, 0)) == {
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
        b = principal_part(b2)
        t1 = rigid_count_tables(b, b2.diag, (1, 1), (2, 3), rng_seed=4)
        t2 = rigid_count_tables(b, b2.diag, (1, 1), (2, 3), rng_seed=4)
        assert t1 == t2

    def test_held_out_prime_rejects_corrupted_counts(self, b2):
        b = principal_part(b2)
        primes = (2, 3, 5, 7)
        tables = rigid_count_tables(b, b2.diag, (1, 1), primes)
        tables[7][(1, 1)] += 1
        with pytest.raises(InterpolationInconsistent):
            interpolate_counts(b2.diag, (1, 1), tables, primes)

    def test_duplicate_primes_are_rejected(self, b2):
        # A repeated prime adds no held-out evidence, and one among the
        # interpolation nodes would divide by zero.
        b = principal_part(b2)
        for primes in ((2, 3, 3, 5), (2, 2, 3, 5)):
            tables = rigid_count_tables(b, b2.diag, (1, 1), primes)
            with pytest.raises(InterpolationInconsistent):
                interpolate_counts(b2.diag, (1, 1), tables, primes)

    def test_shared_rigid_representation_gives_the_same_tables(self, b2):
        b = principal_part(b2)
        reps = {
            p: build_rigid_rep(
                ValuedQuiver.from_matrix(b, b2.diag, p), (1, 2), rng_seed=3
            )
            for p in (2, 3)
        }
        assert rigid_count_tables(
            b, b2.diag, (1, 2), (2, 3), rng_seed=3, rigid=reps.get
        ) == rigid_count_tables(b, b2.diag, (1, 2), (2, 3), rng_seed=3)

    def test_counts_evaluate_at_each_prime(self, b2):
        # The fitted polynomial at q = p reproduces every table, the
        # held-out primes included.
        b = principal_part(b2)
        polys = counting_polynomials(b, b2.diag, (1, 2))
        tables = rigid_count_tables(b, b2.diag, (1, 2), DEFAULT_PRIMES)
        for p in DEFAULT_PRIMES:
            for e, coeffs in polys.items():
                value = sum(c * p**k for k, c in enumerate(coeffs))
                assert value == tables[p][e]

    def test_g2_hardest_case_against_brute_force(self, g2):
        # Degree-5 counting data, checked at p = 2 by enumerating every
        # subspace tuple of an independently built rigid module.
        b = principal_part(g2)
        tables = rigid_count_tables(b, g2.diag, (2, 3), (2,))
        quiver = ValuedQuiver.from_matrix(b, g2.diag, 2)
        rep = build_rigid_rep(quiver, (2, 3), rng_seed=0)
        assert sum(tables[2].values()) > 0
        for e, cnt in tables[2].items():
            assert cnt == brute_count_subreps(rep, e)


class TestDenominatorCertificate:
    @pytest.mark.parametrize("name", ["A2", "B2", "G2", "A3", "B3"])
    def test_exponent_floor_vanishes(self, name):
        data = builtin_exchange_data(name)
        b = principal_part(data)
        for v in noninitial_d_vectors(data):
            polys = counting_polynomials(b, data.diag, v)
            assert exponent_floor(b, v, polys) == (0,) * data.n


class TestGenericCharacter:
    def test_b2_first_variable(self, b2):
        x = generic_character(b2, (1, 0))
        expected = QTorusElem.basis_elem(b2.lam, (-1, 2, 0, 0)) + QTorusElem.basis_elem(
            b2.lam, (-1, 0, 1, 0)
        )
        assert x == expected
        assert x == QuantumSeed.initial_seed(b2).mutate(0).variables[0]

    def test_bar_invariance_and_denominator(self, b2):
        for v in noninitial_d_vectors(b2):
            x = generic_character(b2, v)
            assert x.is_bar_invariant()
            assert torus_denominator_vector(x, 2) == v

    def test_specializes_to_the_classical_variable(self, b2):
        from valq.classical import ClassicalSeed

        cs = ClassicalSeed.initial_seed(b2).mutate(0).mutate(1)
        qx = generic_character(b2, cs.d_vector(1))
        assert qx.specialize_q1() == cs.variables[1]

    def test_coefficients_are_positive_symmetric_laurent(self, g2):
        x = generic_character(g2, (2, 3))
        for exp, coeff in x.terms.items():
            assert coeff == {-k: c for k, c in coeff.items()}
            assert all(c > 0 for c in coeff.values())


class TestReflectedCharacters:
    def test_reflected_tables_match_mutated_matrix(self, b2):
        for k, v in [(0, (1, 1)), (1, (1, 1)), (0, (1, 2))]:
            v_new, polys = reflected_counting_polynomials(b2, k, v)
            b = principal_part(b2)
            assert v_new == simple_reflection(b, k, v)
            mutated = principal_part(b2.mutate(k))
            assert polys == counting_polynomials(mutated, b2.diag, v_new)

    def test_character_transport_through_one_mutation(self, b2):
        # The initial-seed character of v equals the character computed
        # in the neighboring seed from the reflected counting data.
        for k, v in [(0, (1, 1)), (1, (1, 2))]:
            v_new, polys = reflected_counting_polynomials(b2, k, v)
            lhs = generic_character(b2, v)
            rhs = character_in_seed(
                QuantumSeed.initial_seed(b2).mutate(k), v_new, polys
            )
            assert lhs == rhs

    def test_initial_seed_character_matches_generic(self, b2):
        b = principal_part(b2)
        polys = counting_polynomials(b, b2.diag, (1, 1))
        direct = character_in_seed(QuantumSeed.initial_seed(b2), (1, 1), polys)
        assert direct == generic_character(b2, (1, 1))
