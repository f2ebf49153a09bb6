"""Finite fields, towers of embeddings, and subspace enumeration."""

from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from valq import finfield
from valq.finfield import (
    CapExceeded,
    FiniteField,
    NotPrime,
    _smallest_modulus,
    build_tower,
    enumerate_subspaces,
    enumerate_subspaces_containing,
    f_insert,
    f_inverse,
    f_kernel_basis,
    f_matmul,
    f_matvec,
    f_preimage,
    f_rank,
    f_rref,
    gaussian_binomial,
    is_prime,
    prime_factors,
    special_subspaces,
    to_digits,
)
from math import gcd

from conftest import f_in_span

SMALL_FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)]

# Every extension field the workloads count over: degrees 2 and 3 over
# the primes up to 17.
WORKLOAD_EXTENSIONS = [
    (p, d) for p in (2, 3, 5, 7, 11, 13, 17) for d in (2, 3)
]

# Every extension field with at most 4096 elements.
EXTENSIONS_TO_4096 = [
    (p, d)
    for p in range(2, 65)
    if is_prime(p)
    for d in range(2, 13)
    if p**d <= 4096
]

# Fields near the default cap of 65536 elements, with p past 127.
FIELDS_AT_THE_CAP = [(2, 16), (251, 2), (37, 3)]


def frobenius(field, a):
    """The Frobenius map a -> a^p of a field of characteristic p."""
    return field.pow(a, field.p)


def field(p, d):
    return FiniteField(p, d)


class TestPrimes:
    def test_is_prime(self):
        primes = [n for n in range(2, 60) if is_prime(n)]
        assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]
        assert not is_prime(1) and not is_prime(0) and not is_prime(-7)

    def test_prime_factors(self):
        assert prime_factors(360) == [2, 3, 5]
        assert prime_factors(97) == [97]


class TestFieldArithmetic:
    def test_prime_field_is_mod_p(self):
        F7 = field(7, 1)
        for a in range(F7.q):
            for b in range(F7.q):
                assert F7.add(a, b) == (a + b) % 7
                assert F7.mul(a, b) == (a * b) % 7

    def test_f4_multiplication_table(self):
        # Codes 0, 1, t, t+1 with t^2 = t + 1.
        F4 = field(2, 2)
        assert F4.modulus == (1, 1, 1)
        assert F4.mul(2, 2) == 3
        assert F4.mul(2, 3) == 1
        assert F4.inv(2) == 3
        assert F4.add(2, 3) == 1

    @pytest.mark.parametrize("p,d", SMALL_FIELDS)
    def test_field_axioms_exhaustive(self, p, d):
        F = field(p, d)
        els = list(range(F.q))
        for a in els:
            assert F.add(a, 0) == a and F.mul(a, 1) == a
            assert F.add(a, F.neg(a)) == 0
            if a:
                assert F.mul(a, F.inv(a)) == 1
                assert F.pow(a, F.q - 1) == 1
        for a in els:
            for b in els:
                assert F.add(a, b) == F.add(b, a)
                assert F.mul(a, b) == F.mul(b, a)
                for c in els[:3]:
                    assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
                    assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))

    @pytest.mark.parametrize("p,d", WORKLOAD_EXTENSIONS)
    def test_additive_group_is_digitwise(self, p, d):
        # add, sub and neg run through Zech logarithms; the oracle adds
        # base-p digit vectors
        import random
        from itertools import product

        F = field(p, d)
        digits = [F.digits(a) for a in range(F.q)]

        def oracle(a, b, sign):
            return F.from_digits(
                [x + sign * y for x, y in zip(digits[a], digits[b])]
            )

        assert [F.neg(a) for a in range(F.q)] == [
            oracle(0, a, -1) for a in range(F.q)
        ]
        if F.q <= 343:
            # every pair, a row at a time: a + sign * b for every code b,
            # digit by digit, with the lowest digit varying fastest
            for a in range(F.q):
                for sign, op in ((1, F.add), (-1, F.sub)):
                    columns = [
                        [(x + sign * y) % p * p**i for y in range(p)]
                        for i, x in enumerate(digits[a])
                    ]
                    row = [sum(c) for c in product(*reversed(columns))]
                    assert [op(a, b) for b in range(F.q)] == row
        else:
            rng = random.Random(F.q)
            pairs = [
                (rng.randrange(F.q), rng.randrange(F.q)) for _ in range(20000)
            ]
            assert [(F.add(a, b), F.sub(a, b)) for a, b in pairs] == [
                (oracle(a, b, 1), oracle(a, b, -1)) for a, b in pairs
            ]

    @pytest.mark.parametrize(
        "p,d",
        WORKLOAD_EXTENSIONS
        + [f for f in EXTENSIONS_TO_4096 if f not in WORKLOAD_EXTENSIONS],
    )
    def test_exp_is_the_chain_of_raw_products(self, p, d):
        F = field(p, d)
        chain = [1]
        for _ in range(F.q - 1):
            chain.append(F._raw_mul(chain[-1], F.gen))
        assert list(F.exp) + [1] == chain

    @pytest.mark.parametrize("p,d", EXTENSIONS_TO_4096)
    def test_gen_is_the_smallest_primitive_code(self, p, d):
        # element orders by chains of raw products, without the tables;
        # the codes below p are the prime-field constants that the
        # search skips
        F = field(p, d)

        def order(a):
            x, k = a, 1
            while x != 1:
                x, k = F._raw_mul(x, a), k + 1
            return k

        assert order(F.gen) == F.q - 1
        assert all(order(a) < F.q - 1 for a in range(1, F.gen))

    @pytest.mark.parametrize("p,d", FIELDS_AT_THE_CAP)
    def test_fields_at_the_cap(self, p, d):
        import random

        F = field(p, d)
        assert len(set(F.exp)) == F.q - 1 and 0 not in F.exp
        chain = [1]
        for _ in range(2000):
            chain.append(F._raw_mul(chain[-1], F.gen))
        assert list(F.exp[:2001]) == chain
        # and steps spread over the whole table, the last one wrapping
        rng = random.Random(F.q)
        for k in [F.q - 2] + [rng.randrange(F.q - 1) for _ in range(500)]:
            assert F.exp[(k + 1) % (F.q - 1)] == F._raw_mul(F.exp[k], F.gen)

    def test_digits_round_trip(self):
        F9 = field(3, 2)
        for a in range(F9.q):
            assert F9.from_digits(F9.digits(a)) == a

    def test_frobenius_is_additive_field_automorphism(self):
        F9 = field(3, 2)
        for a in range(F9.q):
            for b in range(F9.q):
                assert frobenius(F9, F9.add(a, b)) == F9.add(
                    frobenius(F9, a), frobenius(F9, b)
                )
        # Fixed field is the prime field.
        fixed = [a for a in range(F9.q) if frobenius(F9, a) == a]
        assert fixed == [0, 1, 2]

    def test_roots(self):
        # X^2 + 1 has no root mod 3 and two roots in the degree-2 extension.
        assert field(3, 1).roots((1, 0, 1)) == []
        assert len(field(3, 2).roots((1, 0, 1))) == 2

    def test_guards(self):
        with pytest.raises(NotPrime):
            FiniteField(4, 1)
        with pytest.raises(ValueError):
            FiniteField(2, 0)
        # A tower names its smallest field over the cap.
        with pytest.raises(CapExceeded, match="^field size 16 exceeds cap 8$"):
            build_tower(2, (20, 4), cap=8)
        with pytest.raises(ZeroDivisionError):
            field(5, 1).inv(0)


class TestModulus:
    @pytest.mark.parametrize(
        "p, d, modulus",
        [
            (3, 6, (2, 1, 0, 0, 0, 0, 1)),
            (3, 12, (2, 0, 1) + (0,) * 9 + (1,)),
            (11, 6, (2, 1, 0, 0, 0, 0, 1)),
        ],
    )
    def test_smallest_code_irreducible(self, p, d, modulus):
        assert _smallest_modulus(p, d) == modulus

    def test_generator_powers_fill_the_unit_group(self):
        # Over a reducible modulus the codes form a ring with zero
        # divisors, and no element's powers reach every nonzero code.
        sizes = EXTENSIONS_TO_4096
        assert len(sizes) == 40
        for p, d in sizes:
            assert len(set(FiniteField(p, d).exp)) == p**d - 1


class TestLinearAlgebra:
    def brute_span_size(self, F, rows):
        span = {tuple([0] * len(rows[0]))}
        from itertools import product

        for coeffs in product(range(F.q), repeat=len(rows)):
            v = [0] * len(rows[0])
            for c, row in zip(coeffs, rows):
                for j, x in enumerate(row):
                    v[j] = F.add(v[j], F.mul(c, x))
            span.add(tuple(v))
        return len(span)

    @pytest.mark.parametrize("p,d", [(2, 1), (17, 1), (3, 2), (5, 2)])
    def test_rank_matches_the_rref_pivots(self, p, d):
        import random

        F = field(p, d)
        rng = random.Random(13 * F.q)
        for _ in range(60):
            nrows, ncols = rng.randrange(0, 9), rng.randrange(1, 9)
            rows = []
            for _ in range(nrows):
                draw = rng.random()
                if draw < 0.15:
                    rows.append([0] * ncols)
                elif draw < 0.3 and rows:
                    rows.append(list(rng.choice(rows)))
                elif draw < 0.45 and rows:
                    c = rng.randrange(1, F.q)
                    rows.append([F.mul(c, x) for x in rng.choice(rows)])
                else:
                    rows.append([rng.randrange(F.q) for _ in range(ncols)])
            before = [list(r) for r in rows]
            assert f_rank(F, rows) == len(f_rref(F, rows)[1])
            assert rows == before
        assert f_rank(F, []) == 0 and f_rank(F, [[], []]) == 0

    @pytest.mark.parametrize("p,d", [(2, 1), (3, 1), (2, 2)])
    def test_rank_matches_span_size(self, p, d):
        import random

        F = field(p, d)
        rng = random.Random(7)
        for _ in range(20):
            rows = [
                [rng.randrange(F.q) for _ in range(3)]
                for _ in range(rng.randrange(1, 4))
            ]
            r = f_rank(F, rows)
            assert self.brute_span_size(F, rows) == F.q**r

    def test_rref_is_idempotent_and_pivots_are_unit_columns(self):
        F4 = field(2, 2)
        rows = ((1, 2, 3), (2, 3, 1), (3, 1, 2))
        red, pivots = f_rref(F4, rows)
        red2, pivots2 = f_rref(F4, red)
        assert red2 == red and pivots2 == pivots
        for r, pc in enumerate(pivots):
            col = [red[i][pc] for i in range(len(red))]
            assert col[r] == 1 and all(x == 0 for i, x in enumerate(col) if i != r)

    @pytest.mark.parametrize("p,d", [(2, 1), (3, 1), (2, 2), (3, 2), (3, 3)])
    def test_insert_builds_the_rref_one_vector_at_a_time(self, p, d):
        import random

        F = field(p, d)
        rng = random.Random(31 * F.q)
        for _ in range(40):
            n = rng.randrange(1, 6)
            vectors = []
            for _ in range(rng.randrange(1, 8)):
                draw = rng.random()
                if draw < 0.15:
                    vectors.append([0] * n)
                elif draw < 0.3 and vectors:
                    vectors.append(list(rng.choice(vectors)))
                else:
                    vectors.append([rng.randrange(F.q) for _ in range(n)])
            rows, pivots = [], []
            for vec in vectors:
                before = [list(r) for r in rows], list(pivots), list(vec)
                rows_in, pivots_in = rows, pivots
                rows, pivots = f_insert(F, rows, pivots, vec)
                # the walk restores a parent's basis by keeping its lists
                assert ([list(r) for r in rows_in], pivots_in, vec) == before
            red, want = f_rref(F, vectors)
            assert pivots == want
            assert rows == red

    def test_kernel_is_killed_and_has_right_dimension(self):
        F9 = field(3, 2)
        rows = ((1, 2, 3), (2, 4, 6))
        basis = f_kernel_basis(F9, rows, 3)
        assert len(basis) == 3 - f_rank(F9, rows)
        for v in basis:
            assert f_matvec(F9, rows, v) == [0, 0]

    def test_kernel_of_no_rows_is_the_whole_space(self):
        assert f_kernel_basis(field(3, 2), [], 2) == [[1, 0], [0, 1]]
        assert f_kernel_basis(field(3, 2), [], 0) == []

    @pytest.mark.parametrize("p,d", [(2, 1), (3, 1), (2, 2)])
    def test_preimage_against_every_vector(self, p, d):
        # the x with M x in span(T), counted over every x, is a space of
        # q**len(basis) vectors that the basis spans
        import random
        from itertools import product

        F = field(p, d)
        rng = random.Random(p * d)
        for nrows, ncols in [(0, 2), (2, 0), (1, 3), (2, 2), (3, 2)]:
            for rank in range(nrows + 1):
                m = [[rng.randrange(F.q) for _ in range(ncols)] for _ in range(nrows)]
                t, _ = f_rref(F, [[rng.randrange(F.q) for _ in range(nrows)]
                                  for _ in range(rank)])
                basis = f_preimage(F, m, t, ncols)
                inside = [
                    x for x in product(range(F.q), repeat=ncols)
                    if f_in_span(F, t, f_matvec(F, m, x))
                ]
                assert len(inside) == F.q ** len(basis)
                assert f_rank(F, basis) == len(basis)
                for x in basis:
                    assert f_in_span(F, t, f_matvec(F, m, x))

    @pytest.mark.parametrize("p,d", [(2, 2), (3, 1), (2, 1)])
    def test_special_subspaces_against_every_subspace(self, p, d):
        # Each preimage J = chi^-1(T), for chi a prime-field matrix on the
        # digit vectors of V, which are V(x) over the prime field, is read
        # from its cheaper side.  W above F is special on the primal side
        # when it meets J outside F, and on the dual side when W + J is
        # not everything.
        import random

        F, prime = field(p, d), field(p, 1)
        tower = build_tower(p, (d,))
        rng = random.Random(10 * p + d)
        n = 3

        def digits(rows):
            return [
                to_digits(F, [F.mul(p**s if s else 1, x) for x in row])
                for row in rows
                for s in range(d)
            ]

        def meet(a, b):
            return f_rank(prime, a) + f_rank(prime, b) - f_rank(prime, a + b)

        seen = 0
        for _ in range(12):
            f = rng.randrange(2)
            forced = f_rref(F, [[rng.randrange(F.q) for _ in range(n)]
                                for _ in range(f)])
            maps = []
            for _ in range(rng.randrange(1, 3)):
                nrows = rng.randrange(1, 4)
                chi = [[rng.randrange(p) for _ in range(n * d)]
                       for _ in range(nrows)]
                rows, _ = f_rref(prime, [[rng.randrange(p) for _ in range(nrows)]
                                         for _ in range(rng.randrange(nrows + 1))])
                maps.append((chi, 1, prime, rows))
            out = special_subspaces(tower, d, n, forced, maps)
            preimages = [f_preimage(prime, chi, rows, n * d) for chi, _, _, rows in maps]
            base = digits(forced[0])
            free = d * (n - len(base) // d)
            dual = [
                2 * (f_rank(prime, base + j) - len(base)) > free for j in preimages
            ]
            want, total = set(), [0] * (n + 1)
            for k in range(n + 1):
                for w in enumerate_subspaces_containing(F, n, k, forced[0]):
                    total[k] += 1
                    ws = digits(w)
                    if any(
                        f_rank(prime, ws + j) < n * d
                        if side
                        else meet(ws, j) > meet(base, j)
                        for j, side in zip(preimages, dual)
                    ):
                        want.add(tuple(map(tuple, f_rref(F, w)[0])))
            if out is None:
                continue
            seen += 1
            special, shared, raised = out
            assert [s == 0 for s, _ in raised] == dual
            got = set()
            for w in special:
                red, _ = f_rref(F, w)
                assert [list(r) for r in red] == [list(r) for r in w]
                got.add(tuple(map(tuple, w)))
            assert got == want
            assert shared == [
                total[k] - sum(len(w) == k for w in special)
                for k in range(len(forced[0]), n + 1)
            ]
        assert seen

    def test_inverse_round_trip(self):
        F5 = field(5, 1)
        m = ((1, 2), (3, 4))
        inv = f_inverse(F5, m)
        assert f_matmul(F5, m, inv) == [[1, 0], [0, 1]]
        assert f_matmul(F5, inv, m) == [[1, 0], [0, 1]]

    def test_singular_matrix_has_no_inverse(self):
        F5 = field(5, 1)
        with pytest.raises(ZeroDivisionError):
            f_inverse(F5, ((1, 2), (2, 4)))

    def test_in_span(self):
        F2 = field(2, 1)
        rows = ((1, 1, 0), (0, 1, 1))
        assert f_in_span(F2, rows, (1, 0, 1))
        assert not f_in_span(F2, rows, (1, 0, 0))


class TestSpecialSubspaces:
    """``special_subspaces`` against the whole enumeration above F, with
    each map the identity of V(x), the span over the target's field E of
    the F_g-coordinate vectors of V, F_g the largest common subfield of E
    and the field of V; so its preimage J is the given subspace of V(x).
    The special subspaces, each read directly, and the shared counts,
    read at the meets that ``raised`` gives, make the histogram of (dim W,
    dim(W(x) meet J_1), ..., dim(W(x) meet J_m)) over every W above F.
    W(x) is built here from the subfield basis that
    ``FieldTower.from_subfield_coords`` gives."""

    @staticmethod
    def check(p, d, n, forced, spaces):
        """The sides ``raised`` chose, or None when every W is sent.
        ``spaces`` holds (target degree, vectors over that field spanning
        J in V(x))."""
        tower = build_tower(p, [d] + [dt for dt, _ in spaces])
        F = tower.field(d)
        maps = []
        for dt, rows in spaces:
            target, g = tower.field(dt), gcd(d, dt)
            size = n * d // g
            identity = [[int(r == c) for c in range(size)] for r in range(size)]
            maps.append((identity, g, target, f_rref(target, rows)[0]))
        forced = f_rref(F, forced)
        out = special_subspaces(tower, d, n, forced, maps)
        if out is None:
            return None
        special, shared, raised = out

        def tensored(rows, g, target):
            e = d // g
            units = [
                tower.from_subfield_coords(d, g, [int(s == l) for s in range(e)])
                for l in range(e)
            ]
            return [
                [
                    tower.embed(g, target.d, c)
                    for c in tower.to_subfield(d, g, [F.mul(u, x) for x in w])
                ]
                for w in rows
                for u in units
            ]

        def meets(rows):
            out = [len(rows)]
            for _, g, target, j in maps:
                ws = tensored(rows, g, target)
                out.append(
                    f_rank(target, ws) + f_rank(target, j) - f_rank(target, ws + j)
                )
            return tuple(out)

        want = Counter(
            meets(w)
            for k in range(n + 1)
            for w in enumerate_subspaces_containing(F, n, k, forced[0])
        )
        got = Counter(meets(w) for w in special)
        f, *base = meets(forced[0])
        for a, count in enumerate(shared):
            # dim(W(x) meet J) = e dim W + dim J - dim(W(x) + J), and
            # dim(W(x) + J) = dim(F(x) + J) + s a + c over E, e = d / g
            key = tuple(
                m + (d // g) * a - (s * a + c)
                for m, (_, g, _, _), (s, c) in zip(base, maps, raised)
            )
            got[(f + a,) + key] += count
        assert got == want
        assert len(special) == len({tuple(map(tuple, w)) for w in special})
        return ["dual" if s == 0 else "primal" for s, _ in raised]

    @staticmethod
    def space(kind, field, dim, rng):
        """A subspace of field**dim: zero, everything, a hyperplane, or
        the span of random vectors."""
        q = field.q
        if kind == "zero":
            return []
        if kind == "everything":
            return [[int(r == c) for c in range(dim)] for r in range(dim)]
        if kind == "hyperplane":
            form = [rng.randrange(q) for _ in range(dim - 1)] + [1]
            rng.shuffle(form)
            return f_kernel_basis(field, [form], dim)
        return [
            [rng.randrange(q) for _ in range(dim)]
            for _ in range(rng.randrange(dim + 1))
        ]

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_against_the_whole_enumeration(self, data):
        import random

        p = data.draw(st.sampled_from((2, 3)), label="p")
        e = data.draw(st.sampled_from((1, 2, 3)), label="e")
        n = data.draw(st.integers(1, 3), label="n")
        rng = random.Random(data.draw(st.integers(0, 2**32), label="seed"))
        f = data.draw(st.integers(0, n), label="forced rows")
        forced = [[rng.randrange(p**e) for _ in range(n)] for _ in range(f)]
        # targets of degree 1 or e, over a subfield of V, and of degree 2
        # or 3, which e need not divide
        kinds = data.draw(
            st.lists(
                st.tuples(
                    st.sampled_from(("zero", "everything", "hyperplane", "random")),
                    st.sampled_from((1, e, 2, 3)),
                ),
                min_size=1,
                max_size=3,
            ),
            label="kinds and target degrees",
        )
        tower = build_tower(p, (e, 2, 3))
        spaces = [
            (g, self.space(kind, tower.field(g), n * e // gcd(e, g), rng))
            for kind, g in kinds
        ]
        self.check(p, e, n, forced, spaces)

    @pytest.mark.parametrize("p,e", [(2, 2), (3, 2), (2, 3)])
    def test_one_parent_reads_both_sides(self, p, e):
        # above a line F of a 3-space, a line of J is tested from J and a
        # hyperplane from its annihilator, a line; zero and everything
        # mark nothing special
        import random

        rng = random.Random(p * e)
        prime = field(p, 1)
        forced = [[1, rng.randrange(p**e), rng.randrange(p**e)]]
        spaces = [
            (1, self.space("hyperplane", prime, 3 * e, rng)),
            (1, [[rng.randrange(p) for _ in range(3 * e)]]),
            (1, self.space("zero", prime, 3 * e, rng)),
            (1, self.space("everything", prime, 3 * e, rng)),
        ]
        sides = self.check(p, e, 3, forced, spaces)
        assert sides == ["dual", "primal", "primal", "dual"]

    def test_preimages_over_the_field_of_v_are_read_by_its_lines(self):
        # Three lines of F_9^2: each holds 4 prime-field lines but one
        # line over F_9, so the 3 lines, fewer than the 12 subspaces,
        # are read where 12 prime-field lines would send every subspace.
        lines = [[[1, 0]], [[0, 1]], [[1, 1]]]
        assert self.check(3, 2, 2, [], [(2, w) for w in lines]) == ["primal"] * 3
        # In F_4^3 a plane is read from its annihilator, 3 prime-field
        # lines but one line over F_4, and a line from itself.
        spaces = [(2, [[1, 0, 0], [0, 1, 2]]), (2, [[0, 1, 1]])]
        assert self.check(2, 2, 3, [], spaces) == ["dual", "primal"]

    @pytest.mark.parametrize("p,d,dt", [(2, 1, 2), (2, 2, 3), (3, 2, 3), (2, 3, 2), (2, 2, 4)])
    def test_targets_of_a_degree_not_dividing_d(self, p, d, dt):
        # Over the target's field E, V(x) has dimension n d / g.  Above 0
        # and above a line F of V, a line of V(x) is read from itself and
        # a hyperplane from its annihilator, a line; and random subspaces
        # of every dimension above every F.
        import random

        rng = random.Random(100 * p + 10 * d + dt)
        n, size = 3, 3 * d // gcd(d, dt)
        E = build_tower(p, (d, dt)).field(dt)
        # F(x) is the span of the first d / g unit vectors, outside the
        # hyperplane
        forced = [[1, 0, 0]]
        form = [1] + [rng.randrange(E.q) for _ in range(size - 1)]
        spaces = [
            (dt, [[rng.randrange(E.q) for _ in range(size)]]),
            (dt, f_kernel_basis(E, [form], size)),
        ]
        assert self.check(p, d, n, forced, spaces) == ["primal", "dual"]
        assert self.check(p, d, n, [], spaces) == ["primal", "dual"]
        for rank in range(size + 1):
            rows = [[rng.randrange(E.q) for _ in range(size)] for _ in range(rank)]
            for f in range(n + 1):
                forced = [[rng.randrange(p**d) for _ in range(n)] for _ in range(f)]
                self.check(p, d, n, forced, [(dt, rows)])


class TestGrassmannian:
    def test_gaussian_binomial_values(self):
        assert gaussian_binomial(2, 4, 2) == 35
        assert gaussian_binomial(3, 2, 1) == 4
        assert gaussian_binomial(4, 2, 1) == 5
        assert gaussian_binomial(2, 3, 3) == 1
        assert gaussian_binomial(2, 3, 4) == 0

    def test_gaussian_binomial_matches_the_fraction_product(self):
        # the definition, prod over i < k of (q^(n-i) - 1) / (q^(i+1) - 1)
        for q in range(2, 65):
            for n in range(9):
                for k in range(-1, n + 2):
                    want = Fraction(int(0 <= k <= n))
                    for i in range(max(k, 0) if k <= n else 0):
                        want *= Fraction(q ** (n - i) - 1, q ** (i + 1) - 1)
                    got = gaussian_binomial(q, n, k)
                    assert type(got) is int and got == want, (q, n, k)

    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from([2, 3, 4, 5]),
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=1, max_value=5),
    )
    def test_pascal_recurrence(self, q, n, k):
        assert gaussian_binomial(q, n, k) == gaussian_binomial(
            q, n - 1, k - 1
        ) + q**k * gaussian_binomial(q, n - 1, k)
        assert gaussian_binomial(q, n, k) == gaussian_binomial(q, n, n - k)

    @pytest.mark.parametrize("p,d", SMALL_FIELDS)
    def test_subspace_counts_match_gaussian_binomials(self, p, d):
        F = field(p, d)
        for n in range(1, 4):
            for k in range(0, n + 1):
                count = sum(1 for _ in enumerate_subspaces(F, n, k))
                assert count == gaussian_binomial(F.q, n, k)

    def test_subspaces_are_distinct_rrefs(self):
        F4 = field(2, 2)
        seen = set()
        for rows in enumerate_subspaces(F4, 3, 2):
            red, _ = f_rref(F4, rows)
            assert [list(r) for r in red] == rows
            seen.add(tuple(tuple(r) for r in rows))
        assert len(seen) == gaussian_binomial(4, 3, 2)

    def test_cap_enforced(self, monkeypatch):
        monkeypatch.setattr(finfield, "ENUMERATION_CAP", 10)
        with pytest.raises(CapExceeded, match="^grassmannian has 91 points$"):
            list(enumerate_subspaces(field(3, 2), 3, 2))

    def test_subspaces_containing_count(self):
        # Subspaces of dimension k through a fixed dimension-j subspace
        # biject with (k-j)-subspaces of the quotient.
        F4 = field(2, 2)
        fixed = ((0, 0, 1),)
        count = sum(1 for _ in enumerate_subspaces_containing(F4, 3, 2, fixed))
        assert count == gaussian_binomial(4, 2, 1)

    @pytest.mark.parametrize("p,d", [(2, 1), (3, 1), (2, 2), (3, 2)])
    def test_subspaces_containing_match_brute_force(self, p, d):
        # Forced rows with zero, repeated, scaled and summed rows, none of
        # them reduced: the subspaces yielded are those of field**n that
        # contain their span, each once, as many as the quotient's.
        import random

        F = field(p, d)
        rng = random.Random(13 * F.q)

        def rref_key(rows):
            return tuple(map(tuple, f_rref(F, rows)[0]))

        for n in range(1, 4):
            for _ in range(5):
                base = [
                    [rng.randrange(F.q) for _ in range(n)]
                    for _ in range(rng.randrange(3))
                ]
                forced = base + [[0] * n]
                if base:
                    c = rng.randrange(1, F.q)
                    forced.append(list(base[0]))
                    forced.append([F.mul(c, x) for x in base[-1]])
                    forced.append([F.add(x, y) for x, y in zip(base[0], base[-1])])
                rng.shuffle(forced)
                w = f_rank(F, forced)
                for k in range(n + 1):
                    got = [
                        rref_key(rows)
                        for rows in enumerate_subspaces_containing(F, n, k, forced)
                    ]
                    want = {
                        rref_key(rows)
                        for rows in enumerate_subspaces(F, n, k)
                        if all(f_in_span(F, rows, v) for v in forced)
                    }
                    assert len(got) == gaussian_binomial(F.q, n - w, k - w)
                    assert set(got) == want and len(set(got)) == len(got)

    def test_subspaces_containing_really_contain(self):
        F3 = field(3, 1)
        fixed = ((1, 2, 0),)
        for rows in enumerate_subspaces_containing(F3, 3, 2, fixed):
            assert f_in_span(F3, rows, (1, 2, 0))


class TestTowers:
    def test_closure_includes_divisor_grid(self):
        t = build_tower(2, (2, 4))
        assert sorted(t.fields) == [1, 2, 4]

    def test_embeddings_are_ring_homomorphisms(self):
        t = build_tower(2, (2, 4))
        F4 = t.field(2)
        for x in range(F4.q):
            for y in range(F4.q):
                ex, ey = t.embed(2, 4, x), t.embed(2, 4, y)
                assert t.embed(2, 4, F4.add(x, y)) == t.field(4).add(ex, ey)
                assert t.embed(2, 4, F4.mul(x, y)) == t.field(4).mul(ex, ey)
        assert t.embed(2, 4, 1) == 1
        # Injectivity.
        images = {t.embed(2, 4, x) for x in range(F4.q)}
        assert len(images) == 4

    def test_embedding_composition_law(self):
        t = build_tower(2, (2, 4))
        for x in range(t.field(1).q):
            assert t.embed(1, 4, x) == t.embed(2, 4, t.embed(1, 2, x))
        t3 = build_tower(3, (2, 4))
        for x in range(t3.field(1).q):
            assert t3.embed(1, 4, x) == t3.embed(2, 4, t3.embed(1, 2, x))

    def test_embed_inverse_round_trip(self):
        t = build_tower(3, (2,))
        for x in range(t.field(1).q):
            assert t.embed_inverse(2, 1, t.embed(1, 2, x)) == x

    def test_relative_trace_is_surjective_subfield_linear(self):
        t = build_tower(3, (2,))
        F9, F3 = t.field(2), t.field(1)
        traces = {t.relative_trace(2, 1, x) for x in range(F9.q)}
        assert traces == set(range(F3.q))
        for x in range(F9.q):
            for y in range(F9.q):
                assert t.relative_trace(2, 1, F9.add(x, y)) == F3.add(
                    t.relative_trace(2, 1, x), t.relative_trace(2, 1, y)
                )
        # On embedded subfield elements the trace multiplies by the
        # extension degree.
        for y in range(F3.q):
            assert t.relative_trace(2, 1, t.embed(1, 2, y)) == F3.mul(2 % 3, y)

    def test_trace_gram_entries_and_inverse(self):
        # F_9 over F_3, and F_16 over F_4 inside the F_2 tower
        for p, degrees, b, a in [(3, (2,), 2, 1), (2, (2, 4), 4, 2)]:
            t = build_tower(p, degrees)
            big, small = t.field(b), t.field(a)
            e = b // a
            gen = big.from_digits([0, 1] + [0] * (b - 2))
            power = [1]
            for _ in range(2 * e - 2):
                power.append(big.mul(power[-1], gen))
            gram, inverse = t.trace_gram(b, a)
            assert gram == [
                [t.relative_trace(b, a, power[i + l]) for l in range(e)]
                for i in range(e)
            ]
            identity = [[int(i == l) for l in range(e)] for i in range(e)]
            assert f_matmul(small, gram, inverse) == identity

    @pytest.mark.parametrize("p,degrees", [(2, (1, 3)), (3, (1, 2)), (17, (1, 3))])
    def test_prime_subfield_coords_sum_back(self, p, degrees):
        # y = sum c_l * t**l with t the code p, through field operations
        t = build_tower(p, degrees)
        b = max(degrees)
        F = t.field(b)
        for y in range(F.q):
            coords = t.subfield_coords(b, 1, y)
            assert len(coords) == b and all(0 <= c < p for c in coords)
            acc = 0
            for l, c in enumerate(coords):
                acc = F.add(acc, F.mul(c, F.pow(p, l)))
            assert acc == y
            assert t.from_subfield_coords(b, 1, coords) == y

    def test_subfield_coords_round_trip(self):
        # F_16 over F_4, and F_64 over F_4 and over F_8: the subfield
        # branch, with y = sum of embedded c_l times t**l
        for degrees, b, a in [((2, 4), 4, 2), ((2, 3, 6), 6, 2), ((2, 3, 6), 6, 3)]:
            t = build_tower(2, degrees)
            F = t.field(b)
            for y in range(F.q):
                coords = t.subfield_coords(b, a, y)
                assert len(coords) == b // a
                assert all(0 <= c < t.field(a).q for c in coords)
                assert t.from_subfield_coords(b, a, coords) == y
                acc = 0
                for l, c in enumerate(coords):
                    acc = F.add(acc, F.mul(t.embed(a, b, c), F.pow(2, l)))
                assert acc == y
