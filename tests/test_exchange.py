"""Exchange matrices: symmetrizers, framing, mutation, compatible pairs."""

import json
from fractions import Fraction
from itertools import product
from math import gcd, lcm
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from valq import matrices as mx
from valq.exchange import (
    BUILTIN_MATRICES,
    BadSymmetrizer,
    IndexOutOfRange,
    Lambda0NotSkew,
    NotAcyclic,
    NotSkewSymmetrizable,
    arrows,
    build_exchange_data,
    builtin_exchange_data,
    check_symmetrizer,
    compatibility_defect,
    framed_star_matrix,
    is_acyclic,
    minimal_symmetrizer,
    principal_framing,
    star_left_matrix,
    topological_order,
    valued_arrows,
)

CYCLIC3 = ((0, 1, -1), (-1, 0, 1), (1, -1, 0))


class TestMatrices:
    def test_det_small(self):
        assert mx.det(((2,),)) == 2
        assert mx.det(((1, 2), (3, 4))) == -2
        assert mx.det(((0, 1, 0), (0, 0, 1), (1, 0, 0))) == 1

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.lists(st.integers(min_value=-3, max_value=3), min_size=3, max_size=3),
            min_size=3,
            max_size=3,
        )
    )
    def test_det_by_cofactor_expansion(self, rows):
        m = mx.freeze(rows)
        expected = sum(
            (-1) ** j
            * m[0][j]
            * mx.det(
                mx.freeze(
                    [
                        [m[r][c] for c in range(3) if c != j]
                        for r in range(1, 3)
                    ]
                )
            )
            for j in range(3)
        )
        assert mx.det(m) == expected

    def test_matmul_identity(self):
        m = mx.freeze([[1, 2], [3, 4]])
        assert mx.matmul(m, mx.identity(2)) == m


class TestSymmetrizer:
    def test_minimal_values(self):
        assert minimal_symmetrizer(BUILTIN_MATRICES["A2"]) == (1, 1)
        assert minimal_symmetrizer(BUILTIN_MATRICES["B2"]) == (2, 1)
        assert minimal_symmetrizer(BUILTIN_MATRICES["C2"]) == (1, 2)
        assert minimal_symmetrizer(BUILTIN_MATRICES["G2"]) == (3, 1)
        assert minimal_symmetrizer(BUILTIN_MATRICES["A3"]) == (1, 1, 1)
        assert minimal_symmetrizer(BUILTIN_MATRICES["B3"]) == (2, 2, 1)

    def test_check_accepts_multiples(self):
        b = BUILTIN_MATRICES["B2"]
        check_symmetrizer(b, (2, 1))
        check_symmetrizer(b, (4, 2))
        with pytest.raises(BadSymmetrizer):
            check_symmetrizer(b, (1, 1))
        with pytest.raises(BadSymmetrizer):
            check_symmetrizer(b, (0, 1))

    def test_not_skew_symmetrizable(self):
        with pytest.raises(NotSkewSymmetrizable):
            minimal_symmetrizer(((0, 1), (1, 0)))
        with pytest.raises(NotSkewSymmetrizable):
            # Zero pattern must be symmetric.
            minimal_symmetrizer(((0, 1), (0, 0)))


def fraction_symmetrizer(b):
    """``minimal_symmetrizer`` as it was defined in Fraction arithmetic,
    for a matrix that passes its sign checks: the ratios d_j/d_i forced
    from each component's first vertex, scaled to coprime integers."""
    n = len(b)
    ratio = [None] * n
    for start in range(n):
        if ratio[start] is not None:
            continue
        component = [start]
        ratio[start] = Fraction(1)
        queue = [start]
        while queue:
            i = queue.pop()
            for j in range(n):
                if b[i][j] and ratio[j] is None:
                    ratio[j] = ratio[i] * Fraction(-b[i][j], b[j][i])
                    component.append(j)
                    queue.append(j)
        scale = lcm(*(ratio[i].denominator for i in component))
        ints = [int(ratio[i] * scale) for i in component]
        shrink = gcd(*ints)
        for i, v in zip(component, ints):
            ratio[i] = v // shrink
    return tuple(ratio)


def components(b):
    """The vertex sets of the connected components of b's graph."""
    n = len(b)
    seen, out = set(), []
    for start in range(n):
        if start in seen:
            continue
        comp, queue = {start}, [start]
        while queue:
            i = queue.pop()
            for j in range(n):
                if b[i][j] and j not in comp:
                    comp.add(j)
                    queue.append(j)
        seen |= comp
        out.append(sorted(comp))
    return out


# A matrix with the symmetrizer diag: for each pair i < j, either no
# edge, or b_ij = s * m * d_j / g and b_ji = -s * m * d_i / g with
# g = gcd(d_i, d_j), a sign s and a multiplier m.
@st.composite
def rescaled_matrix(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    diag = [draw(st.integers(min_value=1, max_value=12)) for _ in range(n)]
    b = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            m = draw(st.integers(min_value=-2, max_value=2))
            if m:
                g = gcd(diag[i], diag[j])
                b[i][j] = m * diag[j] // g
                b[j][i] = -m * diag[i] // g
    return mx.freeze(b), tuple(diag)


class TestSymmetrizerArithmetic:
    def test_builtins(self):
        for name, b in BUILTIN_MATRICES.items():
            d = minimal_symmetrizer(b)
            assert d == fraction_symmetrizer(b), name
            check_symmetrizer(b, d)
            for comp in components(b):
                assert gcd(*(d[i] for i in comp)) == 1, name

    @settings(max_examples=200, deadline=None)
    @given(rescaled_matrix())
    def test_random_rescalings(self, case):
        # The symmetrizer of each component is unique up to scale, so the
        # minimal one is diag divided by its gcd there.
        b, diag = case
        want = list(diag)
        for comp in components(b):
            shrink = gcd(*(diag[i] for i in comp))
            for i in comp:
                want[i] //= shrink
        assert minimal_symmetrizer(b) == tuple(want) == fraction_symmetrizer(b)
        check_symmetrizer(b, diag)

    def test_inconsistent_cycle(self):
        # 0 -> 1 -> 2 -> 0 forces d_1 = d_0, d_2 = 2 d_1 and d_0 = d_2
        b = ((0, 1, -1), (-1, 0, 2), (1, -1, 0))
        with pytest.raises(NotSkewSymmetrizable, match="inconsistent ratios"):
            minimal_symmetrizer(b)

    @pytest.mark.parametrize(
        "diag, text",
        [
            ((2,), "D has 1 entry, B has 2 rows"),
            ((2, 1, 1), "D has 3 entries, B has 2 rows"),
            ((1, 1), "d_1*b_1,2 != -d_2*b_2,1"),
        ],
    )
    def test_check_messages(self, diag, text):
        with pytest.raises(BadSymmetrizer) as exc:
            check_symmetrizer(BUILTIN_MATRICES["B2"], diag)
        assert str(exc.value) == text

    def test_check_message_for_one_row(self):
        with pytest.raises(BadSymmetrizer) as exc:
            check_symmetrizer(((0,),), ())
        assert str(exc.value) == "D has 0 entries, B has 1 row"


class TestQuiverShape:
    def test_arrows_point_against_positive_entries(self):
        # An arrow i -> j is recorded exactly when b[i][j] < 0.
        assert arrows(BUILTIN_MATRICES["B2"]) == [(1, 0)]
        assert arrows(BUILTIN_MATRICES["A3"]) == [(1, 0), (2, 1)]

    def test_valued_arrows_identity(self):
        for name in ("B2", "G2", "A3", "B3"):
            b = BUILTIN_MATRICES[name]
            diag = minimal_symmetrizer(b)
            for i, j, m, g in valued_arrows(b, diag):
                assert m * diag[j] // g == abs(b[i][j])
                assert m * diag[i] // g == abs(b[j][i])

    def test_topological_order(self):
        # Every arrow i -> j must have i before j in the order.
        for name, b in BUILTIN_MATRICES.items():
            if not is_acyclic(b):
                continue
            order = topological_order(b)
            pos = {v: k for k, v in enumerate(order)}
            for i, j in arrows(b):
                assert pos[i] < pos[j]

    def test_cycle_detected(self):
        assert not is_acyclic(CYCLIC3)
        assert topological_order(CYCLIC3) is None

    def test_wild3_is_acyclic(self):
        assert is_acyclic(BUILTIN_MATRICES["WILD3"])


class TestCompatiblePair:
    def test_b2_lambda_matrix(self, b2):
        assert b2.lam == (
            (0, 0, -2, 0),
            (0, 0, 0, -1),
            (2, 0, 0, -2),
            (0, 1, 2, 0),
        )

    def test_defect_vanishes_for_all_builtins(self):
        for name in BUILTIN_MATRICES:
            data = builtin_exchange_data(name)
            defect = compatibility_defect(data.btilde, data.lam, data.diag)
            assert all(not any(row) for row in defect)

    def test_nonzero_lambda0_still_compatible(self):
        lam0 = ((0, 1), (-1, 0))
        data = build_exchange_data(BUILTIN_MATRICES["B2"], lambda0=lam0)
        defect = compatibility_defect(data.btilde, data.lam, data.diag)
        assert all(not any(row) for row in defect)
        assert data.lam != builtin_exchange_data("B2").lam

    def test_lambda0_must_be_skew(self):
        with pytest.raises(Lambda0NotSkew):
            build_exchange_data(BUILTIN_MATRICES["B2"], lambda0=((0, 1), (1, 0)))

    def test_lam_pairing_is_the_bilinear_form(self, b2):
        a = (1, 0, -1, 2)
        c = (0, 3, 1, 0)
        expected = sum(
            a[i] * b2.lam[i][j] * c[j] for i in range(4) for j in range(4)
        )
        assert b2.lam_pairing(a, c) == expected
        assert b2.lam_pairing(c, a) == -expected


class TestMutation:
    def test_square_matrix_rule(self):
        # One step at vertex 1 of the B2 matrix flips the sign pattern.
        b2 = builtin_exchange_data("B2")
        m = b2.mutate(1)
        assert m.btilde[0][:2] == (0, -1)
        assert m.btilde[1][:2] == (2, 0)

    def test_frozen_rows_after_one_step(self, b2):
        # Mutation at the source keeps the other frozen row and negates
        # its own; mutation at the sink mixes its own frozen row.
        src = b2.mutate(1)
        assert src.btilde[2:] == ((1, 0), (0, -1))
        snk = b2.mutate(0)
        assert snk.btilde[2:] == ((-1, 1), (0, 1))

    def test_involution_on_builtins(self):
        for name in BUILTIN_MATRICES:
            data = builtin_exchange_data(name)
            for k in range(data.n):
                back = data.mutate(k).mutate(k)
                assert back.btilde == data.btilde
                assert back.lam == data.lam
                assert back.diag == data.diag

    def test_symmetrizer_fixed_under_mutation(self, b3):
        seq = [0, 1, 2, 1, 0]
        cur = b3
        for k in seq:
            cur = cur.mutate(k)
            check_symmetrizer([row[:3] for row in cur.btilde[:3]], b3.diag)
            defect = compatibility_defect(cur.btilde, cur.lam, cur.diag)
            assert all(not any(row) for row in defect)

    def test_index_out_of_range(self, b2):
        with pytest.raises(IndexOutOfRange):
            b2.mutate(2)
        with pytest.raises(IndexOutOfRange):
            b2.mutate(-1)


class TestStarMatrices:
    def test_star_left_b2(self):
        assert star_left_matrix(BUILTIN_MATRICES["B2"]) == ((1, 0), (-2, 1))

    def test_star_left_uses_column_negatives(self):
        # Entry (i, j) is delta_ij + min(b_ij, 0).
        b = BUILTIN_MATRICES["G2"]
        assert star_left_matrix(b) == ((1, 0), (-3, 1))

    def test_framed_star_initial_framing_vanishes(self, b2):
        assert framed_star_matrix(b2.btilde) == ((1, 0), (-2, 1), (0, 0), (0, 0))

    def test_framed_star_keeps_nonpositive_frozen_rows(self, b2):
        # After mutating at the source the mutated frozen row is -e_k
        # and survives; the untouched unit row is zeroed.
        src = b2.mutate(1)
        assert framed_star_matrix(src.btilde) == (
            (1, -1),
            (0, 1),
            (0, 0),
            (0, -1),
        )
        # After mutating at the sink the mutated frozen row is mixed,
        # so the whole frozen block is zeroed.
        snk = b2.mutate(0)
        assert framed_star_matrix(snk.btilde)[2:] == ((0, 0), (0, 0))


class TestBuildAndBuiltins:
    def test_principal_framing_shape(self):
        bt = principal_framing(BUILTIN_MATRICES["A3"])
        assert len(bt) == 6
        assert bt[3:] == mx.identity(3)

    def test_builtin_names(self):
        assert builtin_exchange_data("b2").n == 2
        with pytest.raises(KeyError):
            builtin_exchange_data("E8")

    def test_cyclic_rejected(self):
        with pytest.raises(NotAcyclic):
            build_exchange_data(CYCLIC3)

    def test_explicit_diag_validated(self):
        build_exchange_data(BUILTIN_MATRICES["B2"], diag=(2, 1))
        with pytest.raises(BadSymmetrizer):
            build_exchange_data(BUILTIN_MATRICES["B2"], diag=(1, 2))

    @pytest.mark.parametrize(
        "b,finite",
        [
            (BUILTIN_MATRICES["A2"], True),
            (BUILTIN_MATRICES["B2"], True),
            (BUILTIN_MATRICES["C2"], True),
            (BUILTIN_MATRICES["G2"], True),
            (BUILTIN_MATRICES["A3"], True),
            (BUILTIN_MATRICES["B3"], True),
            (((0, 1, 0, 0), (-1, 0, 1, 0), (0, -2, 0, 1), (0, 0, -1, 0)), True),
            (((0, 0), (0, 0)), True),
            (BUILTIN_MATRICES["WILD3"], False),
            (((0, 2), (-2, 0)), False),
            (((0, 1), (-4, 0)), False),
            (((0, 1, 0), (-1, 0, 1), (0, -3, 0)), False),
        ],
    )
    def test_finite_type(self, b, finite):
        assert build_exchange_data(b).is_finite_type() is finite


# Acyclic skew-symmetrizable matrices: pick symmetrizer entries d_i in
# {1, 2, 3} and a strength t in {0, 1, 2} for each i < j, then set
# b_ij = -t * lcm / d_i and b_ji = t * lcm / d_j so that all arrows
# point from lower to higher index.
SYMMETRIZER_ENTRIES = (1, 2, 3)


def _acyclic_matrix(diag, strengths):
    n = len(diag)
    b = [[0] * n for _ in range(n)]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for (i, j), t in zip(pairs, strengths):
        l = lcm(diag[i], diag[j])
        b[i][j] = -t * l // diag[i]
        b[j][i] = t * l // diag[j]
    return mx.freeze(b)


@st.composite
def acyclic_skew_symmetrizable(draw):
    diag = [draw(st.sampled_from(SYMMETRIZER_ENTRIES)) for _ in range(3)]
    strengths = [draw(st.integers(min_value=0, max_value=2)) for _ in range(3)]
    return _acyclic_matrix(diag, strengths)


def all_acyclic_skew_symmetrizable():
    """Every distinct matrix that ``acyclic_skew_symmetrizable`` can
    draw, in a fixed order."""
    return list(
        dict.fromkeys(
            _acyclic_matrix(diag, strengths)
            for diag in product(SYMMETRIZER_ENTRIES, repeat=3)
            for strengths in product(range(3), repeat=3)
        )
    )


class TestRandomMatrices:
    @settings(max_examples=30, deadline=None)
    @given(acyclic_skew_symmetrizable(), st.integers(min_value=0, max_value=2))
    def test_mutation_preserves_structure(self, b, k):
        data = build_exchange_data(b)
        m = data.mutate(k)
        # Involution.
        back = m.mutate(k)
        assert back.btilde == data.btilde and back.lam == data.lam
        # The initial symmetrizer still works after mutation.
        check_symmetrizer([row[: data.n] for row in m.btilde[: data.n]], data.diag)
        # The mutated pair stays compatible.
        defect = compatibility_defect(m.btilde, m.lam, m.diag)
        assert all(not any(row) for row in defect)


F4 = json.loads(
    (Path(__file__).resolve().parents[1] / "bench" / "f4.json").read_text()
)["B"]


def dense_lam_update(lam, btilde, k):
    """E^T * lam * E by two dense products, E being the identity but for
    column k: -1 at row k and max(-b_ik, 0) at each other row i."""
    size = len(lam)
    e = [[1 if i == j else 0 for j in range(size)] for i in range(size)]
    for i in range(size):
        e[i][k] = -1 if i == k else max(-btilde[i][k], 0)
    e = mx.freeze(e)
    return mx.matmul(mx.matmul(mx.transpose(e), lam), e)


@st.composite
def mutation_walks(draw):
    """Exchange data (a random acyclic matrix, WILD3 or F4, optionally
    with a random skew base form) and a mutation sequence."""
    b = draw(
        st.one_of(
            acyclic_skew_symmetrizable(),
            st.just(BUILTIN_MATRICES["WILD3"]),
            st.just(mx.freeze(F4)),
        )
    )
    n = len(b)
    lambda0 = None
    if draw(st.booleans()):
        upper = {
            (i, j): draw(st.integers(min_value=-2, max_value=2))
            for i in range(n)
            for j in range(i + 1, n)
        }
        lambda0 = tuple(
            tuple(
                upper.get((i, j), 0) - upper.get((j, i), 0) for j in range(n)
            )
            for i in range(n)
        )
    data = build_exchange_data(b, lambda0=lambda0)
    seq = draw(st.lists(st.integers(min_value=0, max_value=n - 1), max_size=8))
    return data, seq


class TestLambdaUpdate:
    @settings(max_examples=40, deadline=None)
    @given(mutation_walks())
    def test_matches_the_dense_product(self, walk):
        data, seq = walk
        for k in seq:
            m = data.mutate(k)
            assert m.lam == dense_lam_update(data.lam, data.btilde, k)
            assert mx.is_skew_symmetric(m.lam)
            assert all(
                not any(row)
                for row in compatibility_defect(m.btilde, m.lam, m.diag)
            )
            assert m.mutate(k).lam == data.lam
            data = m
