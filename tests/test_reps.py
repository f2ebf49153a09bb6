"""Valued quiver representations over finite fields.

The structural routines (hom dimensions, subrepresentation counts) are
checked against brute-force enumerations that share nothing with the
library implementation: homs by trying every tuple of vertex-field
matrices, subrepresentation counts by trying every tuple of subspaces.
"""

import random
from functools import lru_cache, reduce
from itertools import product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from valq import reps
from valq.exchange import (
    BUILTIN_MATRICES,
    build_exchange_data,
    builtin_exchange_data,
    minimal_symmetrizer,
    sinks_and_sources,
)
from valq.finfield import (
    build_tower,
    enumerate_subspaces,
    f_matvec,
    gaussian_binomial,
)
from valq.reps import (
    DrawsExhausted,
    HasSimpleSummand,
    NoRigidFound,
    NotSinkOrSource,
    ValuedQuiver,
    ValuedRep,
    build_rigid_rep,
    count_all_subreps,
    dual_rep,
    euler_form,
    ext_dim,
    hom_dim,
    is_rigid,
    random_rep,
    reflect,
    reflect_sink,
    simple_reflection,
)
from valq.reps import _Walk, _plan
from valq.verify import VerifyContext, run_all, run_check

from conftest import f_in_span


# One arrow of valuation 2 from F_{p^4} to F_{p^2}: its map is linear
# over F_{p^2} only, so everything reads subfield coordinates.
VAL2_B, VAL2_D = ((0, 2), (-1, 0)), (2, 4)

# The rank-4 matrix of the F4 benchmark workload: 3 -> 2 -> 1 -> 0 with
# degrees (2, 2, 1, 1), so its arrows have valuations 2, 1 and 1.
F4_B = ((0, 1, 0, 0), (-1, 0, 1, 0), (0, -2, 0, 1), (0, 0, -1, 0))

# D4 with arrows 1 -> 0, 2 -> 0 and 3 -> 0: the one branching quiver
# here, with a vertex fed by three others (and, reflected at 0, one
# feeding three).
D4_B = ((0, 1, 1, 1), (-1, 0, 0, 0), (-1, 0, 0, 0), (-1, 0, 0, 0))
LOCAL_MATRICES = {"F4": F4_B, "D4": D4_B}


def count_subreps(rep, e):
    """Number of subrepresentations with dimension vector e; 0 outside
    the box below the rep's dimension vector."""
    return count_all_subreps(rep).get(tuple(e), 0)


def walk(rep, backward=False):
    """The table of one walk: of V, or backward, of D(V) with each e read
    as v - e."""
    if not backward:
        return _Walk(rep, _plan(rep)[1]).table()
    v = rep.dims
    table = walk(dual_rep(rep))
    return {tuple(a - x for a, x in zip(v, e)): c for e, c in table.items()}


def quiver(name, p):
    b = LOCAL_MATRICES.get(name) or BUILTIN_MATRICES[name]
    return ValuedQuiver.from_matrix(b, minimal_symmetrizer(b), p)


def simple_vector(n, k):
    return tuple(1 if i == k else 0 for i in range(n))


def positive_roots(b):
    """The positive vectors reached from the simples by simple
    reflections: the dimension vectors of the indecomposables in finite
    type."""
    simples = [simple_vector(len(b), k) for k in range(len(b))]
    roots, todo = set(simples), list(simples)
    while todo:
        v = todo.pop()
        for k in range(len(b)):
            w = simple_reflection(b, k, v)
            if min(w) >= 0 and w not in roots:
                roots.add(w)
                todo.append(w)
    return sorted(roots)


def subfield_basis(tower, d, g):
    """Elements of the degree-d field forming a basis over its degree-g
    subfield, in the coordinates used by the representation layer."""
    e = d // g
    out = []
    for s in range(e):
        coords = tuple(1 if t == s else 0 for t in range(e))
        out.append(tower.from_subfield_coords(d, g, coords))
    return out


def scale_vec(field, c, vec):
    return [field.mul(c, x) for x in vec]


def all_matrices(field, nrows, ncols):
    for flat in product(range(field.q), repeat=nrows * ncols):
        yield [list(flat[r * ncols : (r + 1) * ncols]) for r in range(nrows)]


def brute_hom_count(repv, repw):
    """Count homomorphisms by enumerating every tuple of vertex maps."""
    q = repv.quiver
    spaces = [
        list(all_matrices(q.field(i), repw.dims[i], repv.dims[i]))
        for i in range(q.n)
    ]
    count = 0
    for maps in product(*spaces):
        ok = True
        for key in q.arrow_keys:
            i, j, _ = key
            g = q.valuation[(i, j)]
            mus = subfield_basis(q.tower, q.diag[i], g)
            for r in range(repv.dims[i]):
                for mu in mus:
                    x = [0] * repv.dims[i]
                    x[r] = mu
                    lhs = f_matvec(q.field(j), maps[j], repv.apply_arrow(key, x))
                    rhs = repw.apply_arrow(key, f_matvec(q.field(i), maps[i], x))
                    if lhs != rhs:
                        ok = False
                        break
                if not ok:
                    break
            if not ok:
                break
        if ok:
            count += 1
    return count


def brute_count_subreps(rep, e):
    """Count subrepresentations by enumerating every tuple of subspaces."""
    q = rep.quiver
    choices = [
        list(enumerate_subspaces(q.field(i), rep.dims[i], e[i]))
        for i in range(q.n)
    ]
    total = 0
    for combo in product(*choices):
        stable = True
        for key in q.arrow_keys:
            i, j, _ = key
            g = q.valuation[(i, j)]
            mus = subfield_basis(q.tower, q.diag[i], g)
            for row in combo[i]:
                for mu in mus:
                    img = rep.apply_arrow(key, scale_vec(q.field(i), mu, row))
                    if not f_in_span(q.field(j), combo[j], img):
                        stable = False
                        break
                if not stable:
                    break
            if not stable:
                break
        if stable:
            total += 1
    return total


class TestQuiverStructure:
    def test_arrow_keys_and_valuations(self):
        b2 = quiver("B2", 3)
        assert b2.arrow_keys == [(1, 0, 0)]
        assert b2.valuation == {(1, 0): 1}
        b3 = quiver("B3", 2)
        assert b3.arrow_keys == [(1, 0, 0), (2, 1, 0)]
        assert b3.valuation == {(1, 0): 2, (2, 1): 1}

    def test_multiple_arrow_copies(self):
        kron = ValuedQuiver.from_matrix(((0, 2), (-2, 0)), (1, 1), 2)
        assert kron.arrow_keys == [(1, 0, 0), (1, 0, 1)]

    def test_map_shape_in_subfield_units(self):
        b2 = quiver("B2", 3)
        # Arrow 1 -> 0 with valuation 1: the target space has local
        # degree 2, so one target coordinate splits into two.
        assert b2.map_shape((1, 0, 0), (1, 1)) == (2, 1)
        assert b2.map_shape((1, 0, 0), (3, 2)) == (6, 2)

    def test_sink_source(self):
        b2 = quiver("B2", 3)
        assert b2.is_sink(0) and not b2.is_source(0)
        assert b2.is_source(1) and not b2.is_sink(1)

    def test_opposite_swaps_sinks_and_sources(self):
        for name in ("B2", "G2", "B3", "F4", "D4"):
            for q in orientations(name, 2):
                op = q.opposite()
                assert (op.sinks, op.sources) == (q.sources, q.sinks)
                assert (op.sinks, op.sources) == sinks_and_sources(op.b)

    def test_reflected_negates_row_and_column(self):
        b2 = quiver("B2", 3)
        assert b2.reflected(0).b == ((0, -1), (2, 0))


class TestSimpleReflection:
    def test_values(self):
        b = BUILTIN_MATRICES["B2"]
        assert simple_reflection(b, 0, (1, 1)) == (0, 1)
        assert simple_reflection(b, 1, (1, 1)) == (1, 1)
        assert simple_reflection(b, 1, (0, 1)) == (0, -1)

    def test_involution(self):
        b = BUILTIN_MATRICES["B3"]
        for v in product(range(-1, 3), repeat=3):
            for k in range(3):
                assert simple_reflection(b, k, simple_reflection(b, k, v)) == v


class TestEulerForm:
    def test_on_simple_pairs(self):
        for name in ("B2", "G2", "A3", "B3"):
            b = BUILTIN_MATRICES[name]
            diag = minimal_symmetrizer(b)
            n = len(diag)
            for i in range(n):
                for j in range(n):
                    ei = tuple(1 if t == i else 0 for t in range(n))
                    ej = tuple(1 if t == j else 0 for t in range(n))
                    expected = (diag[i] if i == j else 0) + (
                        diag[i] * b[i][j] if b[i][j] < 0 else 0
                    )
                    assert euler_form(b, diag, ei, ej) == expected

    def test_bilinearity(self):
        b = BUILTIN_MATRICES["B3"]
        diag = minimal_symmetrizer(b)
        v, w, x = (1, 2, 0), (0, 1, 1), (2, 0, 1)
        vw = tuple(a + c for a, c in zip(v, w))
        assert euler_form(b, diag, vw, x) == euler_form(b, diag, v, x) + euler_form(
            b, diag, w, x
        )


class TestHomDim:
    def test_endomorphisms_of_simples(self):
        q = quiver("B2", 3)
        for k in range(2):
            s = ValuedRep.simple(q, k)
            assert hom_dim(s, s) == q.diag[k]
        assert hom_dim(ValuedRep.simple(q, 0), ValuedRep.simple(q, 1)) == 0

    @pytest.mark.parametrize("p", [2, 3])
    def test_brute_force_b2(self, p):
        q = quiver("B2", p)
        reps = [
            ValuedRep.simple(q, 0),
            ValuedRep.simple(q, 1),
            build_rigid_rep(q, (1, 1), rng_seed=1),
            ValuedRep.zero_maps(q, (1, 1)),
        ]
        for v in reps:
            for w in reps:
                assert brute_hom_count(v, w) == p ** hom_dim(v, w)

    def test_brute_force_taller_dims(self):
        q = quiver("B2", 2)
        v = build_rigid_rep(q, (1, 2), rng_seed=0)
        w = build_rigid_rep(q, (1, 1), rng_seed=0)
        assert brute_hom_count(v, w) == 2 ** hom_dim(v, w)
        assert brute_hom_count(w, v) == 2 ** hom_dim(w, v)
        assert brute_hom_count(v, v) == 2 ** hom_dim(v, v)

    def test_brute_force_g2(self):
        q = quiver("G2", 2)
        v = build_rigid_rep(q, (1, 1), rng_seed=0)
        s0 = ValuedRep.simple(q, 0)
        assert brute_hom_count(v, v) == 2 ** hom_dim(v, v)
        assert brute_hom_count(v, s0) == 2 ** hom_dim(v, s0)
        assert brute_hom_count(s0, v) == 2 ** hom_dim(s0, v)

    def test_brute_force_kronecker_double_arrow(self):
        kron = ValuedQuiver.from_matrix(((0, 2), (-2, 0)), (1, 1), 2)
        import random

        rng = random.Random(5)
        v = random_rep(kron, (1, 1), rng)
        w = random_rep(kron, (1, 1), rng)
        assert brute_hom_count(v, w) == 2 ** hom_dim(v, w)


    def test_brute_force_valuation_two(self):
        import random

        q = ValuedQuiver.from_matrix(VAL2_B, VAL2_D, 2)
        reps = [
            ValuedRep.simple(q, 0),
            ValuedRep.simple(q, 1),
            ValuedRep.zero_maps(q, (1, 1)),
            random_rep(q, (1, 1), random.Random(3)),
        ]
        for v in reps:
            for w in reps:
                assert brute_hom_count(v, w) == 2 ** hom_dim(v, w)


class TestRigidity:
    def test_rigid_reps_exist_for_b2_dimension_vectors(self):
        q = quiver("B2", 3)
        for dims in [(1, 0), (0, 1), (1, 1), (1, 2)]:
            rep = build_rigid_rep(q, dims, rng_seed=0)
            assert is_rigid(rep)
            assert ext_dim(rep, rep) == 0

    def test_zero_map_rep_is_not_rigid_in_the_middle(self):
        q = quiver("B2", 3)
        rep = ValuedRep.zero_maps(q, (1, 1))
        assert not is_rigid(rep)

    def test_no_rigid_for_impossible_dims(self):
        # Two parallel arrows force self-extensions at dimension (1, 1)
        # in either orientation of the double arrow.
        kron = ValuedQuiver.from_matrix(((0, 2), (-2, 0)), (1, 1), 2)
        with pytest.raises(NoRigidFound):
            build_rigid_rep(kron, (2, 2), rng_seed=0, attempts=40)

    @pytest.mark.parametrize("dims", [(1, 1), (2, 2)])
    def test_no_draws_without_a_positive_euler_form(self, monkeypatch, dims):
        # A rigid V of dimension v != 0 has dim End(V) = <v, v> >= 1; the
        # Kronecker pair has <v, v> = 0 at (n, n).
        import valq.reps

        def no_draws(*args):
            raise AssertionError("random_rep was called")

        monkeypatch.setattr(valq.reps, "random_rep", no_draws)
        kron = ValuedQuiver.from_matrix(((0, 2), (-2, 0)), (1, 1), 2)
        with pytest.raises(NoRigidFound, match="Euler form") as info:
            build_rigid_rep(kron, dims, rng_seed=0)
        assert not isinstance(info.value, DrawsExhausted)

    @pytest.mark.parametrize("name", sorted(BUILTIN_MATRICES))
    def test_zero_maps_are_rigid_exactly_at_the_euler_sum(self, name):
        # Hom of the zero representation is the sum of End(V_i), of
        # prime-field dimension sum d_i v_i^2.
        import random

        rng = random.Random(5)
        seen = set()
        for p in (2, 3):
            for q in orientations(name, p):
                for _ in range(6):
                    v = tuple(rng.randrange(3) for _ in range(q.n))
                    euler = euler_form(q.b, q.diag, v, v)
                    total = sum(d * x * x for d, x in zip(q.diag, v))
                    rigid = is_rigid(ValuedRep.zero_maps(q, v))
                    assert rigid == (euler == total)
                    seen.add(rigid)
        assert seen == {False, True}

    def test_spent_draws_are_a_budget(self):
        # Zero maps at (1, 1) are not rigid, and no draw happens.
        q = quiver("B2", 2)
        with pytest.raises(DrawsExhausted, match="after 0 draws"):
            build_rigid_rep(q, (1, 1), rng_seed=0, attempts=0)


class TestSubrepCounts:
    @pytest.mark.parametrize("p", [2, 3])
    def test_brute_force_rigid_b2(self, p):
        q = quiver("B2", p)
        rep = build_rigid_rep(q, (1, 2), rng_seed=0)
        table = count_all_subreps(rep)
        for e, cnt in table.items():
            assert cnt == brute_count_subreps(rep, e)

    def test_brute_force_rigid_g2(self):
        q = quiver("G2", 2)
        rep = build_rigid_rep(q, (1, 1), rng_seed=0)
        for e, cnt in count_all_subreps(rep).items():
            assert cnt == brute_count_subreps(rep, e)

    def test_brute_force_rigid_b3(self):
        q = quiver("B3", 2)
        rep = build_rigid_rep(q, (1, 1, 1), rng_seed=0)
        for e, cnt in count_all_subreps(rep).items():
            assert cnt == brute_count_subreps(rep, e)

    def test_zero_maps_count_is_a_product_of_grassmannians(self):
        q = quiver("B2", 3)
        rep = ValuedRep.zero_maps(q, (1, 2))
        for e, cnt in count_all_subreps(rep).items():
            expected = gaussian_binomial(9, 1, e[0]) * gaussian_binomial(3, 2, e[1])
            assert cnt == expected

    def test_middle_count_grows_with_the_field(self):
        # The submodule count at the mixed dimension vector is p + 1.
        for p in (2, 3, 5):
            q = quiver("B2", p)
            rep = build_rigid_rep(q, (1, 2), rng_seed=0)
            assert count_subreps(rep, (1, 1)) == p + 1

    def test_out_of_range_counts_vanish(self):
        q = quiver("B2", 2)
        rep = ValuedRep.zero_maps(q, (1, 1))
        assert count_subreps(rep, (2, 0)) == 0
        assert count_subreps(rep, (0, 0)) == 1
        assert count_subreps(rep, rep.dims) == 1


class TestReflectionFunctors:
    def test_dims_transform_by_simple_reflection(self):
        q = quiver("B2", 3)
        rep = build_rigid_rep(q, (1, 1), rng_seed=0)
        left = reflect_sink(rep, 0)
        assert left.dims == simple_reflection(q.b, 0, rep.dims)
        assert left.quiver.b == q.reflected(0).b

    def test_source_then_sink_round_trip(self):
        q = quiver("B2", 3)
        rep = build_rigid_rep(q, (1, 2), rng_seed=0)
        rt = reflect(reflect_sink(rep, 0), 0)
        assert rt.dims == rep.dims
        assert rt.quiver.b == q.b
        assert is_rigid(rt)
        # Same subrepresentation counts and nonzero maps both ways: for
        # rigid representations of equal dimension this pins the class.
        assert count_all_subreps(rt) == count_all_subreps(rep)
        assert hom_dim(rep, rt) >= 1 and hom_dim(rt, rep) >= 1

    def test_sink_then_source_round_trip(self):
        # Every positive root but the simple at each source k, reflected
        # there (the sink reflection of the dual) and back at the sink.
        cases = [("A3", 6), ("B3", 9), ("C2", 4), ("G2", 6), ("VAL2", 4),
                 ("F4", 24)]
        for (name, nroots), p in product(cases, (2, 3)):
            if name == "VAL2":
                q = ValuedQuiver.from_matrix(VAL2_B, VAL2_D, p)
            else:
                q = quiver(name, p)
            roots = positive_roots(q.b)
            assert len(roots) == nroots and q.sources
            for k, v in product(q.sources, roots):
                if v == simple_vector(q.n, k):
                    continue
                rep = build_rigid_rep(q, v, rng_seed=0)
                out = reflect(rep, k)
                assert out.quiver.b == q.reflected(k).b
                assert out.dims == simple_reflection(q.b, k, v)
                assert is_rigid(out)
                rt = reflect_sink(out, k)
                assert rt.quiver.b == q.b
                assert count_all_subreps(rt) == count_all_subreps(rep)
                assert hom_dim(rep, rt) >= 1 and hom_dim(rt, rep) >= 1

    @pytest.mark.parametrize("k", [0, 1])
    def test_valuation_two(self, k):
        q = ValuedQuiver.from_matrix(VAL2_B, VAL2_D, 2)
        rep = build_rigid_rep(q, (1, 1), rng_seed=0)
        out = reflect(rep, k)
        assert out.dims == simple_reflection(q.b, k, rep.dims)
        assert out.quiver.b == q.reflected(k).b
        assert is_rigid(out)

    def test_dispatcher_and_guards(self):
        q = quiver("A3", 2)
        rep = build_rigid_rep(q, (1, 1, 1), rng_seed=0)
        with pytest.raises(NotSinkOrSource):
            reflect(rep, 1)
        b2 = quiver("B2", 2)
        # The simple at the sink 0, and at the source 1 through the dual.
        for k in (0, 1):
            with pytest.raises(HasSimpleSummand) as info:
                reflect(ValuedRep.simple(b2, k), k)
            assert str(info.value) == (
                "the simple at the reflected vertex splits off"
            )
        with pytest.raises(HasSimpleSummand):
            # Zero maps leave a simple summand at the sink.
            reflect_sink(ValuedRep.zero_maps(b2, (1, 1)), 0)
        with pytest.raises(NotSinkOrSource):
            reflect_sink(ValuedRep.simple(b2, 1), 1)


class TestReflectionPreservesCounts:
    def test_counts_transport_along_the_reflection(self):
        # Reflecting a rigid module at a sink permutes its submodule
        # lattice dimensions by the simple reflection of the quotient
        # dimension vector; spot-check totals instead: the reflected
        # module is rigid of the reflected dimension.
        q = quiver("B3", 2)
        rep = build_rigid_rep(q, (0, 1, 1), rng_seed=0)
        left = reflect_sink(rep, 0)
        assert left.dims == simple_reflection(q.b, 0, rep.dims)
        assert is_rigid(left)


class TestWalkDirections:
    # (type, prime, dimension vector, 0-based reflection vertex): rigid
    # representations reflected at the sink 0 of G2 and B3 and at their
    # sources 1 and 2, over F_2 and F_3.  The planner walks all but the
    # fourth and the sixth backward; for those both walks price the same,
    # 2 and 12, and it keeps the forward one.
    REFLECTED_CASES = [
        ("G2", 3, (1, 3), 0),
        ("G2", 2, (1, 3), 1),
        ("G2", 3, (2, 3), 1),
        ("B3", 2, (1, 1, 1), 0),
        ("B3", 3, (0, 1, 2), 0),
        ("B3", 3, (1, 2, 2), 2),
        ("B3", 2, (1, 1, 2), 0),
    ]
    BACKWARD_CASES = (
        REFLECTED_CASES[:3] + REFLECTED_CASES[4:5] + REFLECTED_CASES[6:]
    )

    @pytest.mark.parametrize("name,p,v,k", REFLECTED_CASES)
    def test_reflected_rigid_reps_against_brute_force(self, name, p, v, k):
        rep = reflect(build_rigid_rep(quiver(name, p), v, rng_seed=0), k)
        table = walk(rep, True)
        assert table == walk(rep, False)
        assert table == count_all_subreps(rep)
        for e, cnt in table.items():
            assert cnt == brute_count_subreps(rep, e)

    @staticmethod
    def walked(monkeypatch, rep):
        """The matrices of the quivers whose walks ``count_all_subreps``
        tables for ``rep``, one per walk."""
        import valq.reps

        quivers = []
        table = valq.reps._Walk.table

        def recorded(walk):
            quivers.append(walk.rep.quiver.b)
            return table(walk)

        with monkeypatch.context() as patch:
            patch.setattr(valq.reps._Walk, "table", recorded)
            count_all_subreps(rep)
        return quivers

    @pytest.mark.parametrize("name,p,v,k", BACKWARD_CASES)
    def test_planner_walks_the_reflected_reps_backward(
        self, monkeypatch, name, p, v, k
    ):
        rep = reflect(build_rigid_rep(quiver(name, p), v, rng_seed=0), k)
        dual = dual_rep(rep)
        assert _plan(dual)[0] < _plan(rep)[0]
        assert self.walked(monkeypatch, rep) == [dual.quiver.b]
        assert dual.quiver.b != rep.quiver.b

    def test_planner_keeps_the_reflected_b3_source_forward(self, monkeypatch):
        rep = build_rigid_rep(quiver("B3", 3), (1, 2, 2), rng_seed=0)
        rep = reflect(rep, 2)
        assert _plan(rep) == (12, None)
        assert _plan(dual_rep(rep)) == (12, None)
        assert self.walked(monkeypatch, rep) == [rep.quiver.b]

    def test_planner_keeps_the_original_g2_orientation_forward(
        self, monkeypatch
    ):
        # Forward, the F_3 vertex of dimension 3 closes over its arrow of
        # rank 2 into F_27^2, enumerating the 2 subspaces of the kernel:
        # price 2.  Backward, the F_27 vertex closes over a kernel of
        # dimension 3 over F_3, with 28 subspaces.
        rep = build_rigid_rep(quiver("G2", 3), (2, 3), rng_seed=0)
        (forward, closing), (backward, _) = _plan(rep), _plan(dual_rep(rep))
        assert closing[:3] == (1, 0, 1)
        assert (forward, backward) == (2, 28)
        assert self.walked(monkeypatch, rep) == [rep.quiver.b]

    @pytest.mark.parametrize(
        "b", [BUILTIN_MATRICES["B2"], BUILTIN_MATRICES["G2"],
              BUILTIN_MATRICES["B3"], ((0, 2), (-2, 0))],
        ids=["B2", "G2", "B3", "Kronecker"],
    )
    def test_both_walks_agree_on_random_reps(self, monkeypatch, b):
        # and a count walks one of them: of D(V), over the opposite
        # quiver, exactly when its price is lower, and of V otherwise
        import random

        rng = random.Random(11)
        for p in (2, 3):
            q = ValuedQuiver.from_matrix(b, minimal_symmetrizer(b), p)
            for _ in range(6):
                dims = tuple(rng.randrange(3) for _ in range(q.n))
                rep = random_rep(q, dims, rng)
                assert walk(rep, False) == walk(rep, True)
                dual = dual_rep(rep)
                cheaper = dual if _plan(dual)[0] < _plan(rep)[0] else rep
                assert self.walked(monkeypatch, rep) == [cheaper.quiver.b]

    def test_table_covers_the_dimension_box(self):
        rep = build_rigid_rep(quiver("B3", 2), (1, 2, 2), rng_seed=0)
        table = count_all_subreps(rep)
        assert sorted(table) == list(product(range(2), range(3), range(3)))
        assert count_subreps(rep, (0, 3, 0)) == 0
        assert count_subreps(rep, (-1, 0, 0)) == 0


def sparse_rep(quiver, dims, rng):
    """A random representation with about half of its map entries zero."""
    rep = random_rep(quiver, dims, rng)
    maps = {
        key: [[x if rng.random() < 0.5 else 0 for x in row] for row in mat]
        for key, mat in rep.maps.items()
    }
    return ValuedRep(quiver, dims, maps)


def orientations(name, p):
    """The builtin quiver and its reflections at every sink and source."""
    q = quiver(name, p)
    return [q] + [
        q.reflected(k) for k in range(q.n) if q.is_sink(k) or q.is_source(k)
    ]


class TestClosedForm:
    # (type, dimension vectors): the brute force tries every tuple of
    # subspaces, so the boxes stay small.
    CASES = [
        ("F4", [(1, 1, 1, 1), (1, 2, 1, 1), (0, 1, 2, 1), (1, 1, 2, 2)]),
        ("A3", [(1, 2, 1), (2, 1, 2), (1, 1, 0), (2, 2, 1)]),
        ("B3", [(1, 1, 1), (1, 2, 1), (0, 1, 2), (2, 1, 1)]),
        ("D4", [(1, 1, 1, 1), (2, 1, 1, 1), (1, 0, 1, 1)]),
    ]

    @pytest.mark.parametrize("p", [2, 3])
    @pytest.mark.parametrize("name,vectors", CASES, ids=[c[0] for c in CASES])
    def test_tables_against_brute_force_and_the_other_walk(
        self, name, vectors, p
    ):
        import random

        rng = random.Random(7 * p)
        for q in orientations(name, p):
            for dims in vectors:
                for build in (random_rep, sparse_rep):
                    rep = build(q, dims, rng)
                    table = walk(rep, True)
                    assert table == walk(rep, False)
                    for e, cnt in table.items():
                        assert cnt == brute_count_subreps(rep, e)

    def test_which_walks_close(self):
        # The cases above close both ways: F4 forward at 1 over the arrow
        # 1 -> 0 of valuation 2, backward (the walk of the opposite
        # quiver) at 2 over 3 -> 2 of valuation 1.  In the reflected
        # orientations the other candidate's arrow joins degrees 1 and 2,
        # into the sink 1 (at 0) or 2 (at 3) that a second arrow also
        # enters, so it never closes.
        import random

        rng = random.Random(5)

        def closing(q):
            vertices = set()
            for dims in product(range(3), repeat=q.n):
                rep = random_rep(q, dims, rng)
                for backward in (False, True):
                    plan = _plan(dual_rep(rep) if backward else rep)[1]
                    vertices.add((backward, plan and plan[0]))
            return sorted(vertices, key=str)

        assert closing(quiver("A3", 2)) == [(False, 1), (True, 1)]
        f4, ref0, ref3 = orientations("F4", 2)
        assert f4.valuation[(1, 0)] == 2 and f4.valuation[(3, 2)] == 1
        assert closing(f4) == [(False, 1), (True, 2)]
        assert closing(ref0) == [(False, None), (True, 2)]
        assert closing(ref3) == [(False, 1), (True, None)]
        assert ref0.diag[2] != ref0.diag[1] and ref3.diag[1] != ref3.diag[2]

    def test_kronecker_never_closes(self):
        # Two arrow copies leave the last enumerated vertex.
        import random

        rng = random.Random(3)
        q = ValuedQuiver.from_matrix(((0, 2), (-2, 0)), (1, 1), 2)
        for oriented in (q, q.reflected(0), q.reflected(1)):
            for dims in product(range(3), repeat=2):
                rep = random_rep(oriented, dims, rng)
                assert _plan(rep)[1] is None
                assert _plan(dual_rep(rep))[1] is None

    def test_g2_closes_by_the_rank_of_its_arrow(self):
        # The F_2 vertex of dimension 3 has 16 subspaces.  A generic
        # arrow into F_8^2 has rank 2 over F_8, a kernel of dimension 1
        # and 2 subspaces of it to enumerate, so the vertex closes; the
        # zero arrow leaves the whole F_8^3, with 146 subspaces.
        import random

        q = quiver("G2", 2)
        assert q.diag == (3, 1) and q.sinks == (0,)
        rep = random_rep(q, (2, 3), random.Random(1))
        price, (i, k, kernel_dim, _) = _plan(rep)
        assert (i, k, kernel_dim, price) == (1, 0, 1, 2)
        assert _plan(ValuedRep.zero_maps(q, (2, 3))) == (16, None)
    @pytest.mark.parametrize("backward", [False, True])
    def test_no_subspaces_enumerated_at_the_closing_vertex(
        self, monkeypatch, backward
    ):
        # A3 walks 2, 1 forward and 0, 1 backward, closing at 1 either
        # way, so only the first vertex (of dimension 1) enumerates: one
        # call per subspace dimension 0 and 1.  Both directions enumerate
        # through enumerate_subspaces_containing, the backward one over
        # the dual representation.
        import random

        import valq.reps

        calls = []
        original = valq.reps.enumerate_subspaces_containing

        def counted(field, n, *args, **kwargs):
            calls.append(n)
            return original(field, n, *args, **kwargs)

        monkeypatch.setattr(
            valq.reps, "enumerate_subspaces_containing", counted
        )
        rep = random_rep(quiver("A3", 3), (1, 2, 1), random.Random(2))
        table = walk(rep, backward)
        assert calls == [1, 1]
        for e, cnt in table.items():
            assert cnt == brute_count_subreps(rep, e)

    def test_f4_over_f4_matches_the_enumerating_walk(self, monkeypatch):
        import valq.reps

        # F_4 as the F_2 species with doubled degrees
        diag = minimal_symmetrizer(F4_B)
        q = ValuedQuiver.from_matrix(F4_B, [2 * d for d in diag], 2)
        rep = build_rigid_rep(q, (1, 2, 4, 2), rng_seed=0)
        backward = _plan(dual_rep(rep))[0] < _plan(rep)[0]
        assert _plan(dual_rep(rep) if backward else rep)[1] is not None
        table = walk(rep, backward)
        monkeypatch.setattr(valq.reps, "_closing_vertex", lambda *args: None)
        assert walk(rep, backward) == table


def mixed_quiver(name, p):
    """A builtin quiver, VAL2 (one arrow of valuation 2 from F_{p^4} to
    F_{p^2}), or G2x2, the species of G2 with doubled degrees: over
    F_2 it is G2 over F_4."""
    if name == "VAL2":
        return ValuedQuiver.from_matrix(VAL2_B, VAL2_D, p)
    if name == "G2x2":
        b = BUILTIN_MATRICES["G2"]
        diag = [2 * d for d in minimal_symmetrizer(b)]
        return ValuedQuiver.from_matrix(b, diag, p)
    return quiver(name, p)


def subspace_total(q, n):
    return sum(gaussian_binomial(q, n, k) for k in range(n + 1))


def tuples(q, dims):
    """The number of tuples of subspaces that the brute force tries."""
    total = 1
    for i, v in enumerate(dims):
        total *= subspace_total(q.field(i).q, v)
    return total


class TestMixedClose:
    """The close of a last enumerated vertex whose one arrow joins fields
    of different degrees, against brute force and against the walk with
    no close, in every orientation and both directions.  Sparse maps are
    rank-deficient, so their kernels have dimension above 1.  B3 closes
    its F_2-vertex over the arrow into F_4 below a vertex it receives
    from, so its closes start from a nonzero forced span."""

    CASES = [
        ("G2", 2, [(1, 1), (1, 2), (2, 1), (2, 2), (1, 3), (3, 2), (2, 3)]),
        ("G2", 3, [(1, 1), (1, 2), (2, 1), (1, 3), (3, 1), (2, 3)]),
        ("B2", 2, [(1, 1), (1, 2), (2, 1), (2, 2), (3, 2), (2, 3)]),
        ("B2", 3, [(1, 1), (1, 2), (2, 1), (2, 2), (3, 2), (2, 3)]),
        ("C2", 2, [(1, 1), (1, 2), (2, 1), (2, 2), (3, 2), (2, 3)]),
        ("C2", 3, [(1, 1), (1, 2), (2, 1), (2, 2), (3, 2), (2, 3)]),
        ("VAL2", 2, [(1, 1), (1, 2), (2, 1), (2, 2), (3, 2), (2, 3)]),
        ("VAL2", 3, [(1, 1), (1, 2), (2, 1), (2, 2)]),
        ("G2x2", 2, [(1, 1), (1, 2), (2, 1), (2, 2), (1, 3)]),
        ("B3", 2, [(1, 1, 1), (1, 2, 1), (2, 1, 1), (1, 1, 2), (2, 2, 1),
                   (1, 2, 2), (0, 1, 2), (2, 2, 2)]),
        ("B3", 3, [(1, 1, 1), (1, 2, 1), (2, 1, 1), (1, 1, 2), (1, 2, 2)]),
    ]

    @pytest.mark.parametrize(
        "name,p,vectors", CASES, ids=["%s-%d" % c[:2] for c in CASES]
    )
    def test_tables_against_brute_force_and_the_enumerating_walk(
        self, monkeypatch, name, p, vectors
    ):
        import random

        import valq.reps

        closes = []
        mixed_close = valq.reps._Walk._mixed_close

        def recorded(walk, i, k, forced):
            closes.append(len(forced))
            return mixed_close(walk, i, k, forced)

        monkeypatch.setattr(valq.reps._Walk, "_mixed_close", recorded)
        closing_vertex = valq.reps._closing_vertex
        rng = random.Random(p)
        q0 = mixed_quiver(name, p)
        for q in [q0] + [q0.reflected(k) for k in q0.sinks + q0.sources]:
            for dims in vectors:
                for build in (random_rep, sparse_rep):
                    rep = build(q, dims, rng)
                    for backward in (False, True):
                        table = walk(rep, backward)
                        monkeypatch.setattr(
                            valq.reps, "_closing_vertex", lambda *args: None
                        )
                        assert walk(rep, backward) == table
                        monkeypatch.setattr(
                            valq.reps, "_closing_vertex", closing_vertex
                        )
                        if tuples(q, dims) <= 400:
                            for e, cnt in table.items():
                                assert cnt == brute_count_subreps(rep, e)
        assert closes
        if name == "B3":
            assert any(closes)

    def test_g2_at_17_enumerates_a_handful_of_subspaces(self, monkeypatch):
        # The rigid G2 representation of dimension (2, 3) over F_17 and
        # its reflections at 0 and 1.  Without the close, the walks of
        # (2, 3) enumerate all 616 subspaces of F_17^3.
        import valq.reps

        yielded = []
        original = valq.reps.enumerate_subspaces_containing

        def counted(*args, **kwargs):
            for w in original(*args, **kwargs):
                yielded.append(len(w))
                yield w

        monkeypatch.setattr(
            valq.reps, "enumerate_subspaces_containing", counted
        )
        rep = build_rigid_rep(quiver("G2", 17), (2, 3), rng_seed=0)
        reps = [rep, reflect(rep, 0), reflect(rep, 1)]

        def walk_all():
            tables, counts = [], []
            for r in reps:
                yielded.clear()
                tables.append(count_all_subreps(r))
                counts.append(len(yielded))
            return tables, counts

        tables, counts = walk_all()
        assert max(counts) <= 2
        monkeypatch.setattr(valq.reps, "_closing_vertex", lambda *args: None)
        enumerated, counts = walk_all()
        assert enumerated == tables
        assert [r.dims for r in reps] == [(2, 3), (1, 3), (2, 3)]
        assert counts[0] == counts[2] == 616

    @pytest.mark.parametrize("q", [2, 3, 4])
    def test_the_inversion_gives_q_vandermonde(self, q):
        # Counting by the meet with a fixed m-dimensional subspace of an
        # n-space, the inversion of the sums over its subspaces gives
        # back q**((m - j)(a - j)) [m, j] [n - m, a - j].
        from valq.finfield import meet_counts

        for n in range(5):
            for m in range(n + 1):
                expected = {
                    (a, j): q ** ((m - j) * (a - j))
                    * gaussian_binomial(q, m, j)
                    * gaussian_binomial(q, n - m, a - j)
                    for a in range(n + 1)
                    for j in range(a + 1)
                }
                got = {(a, j): c for a, j, c in meet_counts(q, n, m)}
                assert got == {k: c for k, c in expected.items() if c}


def f4_orientations(p):
    """The 8 orientations of the F4 benchmark matrix, the signs of b_ij
    and b_ji flipped on each subset of its three edges, each followed by
    its reflections at its sinks and sources."""
    diag = minimal_symmetrizer(F4_B)
    out = []
    for signs in product((1, -1), repeat=3):
        b = [list(row) for row in F4_B]
        for i, s in enumerate(signs):
            b[i][i + 1] *= s
            b[i + 1][i] *= s
        q = ValuedQuiver.from_matrix(b, diag, p)
        out += [q] + [q.reflected(k) for k in q.sinks + q.sources]
    return out


@lru_cache(maxsize=None)
def split_quivers(p):
    """The quivers whose walks split their last enumerated vertex: every
    orientation of F4 and its reflections, B3 and its reflections, and
    the Kronecker pair, whose double arrow never splits."""
    kronecker = ValuedQuiver.from_matrix(((0, 2), (-2, 0)), (1, 1), p)
    return f4_orientations(p) + orientations("B3", p) + [kronecker]


class TestSplit:
    """At the last vertex P that a walk enumerates, only the subspaces
    that meet a preimage outside the forced span are sent; the others
    share the forced span's class.  Checked against the brute force,
    against the walk that enumerates P whole, and V against D(V), on the
    quivers of ``split_quivers``."""

    @staticmethod
    def check(rep):
        table = count_all_subreps(rep)
        whole = _Walk(rep, _plan(rep)[1])
        whole.plan = None
        assert walk(rep) == walk(rep, True) == whole.table() == table
        for e, cnt in table.items():
            assert cnt == brute_count_subreps(rep, e)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_counts_against_brute_force(self, data):
        p = data.draw(st.sampled_from((2, 3)), label="p")
        quivers = split_quivers(p)
        q = quivers[data.draw(st.integers(0, len(quivers) - 1), label="quiver")]
        dims = tuple(data.draw(st.integers(0, 3)) for _ in range(q.n))
        assume(tuples(q, dims) <= 3000)
        rng = random.Random(data.draw(st.integers(0, 2**32), label="seed"))
        build = data.draw(st.sampled_from((random_rep, sparse_rep)))
        self.check(build(q, dims, rng))

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_counts_against_the_whole_enumeration(self, data):
        # Boxes too large for the brute force, where P has a nonzero
        # forced span more often: each walk, of V and of D(V), against
        # the same walk enumerating every subspace at P.
        p = data.draw(st.sampled_from((2, 3)), label="p")
        quivers = split_quivers(p)
        q = quivers[data.draw(st.integers(0, len(quivers) - 1), label="quiver")]
        dims = tuple(data.draw(st.integers(1, 4)) for _ in range(q.n))
        assume(tuples(q, dims) <= 10**5)
        rng = random.Random(data.draw(st.integers(0, 2**32), label="seed"))
        build = data.draw(st.sampled_from((random_rep, sparse_rep)))
        rep = build(q, dims, rng)
        for x in (rep, dual_rep(rep)):
            split = _Walk(x, _plan(x)[1])
            whole = _Walk(x, _plan(x)[1])
            whole.plan = None
            assert split.table() == whole.table()

    # (shape, exchange matrix, dimension vector): over F_2, the
    # representation that random_rep draws from random.Random(0) meets
    # the shape at P in the walk of V or of D(V).  Every subspace above
    # the forced span is special only when the preimages cover every
    # line, which needs several arrows out of P: here four, from the
    # center of a star to the sinks, whose kernels are lines.
    SHAPES = [
        ("forced span", ((0, 1, 0, 0), (-1, 0, 1, 0), (0, -2, 0, -1), (0, 0, 1, 0)),
         (1, 3, 3, 0)),
        ("all special", ((0, -1, -1, -1, -1),) + ((1, 0, 0, 0, 0),) * 4,
         (2, 1, 1, 2, 1)),
        ("dual preimage", ((0, -1, 0, 0), (1, 0, 1, 0), (0, -2, 0, -1), (0, 0, 1, 0)),
         (2, 2, 1, 0)),
        ("two sinks", ((0, -1, 0, 0), (1, 0, 1, 0), (0, -2, 0, -1), (0, 0, 1, 0)),
         (1, 2, 2, 0)),
        ("feeds K", ((0, -1, 0, 0), (1, 0, -1, 0), (0, 2, 0, 1), (0, 0, -1, 0)),
         (0, 2, 2, 0)),
    ]

    @pytest.mark.parametrize("shape,b,dims", SHAPES, ids=[c[0] for c in SHAPES])
    def test_each_shape_splits(self, monkeypatch, shape, b, dims):
        # a nonzero forced span at P, two sinks fed by P, P feeding the
        # closing sink K, every subspace above the forced span special,
        # and a preimage read from its annihilator, a line
        shapes = set()
        real_split = _Walk._split

        def split(walk, i):
            out = real_split(walk, i)
            if out is not None:
                outs = {j for j, _ in walk.links[i]}
                if walk.inbox[i][0]:
                    shapes.add("forced span")
                if len(outs & set(walk.terminals)) >= 2:
                    shapes.add("two sinks")
                if walk.closing is not None and walk.sink in outs:
                    shapes.add("feeds K")
                if not any(out[1][1:]):
                    shapes.add("all special")
                if any(s == 0 < c for s, c in out[2]):
                    shapes.add("dual preimage")
            return out

        monkeypatch.setattr(_Walk, "_split", split)
        q = ValuedQuiver.from_matrix(b, minimal_symmetrizer(b), 2)
        self.check(random_rep(q, dims, random.Random(0)))
        assert shape in shapes

    @pytest.mark.parametrize("p", [2, 3])
    def test_double_arrow_enumerates(self, monkeypatch, p):
        # the two arrows of the Kronecker pair leave P for one target
        plans = []
        real_table = _Walk.table

        def table(walk):
            plans.append(walk.plan)
            return real_table(walk)

        monkeypatch.setattr(_Walk, "table", table)
        q = split_quivers(p)[-1]
        rng = random.Random(p)
        for dims in product(range(1, 4), repeat=2):
            self.check(random_rep(q, dims, rng))
        assert plans and not any(plans)


def subfield_vectors(q, i, g, dim):
    """A basis over the degree-g subfield of the fiber of dimension dim
    at i."""
    out = []
    for r in range(dim):
        for mu in subfield_basis(q.tower, q.diag[i], g):
            vec = [0] * dim
            vec[r] = mu
            out.append(vec)
    return out


def pairing(q, i, g, f, x):
    """The trace form tr(sum f_r x_r) from the field at i to its
    degree-g subfield."""
    field = q.field(i)
    acc = 0
    for a, b in zip(f, x):
        acc = field.add(acc, field.mul(a, b))
    return q.tower.relative_trace(q.diag[i], g, acc)


class TestDual:
    """D(V) lives over the opposite quiver, its maps are the adjoints
    under the trace forms, D(D(V)) = V exactly, and annihilators match
    subrepresentations of dimension e with those of D(V) of dimension
    v - e; checked by brute force on both sides."""

    @staticmethod
    def check(rep):
        q = rep.quiver
        dual = dual_rep(rep)
        assert dual.quiver.b == tuple(tuple(-x for x in row) for row in q.b)
        assert dual_rep(dual) == rep
        # tr(phi*(f) . x) = tr(f . phi(x)) over a subfield basis of each side
        for key in q.arrow_keys:
            i, j, copy = key
            g = q.valuation[(i, j)]
            for f in subfield_vectors(q, j, g, rep.dims[j]):
                left = dual.apply_arrow((j, i, copy), f)
                for x in subfield_vectors(q, i, g, rep.dims[i]):
                    assert pairing(q, i, g, left, x) == pairing(
                        q, j, g, f, rep.apply_arrow(key, x)
                    )
        v = rep.dims
        for e in product(*(range(x + 1) for x in v)):
            rest = tuple(x - y for x, y in zip(v, e))
            assert brute_count_subreps(dual, rest) == brute_count_subreps(
                rep, e
            )

    @pytest.mark.parametrize("p", [2, 3])
    @pytest.mark.parametrize("name", sorted(BUILTIN_MATRICES))
    def test_builtin_orientations(self, name, p):
        import random

        rng = random.Random(17 * p)
        for q in orientations(name, p):
            for build in (random_rep, sparse_rep):
                dims = tuple(rng.randrange(3) for _ in range(q.n))
                self.check(build(q, dims, rng))

    @pytest.mark.parametrize(
        "b,vectors",
        [
            (BUILTIN_MATRICES["G2"], [(1, 1), (2, 1), (1, 2)]),
            (F4_B, [(1, 1, 1, 1), (1, 2, 1, 1), (0, 1, 2, 1)]),
        ],
        ids=["G2", "F4"],
    )
    def test_prime_power_species(self, b, vectors):
        # the F_4 species: degrees doubled over F_2, so every arrow reads
        # subfield coordinates over F_4 or F_16 with nontrivial Gram
        # matrices of the trace form
        import random

        rng = random.Random(3)
        diag = minimal_symmetrizer(b)
        q = ValuedQuiver.from_matrix(b, [2 * d for d in diag], 2)
        for dims in vectors:
            for build in (random_rep, sparse_rep):
                self.check(build(q, dims, rng))


    @pytest.mark.parametrize("name", ["B3", "G2", "F4"])
    def test_dual_is_kept_and_involutive(self, name):
        # D(V) is built once and kept on V, with V kept on it, so
        # D(D(V)) is V.  A reflection at a source, D S+ D, keeps the sink
        # reflection as its dual.  Counts read through each kept dual
        # equal those of a copy that builds its dual afresh, and the
        # brute-force counts.
        q = quiver(name, 2)
        for v in positive_roots(q.b):
            rep = build_rigid_rep(q, v, rng_seed=0)
            dual = dual_rep(rep)
            assert dual_rep(rep) is dual and dual_rep(dual) is rep
            fresh = ValuedRep(q, rep.dims, rep.maps)
            assert dual_rep(fresh) is not dual and dual_rep(fresh) == dual
            reflected = {
                k: reflect(rep, k)
                for k in q.sources
                if v != simple_vector(q.n, k)
            }
            for k, x in reflected.items():
                assert dual_rep(x) == reflect_sink(dual, k)
            for x in [rep, *reflected.values()]:
                copy = ValuedRep(x.quiver, x.dims, x.maps)
                table = count_all_subreps(x)
                assert table == count_all_subreps(copy)
                assert dual_rep(dual_rep(x)) is x
                if sum(v) <= 4:
                    for e, count in table.items():
                        assert brute_count_subreps(x, e) == count


def gram_adjoint(rep, key):
    """The adjoint of the arrow ``key`` = (i, j, _) under the trace forms,
    by its definition P_i^-1 M^T P_j with block-diagonal Gram matrices."""
    q, dims = rep.quiver, rep.dims
    i, j, _ = key
    g = q.valuation[(i, j)]
    field = q.tower.field(g)
    _, inverse_i = q.tower.trace_gram(q.diag[i], g)
    gram_j, _ = q.tower.trace_gram(q.diag[j], g)

    def blocks(block, copies):
        e = len(block)
        return [
            [block[a][b] if r == c else 0 for c in range(copies) for b in range(e)]
            for r in range(copies)
            for a in range(e)
        ]

    def matmul(x, y):
        return [
            [
                reduce(field.add, (field.mul(a, b) for a, b in zip(row, col)), 0)
                for col in zip(*y)
            ]
            for row in x
        ]

    ncols, nrows = q.map_shape(key, dims)
    if not (nrows and ncols):
        return tuple((0,) * ncols for _ in range(nrows))
    m_t = [list(col) for col in zip(*rep.maps[key])]
    out = matmul(matmul(blocks(inverse_i, dims[i]), m_t), blocks(gram_j, dims[j]))
    return tuple(map(tuple, out))


class TestDualTranspose:
    @pytest.mark.parametrize("p", [2, 3])
    @pytest.mark.parametrize("name", ["A3", "B3", "G2", "D4", "F4"])
    def test_every_arrow_matches_the_gram_path(self, name, p):
        # an end of degree g has the 1x1 identity as its Gram matrix, so
        # dual_rep transposes an arrow between two such ends and skips
        # one product on an arrow with one
        import random

        rng = random.Random(5 * p)
        transposed = 0
        for q in orientations(name, p):
            for build in (random_rep, sparse_rep):
                dims = tuple(rng.randrange(3) for _ in range(q.n))
                rep = build(q, dims, rng)
                dual = dual_rep(rep)
                for key in q.arrow_keys:
                    i, j, c = key
                    assert dual.maps[(j, i, c)] == gram_adjoint(rep, key)
                    transposed += q.diag[i] == q.diag[j]
        # G2's one arrow joins degrees 3 and 1
        assert bool(transposed) == (name != "G2")

    def test_dual_is_exact_like_a_public_build(self):
        # the trusted build of D(V) equals the checked one on its maps
        q = quiver("F4", 2)
        rep = random_rep(q, (1, 2, 1, 1), __import__("random").Random(1))
        dual = dual_rep(rep)
        assert dual == ValuedRep(dual.quiver, dual.dims, dual.maps)
        assert list(dual.maps) == dual.quiver.arrow_keys


class TestWorkShape:
    def test_quivers_and_opposites_are_shared(self):
        # opposite() and reflected(k) build once, and the opposite of an
        # opposite, like a reflection reflected back, is the quiver itself
        q = quiver("B3", 2)
        op = q.opposite()
        assert q.opposite() is op and op.opposite() is q
        for k in q.sinks + q.sources:
            r = q.reflected(k)
            assert q.reflected(k) is r and r.reflected(k) is q

    def test_f4_reflection_builds_three_quivers_per_prime(self, monkeypatch):
        built, opposites = {}, {}
        real_init = ValuedQuiver.__init__
        real_opposite = ValuedQuiver._build_opposite

        def init(self, b, diag, tower):
            built[tower.p] = built.get(tower.p, 0) + 1
            real_init(self, b, diag, tower)

        def build_opposite(self):
            opposites[self.p] = opposites.get(self.p, 0) + 1
            return real_opposite(self)

        monkeypatch.setattr(ValuedQuiver, "__init__", init)
        monkeypatch.setattr(ValuedQuiver, "_build_opposite", build_opposite)
        data = build_exchange_data(F4_B)
        ctx = VerifyContext(data, max_depth=16)
        assert run_check("reflection", ctx).status == "PASS"
        assert set(built) == set(opposites) == set(ctx.primes)
        assert max(built.values()) <= 3 and max(opposites.values()) <= 3

    def test_g2_walks_closing_first_build_no_arrow_matrix(self, monkeypatch):
        # the arrow matrices of a vertex are built on its first send, and
        # a walk that closes its first vertex sends nothing
        calls = []
        walks = []
        started = {}
        real_matrix = reps._fp_arrow_matrix
        real_init = _Walk.__init__
        real_table = _Walk.table

        def matrix(*args):
            calls.append(args)
            return real_matrix(*args)

        def init(walk, rep, closing):
            started[id(walk)] = len(calls)
            real_init(walk, rep, closing)

        def table(walk):
            out = real_table(walk)
            first = walk.closing is not None and walk.closing == walk.enumerated[0]
            walks.append((first, len(calls) - started.pop(id(walk))))
            return out

        monkeypatch.setattr(reps, "_fp_arrow_matrix", matrix)
        monkeypatch.setattr(_Walk, "__init__", init)
        monkeypatch.setattr(_Walk, "table", table)
        data = builtin_exchange_data("G2")
        ctx = VerifyContext(data, max_depth=16)
        for report in run_all(ctx):
            assert report.status == "PASS", report.check
        assert len(walks) == 112
        assert sum(first for first, _ in walks) == 70
        assert all(n == 0 for first, n in walks if first)
        assert any(n for first, n in walks if not first)

    def test_g2_builds_one_kernel_per_walk_that_closes_across_degrees(
        self, monkeypatch
    ):
        # The planner prices V and D(V) from the rank of each closing
        # arrow; only the walked side builds a basis of its kernel.
        kernels = []
        walks = []
        real_kernel = reps.f_kernel_basis
        real_init = _Walk.__init__
        real_table = _Walk.table

        def kernel_basis(field, rows, ncols):
            kernels.append(rows)
            return real_kernel(field, rows, ncols)

        def init(walk, rep, closing):
            built = len(kernels)
            real_init(walk, rep, closing)
            walk.built = len(kernels) - built
            walk.plan = closing

        def table(walk):
            out = real_table(walk)
            walks.append((walk, out))
            return out

        monkeypatch.setattr(reps, "f_kernel_basis", kernel_basis)
        monkeypatch.setattr(_Walk, "__init__", init)
        monkeypatch.setattr(_Walk, "table", table)
        ctx = VerifyContext(builtin_exchange_data("G2"), max_depth=16)
        for report in run_all(ctx):
            assert report.status == "PASS", report.check
        assert len(walks) == 112
        assert sum(w.kernel is not None for w, _ in walks) == 70
        assert all(w.built == (w.kernel is not None) for w, _ in walks)
        monkeypatch.undo()
        for walk, out in walks:
            # the kernel has the dimension the planner read off the rank,
            # and the close counts what the walk without it counts
            if walk.kernel is not None:
                assert len(walk.kernel) == walk.plan[2]
            assert out == _Walk(walk.rep, None).table()

    def test_f4_builds_each_frame_once_per_seed_and_each_dual_once(
        self, monkeypatch
    ):
        # verify-all on F4 assembles characters in the initial seed and in
        # the seeds mutated at its sink and source.  Each frame monomial
        # is built once per seed (526 when every character built its own),
        # and each of the 427 counts reads a dual that is built once: a
        # reflection at a source keeps its sink reflection as its dual
        # (707 duals when each count and reflection built its own).
        from valq import characters, verify
        from valq.qtorus import QuantumSeed

        assembling, frames, duals = [], [], []
        real_assemble = characters.character_in_seed
        real_frame = QuantumSeed.frame_monomial
        real_opposite = ValuedQuiver.opposite

        def assemble(*args):
            assembling.append(True)
            try:
                return real_assemble(*args)
            finally:
                assembling.pop()

        def frame_monomial(seed, c):
            if assembling:
                frames.append(c)
            return real_frame(seed, c)

        def opposite(quiver):
            # each dual asks its quiver for the opposite once
            duals.append(quiver)
            return real_opposite(quiver)

        counts = []
        real_count = reps.count_all_subreps

        def count(rep):
            counts.append(rep)
            return real_count(rep)

        monkeypatch.setattr(characters, "character_in_seed", assemble)
        monkeypatch.setattr(verify, "character_in_seed", assemble)
        monkeypatch.setattr(QuantumSeed, "frame_monomial", frame_monomial)
        monkeypatch.setattr(ValuedQuiver, "opposite", opposite)
        monkeypatch.setattr(characters, "count_all_subreps", count)
        ctx = VerifyContext(build_exchange_data(F4_B), max_depth=16)
        for report in run_all(ctx):
            assert report.status == "PASS", report.check
        assert len(frames) == 243
        assert len(counts) == len(duals) == 427

    @staticmethod
    def sends_at_last_vertex(monkeypatch, dims):
        """How many subspaces the walk of the rigid representation of
        dimension ``dims`` of F4 over F_17 sends at the last vertex it
        enumerates, split and then enumerated whole, with equal tables."""
        sent = []
        real_send = _Walk._send

        def send(walk, i, w):
            if i == [x for x in walk.enumerated if x != walk.closing][-1]:
                sent.append(len(w))
            return real_send(walk, i, w)

        monkeypatch.setattr(_Walk, "_send", send)
        q = ValuedQuiver.from_matrix(F4_B, minimal_symmetrizer(F4_B), 17)
        rep = build_rigid_rep(q, dims, rng_seed=0)
        table = count_all_subreps(rep)
        split = len(sent)
        sent.clear()
        monkeypatch.setattr(_Walk, "_split", lambda walk, i: None)
        assert count_all_subreps(rep) == table
        return split, len(sent)

    def test_f4_at_17_sends_few_subspaces_at_its_last_vertex(
        self, monkeypatch
    ):
        # The rigid (1, 2, 3, 2) over F_17 is walked backward, and the
        # last vertex it enumerates is F_289^2: enumerated, it sends 292
        # subspaces above 0 and 2 above a line.  Split, it sends the
        # forced span and the special subspaces of each parent.
        split, whole = self.sends_at_last_vertex(monkeypatch, (1, 2, 3, 2))
        assert 0 < split <= 2 * (17 + 1)
        assert whole == 294

    def test_f4_hyperplane_preimage_sends_few_subspaces_at_17(
        self, monkeypatch
    ):
        # The rigid (1, 2, 3, 1) is walked backward over the same vertex.
        # Above 0, one preimage there is a prime-field hyperplane, which
        # meets every line, so read from its own side it marks all 292
        # subspaces special.  Read from its annihilator, a line, it marks
        # 0 and one line; the walk sends those, a line of the other
        # preimage, the whole space and 0 again, then 2 above a line.
        split, whole = self.sends_at_last_vertex(monkeypatch, (1, 2, 3, 1))
        assert 0 < split <= 8
        assert whole == 294


class TestTowerCache:
    def test_same_key_same_tower(self):
        assert build_tower(5, (1, 2)) is build_tower(5, (2, 1))

    def test_cap_and_degrees_are_part_of_the_key(self):
        base = build_tower(5, (1, 2))
        assert build_tower(5, (1, 2), cap=1 << 10) is not base
        assert build_tower(5, (1, 2, 3)) is not base
        assert build_tower(7, (1, 2)) is not base
