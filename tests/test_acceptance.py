"""Acceptance suite: thirteen end-to-end criteria, one test each.

Each test prints one `ACCEPTANCE n: PASS ...` line with the measured
numbers once its assertions hold, so `pytest -v -s tests/test_acceptance.py`
reads as a checklist.  The helper contexts are shared with the rest of
the test session; every criterion recomputes only what it asserts.
"""

from itertools import product

from conftest import context_for
from valq.characters import (
    DEFAULT_PRIMES,
    counting_polynomials,
    dimension_bound,
    eval_poly,
)
from valq.classical import enumerate_exchange_graph
from valq.exchange import (
    builtin_exchange_data,
    check_symmetrizer,
    compatibility_defect,
)
from valq.finfield import build_tower, enumerate_subspaces, gaussian_binomial
from valq.qtorus import enumerate_quantum_seeds
from valq.reps import count_all_subreps
from valq.verify import PASS, run_check

FINITE_TYPES = ("A2", "B2", "G2", "A3", "B3")
GRAPH_SIZES = {"A2": 5, "B2": 6, "G2": 8, "A3": 14, "B3": 20}


def report(n, text):
    print("ACCEPTANCE %d: PASS %s" % (n, text))


def mutation_words(n, length):
    """All mutation words up to the given length without immediate repeats."""
    words = [()]
    frontier = [()]
    for _ in range(length):
        nxt = []
        for w in frontier:
            for k in range(n):
                if w and w[-1] == k:
                    continue
                nxt.append(w + (k,))
        words.extend(nxt)
        frontier = nxt
    return words


def test_01_mutation_kernel():
    states = 0
    for name in ("B2", "G2", "A3", "B3"):
        data = builtin_exchange_data(name)
        for word in mutation_words(data.n, 5):
            cur = data
            for k in word:
                cur = cur.mutate(k)
            states += 1
            principal = tuple(row[: data.n] for row in cur.btilde[: data.n])
            check_symmetrizer(principal, data.diag)
            defect = compatibility_defect(cur.btilde, cur.lam, cur.diag)
            assert all(not any(row) for row in defect)
            for k in range(data.n):
                back = cur.mutate(k).mutate(k)
                assert back.btilde == cur.btilde and back.lam == cur.lam
    report(
        1,
        "mutation involution, fixed symmetrizer and framed pairing verified "
        "in %d states of depth <= 5 over B2,G2,A3,B3" % states,
    )


def test_02_exchange_graph_sizes():
    for name, size in GRAPH_SIZES.items():
        data = builtin_exchange_data(name)
        cg = enumerate_exchange_graph(data)
        qg = enumerate_quantum_seeds(data)
        assert cg.count == size and not cg.truncated
        assert qg.count == size and not qg.truncated
    report(
        2,
        "exchange graphs close at %s seeds in both engines"
        % ",".join(str(GRAPH_SIZES[t]) for t in FINITE_TYPES),
    )


def test_03_denominators_are_dimension_vectors():
    total = 0
    for name in ("B2", "G2", "A3", "B3"):
        r = run_check("denominators", context_for(name))
        assert r.status == PASS and "skipped" not in r.detail
        total += int(r.detail.split()[0])
    assert total == 4 + 6 + 6 + 9
    report(3, "denominator vectors equal rigid dimension vectors for all %d "
              "non-initial variables of B2,G2,A3,B3" % total)


def test_04_characters_equal_mutated_variables():
    counts = {}
    for name in ("B2", "G2", "B3"):
        r = run_check("characters", context_for(name))
        assert r.status == PASS
        counts[name] = int(r.detail.split()[0])
    assert counts == {"B2": 4, "G2": 6, "B3": 9}
    report(
        4,
        "quantum characters reproduce every mutated variable and its "
        "commutative shadow (B2: 4, G2: 6, B3: 9 variables)",
    )


def test_05_counting_polynomials_survive_a_held_out_prime():
    held_out = DEFAULT_PRIMES[-1]
    fitted = 0
    for name in ("B2", "G2"):
        ctx = context_for(name)
        data = ctx.data
        for rec in ctx.variable_records():
            v = rec["d"]
            boxes = list(product(*[range(x + 1) for x in v]))
            worst = max(dimension_bound(data.diag, v, e) for e in boxes)
            # The fit never consumes the last prime, so 17 is held out.
            assert worst + 2 <= len(DEFAULT_PRIMES)
            polys = counting_polynomials(ctx.rigid_reps(v))
            check = count_all_subreps(ctx.rigid_rep(held_out, v))
            for e, coeffs in polys.items():
                assert eval_poly(coeffs, held_out) == check[e]
            fitted += 1
    assert fitted == 4 + 6
    report(
        5,
        "all %d counting-polynomial tables of B2 and G2 match recounts at "
        "the held-out prime %d" % (fitted, held_out),
    )


def test_06_reflection_transports_characters():
    matched = 0
    for name in ("B2", "G2"):
        r = run_check("reflection", context_for(name))
        assert r.status == PASS
        assert "sinks [1], sources [2]" in r.detail
        matched += int(r.detail.split("sources [2],")[1].split()[0])
    assert matched == 6 + 10
    report(
        6,
        "%d characters transported through sink and source mutations of "
        "B2 and G2 agree with the reflected counting data" % matched,
    )


def test_07_g_vectors_from_denominators():
    total = 0
    for name in ("B2", "G2", "A3", "B3"):
        r = run_check("g-formula", context_for(name))
        assert r.status == PASS
        total += int(r.detail.split()[0])
    report(7, "g-vectors of %d variables match the star-matrix image of "
              "their denominator vectors" % total)


def test_08_tropical_duality():
    total = 0
    for name in FINITE_TYPES:
        r = run_check("tropical", context_for(name))
        assert r.status == PASS
        total += int(r.detail.split()[0])
    report(8, "tropical evaluation of %d frozen polynomials lands on the "
              "negated denominator vector" % total)


def test_09_sign_coherence():
    for name in FINITE_TYPES:
        r = run_check("sign-coherence", context_for(name))
        assert r.status == PASS and r.detail.startswith("parts 1-3")
    report(9, "sign coherence parts 1-3 hold across %s" % ",".join(FINITE_TYPES))


def test_10_distinct_denominators_and_bases():
    names = ("A2", "B2", "C2", "G2", "A3", "B3")
    monomials = 0
    seeds = 0
    for name in names:
        ctx = context_for(name)
        r1 = run_check("distinct-d", ctx)
        r2 = run_check("d-basis", ctx)
        assert r1.status == PASS and r2.status == PASS
        monomials += int(r1.detail.split()[0])
        seeds += int(r2.detail.split()[-2])
    report(
        10,
        "denominator vectors separate %d cluster monomials and form "
        "unimodular bases in all %d seeds of %s" % (monomials, seeds, ",".join(names)),
    )


def test_11_principal_source_evaluation():
    expected = {
        "B2": "source 2: value 1 for 3 variables, y2^-1 at the simple",
        "B3": "source 3: value 1 for 8 variables, y3^-1 at the simple",
    }
    for name, detail in expected.items():
        r = run_check("principal-source", context_for(name))
        assert r.status == PASS and r.detail == detail
    report(11, "principal-coefficient source specialization gives 1 off the "
               "simple and the inverted coefficient at it (B2, B3)")


def test_12_connected_supports():
    for name in ("A3", "B3"):
        r1 = run_check("rs310", context_for(name))
        r2 = run_check("fz4144", context_for(name))
        assert r1.status == PASS and r2.status == PASS
    report(
        12,
        "single-variable and compatible-pair supports are connected and the "
        "acyclic-seed belt is connected in A3 and B3",
    )


def test_13_finite_field_layer():
    pairs = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)]
    checked = 0
    for p, d in pairs:
        tower = build_tower(p, (d,))
        F = tower.field(d)
        for n in range(1, 4):
            for k in range(0, n + 1):
                count = sum(1 for _ in enumerate_subspaces(F, n, k))
                assert count == gaussian_binomial(F.q, n, k)
                checked += 1
    for p in (2, 3):
        t = build_tower(p, (2, 4))
        for x in range(t.field(1).q):
            assert t.embed(1, 4, x) == t.embed(2, 4, t.embed(1, 2, x))
        for x in range(t.field(2).q):
            assert t.embed_inverse(4, 2, t.embed(2, 4, x)) == x
    report(
        13,
        "%d grassmannian counts over fields of order <= 9 match gaussian "
        "binomials; embedding towers compose on every element" % checked,
    )
