"""Verification checks and the command line front end."""

import io
import itertools
import json
import contextlib
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import valq.verify
from valq import cli
from valq.characters import dimension_bound
from valq.classical import ClassicalSeed, enumerate_exchange_graph
from valq.exchange import (
    BUILTIN_MATRICES,
    build_exchange_data,
    builtin_exchange_data,
)
from valq.laurent import LaurentPoly
from valq.qtorus import QTorusElem
from valq.reps import NoRigidFound
from valq.verify import (
    ALL_CHECKS,
    FAIL,
    PASS,
    REGISTRY,
    SKIPPED,
    VerificationReport,
    VerifyContext,
    primes_needed,
    run_all,
    run_check,
)

from test_exchange import acyclic_skew_symmetrizable

GOLDEN = Path(__file__).resolve().parent / "golden"

B2_ROWS = [
    "denominators           B2       PASS exhaustive  4 variables checked",
    "tropical               B2       PASS exhaustive  4 variables checked",
    "sign-coherence         B2       PASS exhaustive  parts 1-3 on 4 variables",
    "distinct-d             B2       PASS exhaustive  19 monomials of degree <= 2, all denominator vectors distinct",
    "d-basis                B2       PASS exhaustive  determinant +-1 in all 6 seeds",
    "g-formula              B2       PASS exhaustive  4 variables checked",
    "sink-source-reflection B2       PASS exhaustive  sinks [1], sources [2], 8 variables matched",
    "principal-source       B2       PASS exhaustive  source 2: value 1 for 3 variables, y2^-1 at the simple",
    "rs310                  B2       PASS exhaustive  6 variables and 6 compatible pairs, all induced subgraphs connected",
    "fz4144                 B2       PASS exhaustive  6 of 6 seeds have acyclic matrices and form a connected subgraph",
    "characters             B2       PASS exhaustive  4 variables matched",
    "reflection             B2       PASS exhaustive  sinks [1], sources [2], 6 characters matched",
]

G2_ROWS = [
    "denominators           G2       PASS exhaustive  6 variables checked",
    "tropical               G2       PASS exhaustive  6 variables checked",
    "sign-coherence         G2       PASS exhaustive  parts 1-3 on 6 variables",
    "distinct-d             G2       PASS exhaustive  25 monomials of degree <= 2, all denominator vectors distinct",
    "d-basis                G2       PASS exhaustive  determinant +-1 in all 8 seeds",
    "g-formula              G2       PASS exhaustive  6 variables checked",
    "sink-source-reflection G2       PASS exhaustive  sinks [1], sources [2], 12 variables matched",
    "principal-source       G2       PASS exhaustive  source 2: value 1 for 5 variables, y2^-1 at the simple",
    "rs310                  G2       PASS exhaustive  8 variables and 8 compatible pairs, all induced subgraphs connected",
    "fz4144                 G2       PASS exhaustive  8 of 8 seeds have acyclic matrices and form a connected subgraph",
    "characters             G2       PASS exhaustive  6 variables matched",
    "reflection             G2       PASS exhaustive  sinks [1], sources [2], 10 characters matched",
]

B3_ROWS = [
    "denominators           B3       PASS exhaustive  9 variables checked",
    "tropical               B3       PASS exhaustive  9 variables checked",
    "sign-coherence         B3       PASS exhaustive  parts 1-3 on 9 variables",
    "distinct-d             B3       PASS exhaustive  55 monomials of degree <= 2, all denominator vectors distinct",
    "d-basis                B3       PASS exhaustive  determinant +-1 in all 20 seeds",
    "g-formula              B3       PASS exhaustive  9 variables checked",
    "sink-source-reflection B3       PASS exhaustive  sinks [1], sources [3], 18 variables matched",
    "principal-source       B3       PASS exhaustive  source 3: value 1 for 8 variables, y3^-1 at the simple",
    "rs310                  B3       PASS exhaustive  12 variables and 30 compatible pairs, all induced subgraphs connected",
    "fz4144                 B3       PASS exhaustive  16 of 20 seeds have acyclic matrices and form a connected subgraph",
    "characters             B3       PASS exhaustive  9 variables matched",
    "reflection             B3       PASS exhaustive  sinks [1], sources [3], 16 characters matched",
]


# Whole ``valq char --json`` documents, in output order; the tests
# compare the printed bytes with ``json.dumps(table, indent=2)``.
CHAR_G2_12 = {
    "v": [1, 2],
    "P": {"0,0": [1], "1,0": [1], "1,1": [1, 1], "1,2": [1]},
    "F": "y1*y2^2 + 2*y1*y2 + y1 + 1",
    "g": [-1, 1],
    "d": [1, 2],
    "X_v": "X^(1,-2,1,2) + (u + u^-1)*X^(0,-2,1,1) + X^(-1,1,0,0)"
    " + X^(-1,-2,1,0)",
    "X_v_terms": [
        [[1, -2, 1, 2], "1"],
        [[0, -2, 1, 1], "u + u^-1"],
        [[-1, 1, 0, 0], "1"],
        [[-1, -2, 1, 0], "1"],
    ],
}

CHAR_G2_23 = {
    "v": [2, 3],
    "P": {
        "0,0": [1],
        "1,0": [1, 0, 0, 1],
        "1,1": [1, 1, 1],
        "2,0": [1],
        "2,1": [1, 1, 1],
        "2,2": [1, 1, 1],
        "2,3": [1],
    },
    "F": "y1^2*y2^3 + 3*y1^2*y2^2 + 3*y1^2*y2 + y1^2 + 3*y1*y2 + 2*y1 + 1",
    "g": [-2, 3],
    "d": [2, 3],
    "X_v": "X^(1,-3,2,3) + (u^2 + 1 + u^-2)*X^(0,-3,2,2)"
    " + (u^2 + 1 + u^-2)*X^(-1,0,1,1) + (u^2 + 1 + u^-2)*X^(-1,-3,2,1)"
    " + X^(-2,3,0,0) + (u^3 + u^-3)*X^(-2,0,1,0) + X^(-2,-3,2,0)",
    "X_v_terms": [
        [[1, -3, 2, 3], "1"],
        [[0, -3, 2, 2], "u^2 + 1 + u^-2"],
        [[-1, 0, 1, 1], "u^2 + 1 + u^-2"],
        [[-1, -3, 2, 1], "u^2 + 1 + u^-2"],
        [[-2, 3, 0, 0], "1"],
        [[-2, 0, 1, 0], "u^3 + u^-3"],
        [[-2, -3, 2, 0], "1"],
    ],
}

CHAR_B3_111 = {
    "v": [1, 1, 1],
    "P": {"0,0,0": [1], "1,0,0": [1], "1,1,0": [1], "1,1,1": [1]},
    "F": "y1*y2*y3 + y1*y2 + y1 + 1",
    "g": [-1, 0, 1],
    "d": [1, 1, 1],
    "X_v": "X^(0,0,-1,1,1,1) + X^(0,-1,-1,1,1,0) + X^(-1,0,1,0,0,0)"
    " + X^(-1,-1,1,1,0,0)",
    "X_v_terms": [
        [[0, 0, -1, 1, 1, 1], "1"],
        [[0, -1, -1, 1, 1, 0], "1"],
        [[-1, 0, 1, 0, 0, 0], "1"],
        [[-1, -1, 1, 1, 0, 0], "1"],
    ],
}


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


class TestRegistry:
    def test_check_order(self):
        assert ALL_CHECKS == (
            "denominators",
            "tropical",
            "sign-coherence",
            "distinct-d",
            "d-basis",
            "g-formula",
            "sink-source-reflection",
            "principal-source",
            "rs310",
            "fz4144",
            "characters",
            "reflection",
        )
        assert tuple(REGISTRY) == ALL_CHECKS

    def test_primes_needed(self, b2, g2):
        assert primes_needed(b2.diag, (1, 2)) == 3
        assert primes_needed(g2.diag, (2, 3)) == 7

    @pytest.mark.parametrize("name", sorted(BUILTIN_MATRICES))
    def test_primes_needed_is_the_box_maximum(self, name):
        # The closed form against the largest degree bound over the box
        # 0 <= e <= v, for every v up to 5 per entry.
        diag = builtin_exchange_data(name).diag
        for v in itertools.product(range(6), repeat=len(diag)):
            box = itertools.product(*(range(x + 1) for x in v))
            worst = max(dimension_bound(diag, v, e) for e in box)
            assert primes_needed(diag, v) == worst + 2, v


class TestChecksPass:
    def test_all_b2_rows(self, ctx_for):
        reports = run_all(ctx_for("B2"))
        assert [r.row() for r in reports] == B2_ROWS
        assert all(r.status == PASS for r in reports)
        assert all(r.counterexample is None for r in reports)

    @pytest.mark.parametrize("name, rows", [("G2", G2_ROWS), ("B3", B3_ROWS)])
    def test_all_rows(self, ctx_for, name, rows):
        assert [r.row() for r in run_all(ctx_for(name))] == rows

    def test_all_a3_checks_pass(self, ctx_for):
        reports = run_all(ctx_for("A3"))
        assert all(r.status == PASS for r in reports)
        by_name = {r.check: r for r in reports}
        assert by_name["d-basis"].detail == "determinant +-1 in all 14 seeds"
        assert by_name["sink-source-reflection"].detail.startswith(
            "sinks [1], sources [3]"
        )

    def test_b3_acyclic_belt(self, ctx_for):
        r = run_check("fz4144", ctx_for("B3"))
        assert r.status == PASS
        assert r.detail == (
            "16 of 20 seeds have acyclic matrices and form a connected subgraph"
        )

    def test_report_dict_shape(self, ctx_for):
        d = run_check("denominators", ctx_for("B2")).to_dict()
        assert d == {
            "check": "denominators",
            "target": {"name": "B2", "B": [[0, 1], [-2, 0]]},
            "scope": "exhaustive",
            "status": "PASS",
            "detail": "4 variables checked",
        }

    def test_unknown_check_rejected(self, ctx_for):
        with pytest.raises(KeyError):
            run_check("nonsense", ctx_for("B2"))


class TestTruncationSemantics:
    def test_graph_global_checks_are_skipped(self, ctx_for):
        ctx = ctx_for("WILD3", max_depth=3)
        for name in ("rs310", "fz4144"):
            r = run_check(name, ctx)
            assert r.status == SKIPPED and r.scope == "truncated"

    def test_per_variable_checks_still_run(self, ctx_for):
        ctx = ctx_for("WILD3", max_depth=3)
        r = run_check("tropical", ctx)
        assert r.status == PASS and r.scope == "truncated"
        assert r.detail == "13 variables checked"

    def test_sign_coherence_drops_reverse_direction(self, ctx_for):
        r = run_check("sign-coherence", ctx_for("WILD3", max_depth=3))
        assert r.status == PASS
        assert "one direction of part 2" in r.detail

    def test_truncated_sink_source_rows(self, ctx_for):
        # The original side of each pair is one mutation deeper than the
        # fresh side, so the bound stops the pairs one step earlier than
        # the classical walk and matches only variables that walk built.
        r = run_check("sink-source-reflection", ctx_for("WILD3", max_depth=3))
        assert r.row() == (
            "sink-source-reflection WILD3    PASS truncated   "
            "sinks [1], sources [3], 16 variables matched"
        )
        r = run_check("sink-source-reflection", ctx_for("B3", max_seeds=7))
        assert r.row() == (
            "sink-source-reflection B3       PASS truncated   "
            "sinks [1], sources [3], 8 variables matched"
        )


    def test_sink_source_pairs_stay_inside_the_depth_bound(self, monkeypatch):
        # On this wild matrix a mutation of a seed at depth 3 builds
        # variables of tens of thousands of terms; with --max-depth 3 no
        # walk of the check may make one.
        from valq.qtorus import Seed

        mutate = Seed.mutate

        def bounded(seed, k):
            assert seed.depth < 3, "mutated a seed at depth %d" % seed.depth
            return mutate(seed, k)

        monkeypatch.setattr(Seed, "mutate", bounded)
        b = [[0, 0, -2], [0, 0, -2], [6, 6, 0]]
        ctx = VerifyContext(build_exchange_data(b), primes=(2, 3), max_depth=3)
        r = run_check("sink-source-reflection", ctx)
        assert (r.status, r.scope) == (PASS, "truncated")
        assert r.detail == "sinks [3], sources [1, 2], 21 variables matched"


class TestSinkSourcePairing:
    @staticmethod
    def _unmutated(monkeypatch, name):
        """A context whose k-mutated matrix is built as the unmutated one,
        so the fresh walk cannot stay paired with the original algebra."""
        import valq.verify

        ctx = VerifyContext(builtin_exchange_data(name), name=name)
        monkeypatch.setattr(valq.verify, "build_exchange_data", lambda b: ctx.data)
        return run_check("sink-source-reflection", ctx)

    def test_inconsistent_pairing_fails(self, monkeypatch):
        r = self._unmutated(monkeypatch, "A3")
        assert r.status == FAIL
        assert r.row() == (
            "sink-source-reflection A3       FAIL truncated   "
            "seed pairing at vertex 1 is inconsistent"
        )
        assert r.counterexample["vertex"] == 1
        assert r.counterexample["fresh_history"] == [0, 1, 2, 0]
        assert r.counterexample["original_history"] == [0, 0, 1, 2, 0]

    @pytest.mark.parametrize("name", ["B2", "G2"])
    def test_rank_two_pairing_survives(self, monkeypatch, name):
        assert self._unmutated(monkeypatch, name).status == PASS


class TestDistinctD:
    def test_clash_names_both_monomials(self, monkeypatch):
        # Merge the denominator vectors of x1^2 and x1*x2 only, so the
        # FAIL row names the second monomial and the first.
        from valq.laurent import LaurentPoly

        real = LaurentPoly.denominator_vector

        def merged(self, upto=None):
            d = real(self, upto)
            return (-2,) if sum(d) == -2 else d

        monkeypatch.setattr(LaurentPoly, "denominator_vector", merged)
        r = run_check("distinct-d", VerifyContext(builtin_exchange_data("B2")))
        assert r.status == FAIL and r.detail == "two monomials share d=(-2,)"
        assert r.counterexample["history"] == []
        assert r.counterexample["monomial"] == ["x1", "x2"]
        assert r.counterexample["clashes_with"] == ["x1", "x1"]
        assert r.counterexample["d"] == [-2]


class TestCharactersPairing:
    def test_no_mutations_beyond_the_walk(self, monkeypatch):
        # The characters check pairs each quantum seed with the classical
        # walk's seed of the same index instead of mutating a copy.
        from valq.classical import ClassicalSeed, enumerate_exchange_graph

        real = ClassicalSeed.mutate
        calls = []

        def counting(seed, k):
            calls.append(k)
            return real(seed, k)

        monkeypatch.setattr(ClassicalSeed, "mutate", counting)
        enumerate_exchange_graph(builtin_exchange_data("B3"))
        walk = len(calls)
        del calls[:]
        rc, out, _ = run_cli(["verify", "characters", "--type", "B3"])
        assert rc == 0 and " PASS " in out
        assert len(calls) == walk

    def test_differing_graphs_fail(self, monkeypatch):
        from valq.classical import enumerate_exchange_graph

        ctx = VerifyContext(builtin_exchange_data("B2"), name="B2")
        shallow = enumerate_exchange_graph(ctx.data, max_depth=1)
        monkeypatch.setattr(ctx, "classical_graph", lambda: shallow)
        r = run_check("characters", ctx)
        assert r.row() == (
            "characters             B2       FAIL exhaustive  "
            "quantum and commutative exchange graphs differ"
        )
        assert r.counterexample["B"] == [[0, 1], [-2, 0]]


class TestSinkSourceMutations:
    def test_original_side_is_read_from_the_graph(self, monkeypatch):
        # B3 has a sink and a source.  Once the classical walk has run,
        # every exchange relation of the original algebra is known, in
        # both directions, so the original side of each paired walk
        # computes none; only the fresh sides do.
        ctx = VerifyContext(builtin_exchange_data("B3"), name="B3")
        ctx.classical_graph()
        real = ClassicalSeed._exchange
        calls = []

        def counting(seed, k):
            calls.append(seed.initial)
            return real(seed, k)

        monkeypatch.setattr(ClassicalSeed, "_exchange", counting)
        assert run_check("sink-source-reflection", ctx).status == PASS
        assert calls and ctx.data not in calls


class TestSharedQuantumSeed:
    def test_reflection_reads_the_walks_exchanges(self, monkeypatch):
        # The characters check walks the quantum graph from the context's
        # initial seed.  The reflection check mutates that seed at the
        # sink 1 and the source 2 of B2, whose exchanges the walk has
        # made, so it computes none and gives the row of a fresh context.
        from valq.qtorus import QuantumSeed

        fresh = VerifyContext(builtin_exchange_data("B2"), name="B2")
        expected = run_check("reflection", fresh).row()
        ctx = VerifyContext(builtin_exchange_data("B2"), name="B2")
        assert run_check("characters", ctx).status == PASS
        real = QuantumSeed._exchange
        calls = []

        def counting(seed, k):
            calls.append(k)
            return real(seed, k)

        monkeypatch.setattr(QuantumSeed, "_exchange", counting)
        assert run_check("reflection", ctx).row() == expected
        assert calls == []

    def test_reflection_alone_builds_no_quantum_walk(self, monkeypatch):
        import valq.verify

        walks = []
        real = valq.verify.enumerate_quantum_seeds

        def counting(*args, **kwargs):
            walks.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(valq.verify, "enumerate_quantum_seeds", counting)
        ctx = VerifyContext(builtin_exchange_data("B2"), name="B2")
        assert run_check("reflection", ctx).status == PASS
        assert walks == []
        assert run_check("characters", ctx).status == PASS
        assert len(walks) == 1


class TestCheckErrors:
    """Only the listed exceptions of character construction become FAIL
    rows; any other error is a bug and propagates."""

    @staticmethod
    def _failing_rigid_search(monkeypatch, exc):
        import valq.verify

        def failing(quiver, dims, **kwargs):
            raise exc

        monkeypatch.setattr(valq.verify, "build_rigid_rep", failing)
        return VerifyContext(builtin_exchange_data("B2"), name="B2")

    @pytest.mark.parametrize("check", ["denominators", "characters", "reflection"])
    def test_plain_value_error_propagates(self, monkeypatch, check):
        ctx = self._failing_rigid_search(monkeypatch, ValueError("bug"))
        with pytest.raises(ValueError, match="bug"):
            run_check(check, ctx)

    @pytest.mark.parametrize("check", ["denominators", "characters"])
    def test_no_rigid_found_fails(self, monkeypatch, check):
        from valq.reps import NoRigidFound

        ctx = self._failing_rigid_search(monkeypatch, NoRigidFound("no luck"))
        r = run_check(check, ctx)
        assert r.status == FAIL
        assert r.detail == "character construction failed: no luck"


def _patch(target, name, value):
    """A patch that sets one attribute of a module or a class."""
    return lambda mp, ctx: mp.setattr(target, name, value)


def _patch_context(name, value):
    """A patch that sets one attribute of the context under test."""
    return lambda mp, ctx: mp.setattr(ctx, name, value)


def _d_vectors(change):
    """A patch that passes every classical denominator vector through
    ``change(seed, d)``."""

    def patch(mp, ctx):
        real = ClassicalSeed.d_vector
        mp.setattr(
            ClassicalSeed, "d_vector", lambda seed, i: change(seed, real(seed, i))
        )

    return patch


def _negated(seed, d):
    return tuple(-x for x in d)


def _no_luck(v):
    raise NoRigidFound("no luck")


def _shallow_classical_graph(mp, ctx):
    shallow = enumerate_exchange_graph(ctx.data, max_depth=1)
    mp.setattr(ctx, "classical_graph", lambda: shallow)


def _unmutated_fresh_algebra(mp, ctx):
    mp.setattr(valq.verify, "build_exchange_data", lambda b: ctx.data)


class TestFailPayloads:
    """Every FAIL branch of every check, each reached by one patch on a
    fresh context: the row and the whole JSON report, byte for byte."""

    @pytest.mark.parametrize(
        "check, matrix, patch, row, doc",
        [
            pytest.param(
                "denominators", "B2",
                _d_vectors(_negated),
                "denominators           B2       FAIL exhaustive  negative denominator entry",
                '{"check": "denominators", "target": {"name": "B2", "B": [[0, 1], [-2, 0]]}, "scope": "exhaustive", "status": "FAIL", "detail": "negative denominator entry",'
                ' "counterexample": {"B": [[0, 1], [-2, 0]], "rng_seed": 0, "primes": [2, 3, 5, 7, 11, 13, 17], "history": [1], "d": [0, -1]}}',
                id="denominators-negative",
            ),
            pytest.param(
                "denominators", "B2",
                _patch_context("generic_char", _no_luck),
                "denominators           B2       FAIL exhaustive  character construction failed: no luck",
                '{"check": "denominators", "target": {"name": "B2", "B": [[0, 1], [-2, 0]]}, "scope": "exhaustive", "status": "FAIL", "detail": "character construction failed: no luck",'
                ' "counterexample": {"B": [[0, 1], [-2, 0]], "rng_seed": 0, "primes": [2, 3, 5, 7, 11, 13, 17], "history": [1], "d": [0, 1]}}',
                id="denominators-construction",
            ),
            pytest.param(
                "denominators", "B2",
                _patch(QTorusElem, "specialize_q1", lambda self: None),
                "denominators           B2       FAIL exhaustive  denominator vector differs from dimension vector",
                '{"check": "denominators", "target": {"name": "B2", "B": [[0, 1], [-2, 0]]}, "scope": "exhaustive", "status": "FAIL", "detail": "denominator vector differs from dimension vector",'
                ' "counterexample": {"B": [[0, 1], [-2, 0]], "rng_seed": 0, "primes": [2, 3, 5, 7, 11, 13, 17], "history": [1], "d": [0, 1], "character_denominator": [0, 1]}}',
                id="denominators-differs",
            ),
            pytest.param(
                "tropical", "B2",
                _patch(valq.verify, "tropical_evaluate", lambda f, point: (9, 9)),
                "tropical               B2       FAIL exhaustive  tropical degree (9, 9), expected (0, -1)",
                '{"check": "tropical", "target": {"name": "B2", "B": [[0, 1], [-2, 0]]}, "scope": "exhaustive", "status": "FAIL", "detail": "tropical degree (9, 9), expected (0, -1)",'
                ' "counterexample": {"B": [[0, 1], [-2, 0]], "rng_seed": 0, "primes": [2, 3, 5, 7, 11, 13, 17], "history": [1], "d": [0, 1]}}',
                id="tropical",
            ),
            pytest.param(
                "sign-coherence", "B2",
                _d_vectors(_negated),
                "sign-coherence         B2       FAIL exhaustive  part 1: negative entry in (0, -1)",
                '{"check": "sign-coherence", "target": {"name": "B2", "B": [[0, 1], [-2, 0]]}, "scope": "exhaustive", "status": "FAIL", "detail": "part 1: negative entry in (0, -1)",'
                ' "counterexample": {"B": [[0, 1], [-2, 0]], "rng_seed": 0, "primes": [2, 3, 5, 7, 11, 13, 17], "history": [1], "d": [0, -1]}}',
                id="sign-coherence-part-1",
            ),
            pytest.param(
                "sign-coherence", "B2",
                _d_vectors(lambda seed, d: tuple(x + len(seed.history) for x in d)),
                "sign-coherence         B2       FAIL exhaustive  part 3: seat-dependent denominator vectors [(1, 2), (2, 3)]",
                '{"check": "sign-coherence", "target": {"name": "B2", "B": [[0, 1], [-2, 0]]}, "scope": "exhaustive", "status": "FAIL", "detail": "part 3: seat-dependent denominator vectors [(1, 2), (2, 3)]",'
                ' "counterexample": {"B": [[0, 1], [-2, 0]], "rng_seed": 0, "primes": [2, 3, 5, 7, 11, 13, 17], "history": [1]}}',
                id="sign-coherence-part-3",
            ),
            pytest.param(
                "sign-coherence", "B2",
                _d_vectors(lambda seed, d: tuple(x + 1 for x in d)),
                "sign-coherence         B2       FAIL exhaustive  part 2: shares a seed with initial 1 but d_1=1",
                '{"check": "sign-coherence", "target": {"name": "B2", "B": [[0, 1], [-2, 0]]}, "scope": "exhaustive", "status": "FAIL", "detail": "part 2: shares a seed with initial 1 but d_1=1",'
                ' "counterexample": {"B": [[0, 1], [-2, 0]], "rng_seed": 0, "primes": [2, 3, 5, 7, 11, 13, 17], "history": [1], "d": [1, 2]}}',
                id="sign-coherence-part-2-shared",
            ),
            pytest.param(
                "sign-coherence", "B2",
                _d_vectors(lambda seed, d: (0,) * len(d)),
                "sign-coherence         B2       FAIL exhaustive  part 2: d_2=0 but no common seed with initial 2",
                '{"check": "sign-coherence", "target": {"name": "B2", "B": [[0, 1], [-2, 0]]}, "scope": "exhaustive", "status": "FAIL", "detail": "part 2: d_2=0 but no common seed with initial 2",'
                ' "counterexample": {"B": [[0, 1], [-2, 0]], "rng_seed": 0, "primes": [2, 3, 5, 7, 11, 13, 17], "history": [1], "d": [0, 0]}}',
                id="sign-coherence-part-2-apart",
            ),
            pytest.param(
                "distinct-d", "B2",
                _patch(LaurentPoly, "denominator_vector", lambda self, upto=None: (0, 0)),
                "distinct-d             B2       FAIL exhaustive  two monomials share d=(0, 0)",
                '{"check": "distinct-d", "target": {"name": "B2", "B": [[0, 1], [-2, 0]]}, "scope": "exhaustive", "status": "FAIL", "detail": "two monomials share d=(0, 0)",'
                ' "counterexample": {"B": [[0, 1], [-2, 0]], "rng_seed": 0, "primes": [2, 3, 5, 7, 11, 13, 17], "history": [], "monomial": ["x1"], "clashes_with": [], "d": [0, 0]}}',
                id="distinct-d",
            ),
            pytest.param(
                "d-basis", "B2",
                _patch(valq.verify, "det", lambda rows: 2),
                "d-basis                B2       FAIL exhaustive  cluster determinant 2",
                '{"check": "d-basis", "target": {"name": "B2", "B": [[0, 1], [-2, 0]]}, "scope": "exhaustive", "status": "FAIL", "detail": "cluster determinant 2",'
                ' "counterexample": {"B": [[0, 1], [-2, 0]], "rng_seed": 0, "primes": [2, 3, 5, 7, 11, 13, 17], "history": [], "d_rows": [[-1, 0], [0, -1]]}}',
                id="d-basis",
            ),
            pytest.param(
                "g-formula", "B2",
                _patch(valq.verify, "g_from_d", lambda data, d: (9, 9)),
                "g-formula              B2       FAIL exhaustive  g=(0, -1) but formula gives (9, 9)",
                '{"check": "g-formula", "target": {"name": "B2", "B": [[0, 1], [-2, 0]]}, "scope": "exhaustive", "status": "FAIL", "detail": "g=(0, -1) but formula gives (9, 9)",'
                ' "counterexample": {"B": [[0, 1], [-2, 0]], "rng_seed": 0, "primes": [2, 3, 5, 7, 11, 13, 17], "history": [1], "d": [0, 1]}}',
                id="g-formula",
            ),
            pytest.param(
                "sink-source-reflection", "A3",
                _unmutated_fresh_algebra,
                "sink-source-reflection A3       FAIL truncated   seed pairing at vertex 1 is inconsistent",
                '{"check": "sink-source-reflection", "target": {"name": "A3", "B": [[0, 1, 0], [-1, 0, 1], [0, -1, 0]]}, "scope": "truncated", "status": "FAIL", "detail": "seed pairing at vertex 1 is inconsistent",'
                ' "counterexample": {"B": [[0, 1, 0], [-1, 0, 1], [0, -1, 0]], "rng_seed": 0, "primes": [2, 3, 5, 7, 11, 13, 17], "vertex": 1, "fresh_history": [0, 1, 2, 0], "original_history": [0, 0, 1, 2, 0]}}',
                id="sink-source-pairing",
            ),
            pytest.param(
                "sink-source-reflection", "B2",
                _patch(valq.verify, "simple_reflection", lambda b, k, v: (9, 9)),
                "sink-source-reflection B2       FAIL exhaustive  d=(1, 0) maps to (-1, 0), expected (9, 9)",
                '{"check": "sink-source-reflection", "target": {"name": "B2", "B": [[0, 1], [-2, 0]]}, "scope": "exhaustive", "status": "FAIL", "detail": "d=(1, 0) maps to (-1, 0), expected (9, 9)",'
                ' "counterexample": {"B": [[0, 1], [-2, 0]], "rng_seed": 0, "primes": [2, 3, 5, 7, 11, 13, 17], "vertex": 1, "fresh_history": [0], "slot": 1}}',
                id="sink-source-reflection",
            ),
            pytest.param(
                "principal-source", "B2",
                _patch(valq.verify, "tropical_evaluate", lambda f, point: (9, 9)),
                "principal-source       B2       FAIL exhaustive  source 2: tropical value (9, 9) at d=(0, 1), expected (0, -1)",
                '{"check": "principal-source", "target": {"name": "B2", "B": [[0, 1], [-2, 0]]}, "scope": "exhaustive", "status": "FAIL", "detail": "source 2: tropical value (9, 9) at d=(0, 1), expected (0, -1)",'
                ' "counterexample": {"B": [[0, 1], [-2, 0]], "rng_seed": 0, "primes": [2, 3, 5, 7, 11, 13, 17], "vertex": 2, "history": [1], "d": [0, 1]}}',
                id="principal-source",
            ),
            pytest.param(
                "rs310", "B2",
                _patch(valq.verify, "subgraph_is_connected", lambda result, nodes: False),
                "rs310                  B2       FAIL exhaustive  seeds holding one variable are disconnected",
                '{"check": "rs310", "target": {"name": "B2", "B": [[0, 1], [-2, 0]]}, "scope": "exhaustive", "status": "FAIL", "detail": "seeds holding one variable are disconnected",'
                ' "counterexample": {"B": [[0, 1], [-2, 0]], "rng_seed": 0, "primes": [2, 3, 5, 7, 11, 13, 17], "variable": "x1", "seeds": [0, 2]}}',
                id="rs310-variable",
            ),
            pytest.param(
                "rs310", "B2",
                _patch(valq.verify, "subgraph_is_connected", lambda result, nodes: len(nodes) > 1),
                "rs310                  B2       FAIL exhaustive  seeds holding a compatible pair are disconnected",
                '{"check": "rs310", "target": {"name": "B2", "B": [[0, 1], [-2, 0]]}, "scope": "exhaustive", "status": "FAIL", "detail": "seeds holding a compatible pair are disconnected",'
                ' "counterexample": {"B": [[0, 1], [-2, 0]], "rng_seed": 0, "primes": [2, 3, 5, 7, 11, 13, 17], "variables": ["x1", "x1*x2^-1*x4 + x2^-1"], "seeds": [2]}}',
                id="rs310-pair",
            ),
            pytest.param(
                "fz4144", "B2",
                _patch(valq.verify, "is_acyclic", lambda b: False),
                "fz4144                 B2       FAIL exhaustive  no acyclic seed found (initial seed should qualify)",
                '{"check": "fz4144", "target": {"name": "B2", "B": [[0, 1], [-2, 0]]}, "scope": "exhaustive", "status": "FAIL", "detail": "no acyclic seed found (initial seed should qualify)",'
                ' "counterexample": {"B": [[0, 1], [-2, 0]], "rng_seed": 0, "primes": [2, 3, 5, 7, 11, 13, 17]}}',
                id="fz4144-none",
            ),
            pytest.param(
                "fz4144", "B2",
                _patch(valq.verify, "subgraph_is_connected", lambda result, nodes: False),
                "fz4144                 B2       FAIL exhaustive  acyclic-matrix seeds are disconnected",
                '{"check": "fz4144", "target": {"name": "B2", "B": [[0, 1], [-2, 0]]}, "scope": "exhaustive", "status": "FAIL", "detail": "acyclic-matrix seeds are disconnected",'
                ' "counterexample": {"B": [[0, 1], [-2, 0]], "rng_seed": 0, "primes": [2, 3, 5, 7, 11, 13, 17], "seeds": [0, 1, 2, 3, 4, 5]}}',
                id="fz4144-disconnected",
            ),
            pytest.param(
                "characters", "B2",
                _shallow_classical_graph,
                "characters             B2       FAIL exhaustive  quantum and commutative exchange graphs differ",
                '{"check": "characters", "target": {"name": "B2", "B": [[0, 1], [-2, 0]]}, "scope": "exhaustive", "status": "FAIL", "detail": "quantum and commutative exchange graphs differ",'
                ' "counterexample": {"B": [[0, 1], [-2, 0]], "rng_seed": 0, "primes": [2, 3, 5, 7, 11, 13, 17]}}',
                id="characters-graphs",
            ),
            pytest.param(
                "characters", "B2",
                _patch(QTorusElem, "specialize_q1", lambda self: None),
                "characters             B2       FAIL exhaustive  u=1 specialization disagrees with the commutative engine",
                '{"check": "characters", "target": {"name": "B2", "B": [[0, 1], [-2, 0]]}, "scope": "exhaustive", "status": "FAIL", "detail": "u=1 specialization disagrees with the commutative engine",'
                ' "counterexample": {"B": [[0, 1], [-2, 0]], "rng_seed": 0, "primes": [2, 3, 5, 7, 11, 13, 17], "history": [], "slot": 1}}',
                id="characters-specialization",
            ),
            pytest.param(
                "characters", "B2",
                _patch_context("generic_char", _no_luck),
                "characters             B2       FAIL exhaustive  character construction failed: no luck",
                '{"check": "characters", "target": {"name": "B2", "B": [[0, 1], [-2, 0]]}, "scope": "exhaustive", "status": "FAIL", "detail": "character construction failed: no luck",'
                ' "counterexample": {"B": [[0, 1], [-2, 0]], "rng_seed": 0, "primes": [2, 3, 5, 7, 11, 13, 17], "history": [0], "slot": 1, "d": [1, 0]}}',
                id="characters-construction",
            ),
            pytest.param(
                "characters", "B2",
                _patch_context("generic_char", lambda v: None),
                "characters             B2       FAIL exhaustive  generic character differs from mutated variable",
                '{"check": "characters", "target": {"name": "B2", "B": [[0, 1], [-2, 0]]}, "scope": "exhaustive", "status": "FAIL", "detail": "generic character differs from mutated variable",'
                ' "counterexample": {"B": [[0, 1], [-2, 0]], "rng_seed": 0, "primes": [2, 3, 5, 7, 11, 13, 17], "history": [0], "slot": 1, "d": [1, 0]}}',
                id="characters-differs",
            ),
            pytest.param(
                "reflection", "B2",
                _patch_context("generic_char", _no_luck),
                "reflection             B2       FAIL exhaustive  vertex 1, d=(0, 1): no luck",
                '{"check": "reflection", "target": {"name": "B2", "B": [[0, 1], [-2, 0]]}, "scope": "exhaustive", "status": "FAIL", "detail": "vertex 1, d=(0, 1): no luck",'
                ' "counterexample": {"B": [[0, 1], [-2, 0]], "rng_seed": 0, "primes": [2, 3, 5, 7, 11, 13, 17], "vertex": 1, "d": [0, 1]}}',
                id="reflection-construction",
            ),
            pytest.param(
                "reflection", "B2",
                _patch(valq.verify, "character_in_seed", lambda seed, v, polys: None),
                "reflection             B2       FAIL exhaustive  reflected character differs at vertex 1",
                '{"check": "reflection", "target": {"name": "B2", "B": [[0, 1], [-2, 0]]}, "scope": "exhaustive", "status": "FAIL", "detail": "reflected character differs at vertex 1",'
                ' "counterexample": {"B": [[0, 1], [-2, 0]], "rng_seed": 0, "primes": [2, 3, 5, 7, 11, 13, 17], "vertex": 1, "d": [0, 1]}}',
                id="reflection-differs",
            ),
        ],
    )
    def test_payload(self, monkeypatch, check, matrix, patch, row, doc):
        ctx = VerifyContext(builtin_exchange_data(matrix), name=matrix)
        patch(monkeypatch, ctx)
        r = run_check(check, ctx)
        assert r.row() == row
        assert json.dumps(r.to_dict()) == doc


class TestDrawsExhausted:
    """Spending the rigid-search draws is running out of a budget: the
    checks say SKIPPED, and ``char`` exits 2 as on any NoRigidFound."""

    @staticmethod
    def _zero_draws(monkeypatch):
        import valq.reps
        from valq.reps import ValuedRep

        monkeypatch.setattr(
            valq.reps,
            "random_rep",
            lambda quiver, dims, rng: ValuedRep.zero_maps(quiver, dims),
        )

    @pytest.mark.parametrize(
        "check, dims",
        [("denominators", "(1, 2)"), ("characters", "(1, 1)"),
         ("reflection", "(1, 2)")],
    )
    def test_reported_skipped(self, monkeypatch, check, dims):
        self._zero_draws(monkeypatch)
        r = run_check(check, VerifyContext(builtin_exchange_data("B2"), name="B2"))
        assert r.status == SKIPPED
        assert r.detail == (
            "no rigid representation of dimension %s after 400 draws" % dims
        )
        assert r.counterexample is None

    def test_failed_searches_are_remembered(self, monkeypatch):
        # Each (prime, vector) spends its 400 draws once: (1, 2) fails
        # for denominators and again for reflection, (1, 1) for
        # characters.
        import valq.reps
        from valq.reps import ValuedRep

        draws = []

        def zero_maps(quiver, dims, rng):
            draws.append(dims)
            return ValuedRep.zero_maps(quiver, dims)

        monkeypatch.setattr(valq.reps, "random_rep", zero_maps)
        reports = run_all(VerifyContext(builtin_exchange_data("B2"), name="B2"))
        skipped = {r.check: r.detail for r in reports if r.status == SKIPPED}
        assert skipped == {
            check: "no rigid representation of dimension %s after 400 draws"
            % dims
            for check, dims in [
                ("denominators", "(1, 2)"),
                ("characters", "(1, 1)"),
                ("reflection", "(1, 2)"),
            ]
        }
        assert len(draws) == 800

    def test_char_exits_two(self, monkeypatch):
        self._zero_draws(monkeypatch)
        rc, out, err = run_cli(["char", "--type", "B2", "--dim", "1,1"])
        assert rc == 2 and out == ""
        assert err == (
            "error: no rigid representation of dimension (1, 1) after 400 "
            "draws\n"
        )


class TestZeroItems:
    """With only the initial seed there is nothing to check, and a check
    that checked nothing says SKIPPED, keeping its detail text."""

    ROWS = [
        "denominators           B2       SKIPPED truncated   0 variables checked",
        "tropical               B2       SKIPPED truncated   0 variables checked",
        "sign-coherence         B2       SKIPPED truncated   parts 1,3 and one direction of part 2 on 0 variables (graph truncated)",
        "distinct-d             B2       PASS truncated   6 monomials of degree <= 2, all denominator vectors distinct",
        "d-basis                B2       PASS truncated   determinant +-1 in all 1 seeds",
        "g-formula              B2       SKIPPED truncated   0 variables checked",
        "sink-source-reflection B2       SKIPPED truncated   sinks [1], sources [2], 0 variables matched",
        "principal-source       B2       SKIPPED truncated   source 2: value 1 for 0 variables, y2^-1 at the simple",
        "rs310                  B2       SKIPPED truncated   graph walk truncated; connectedness not decidable",
        "fz4144                 B2       SKIPPED truncated   graph walk truncated; connectedness not decidable",
        "characters             B2       SKIPPED truncated   0 variables matched",
        "reflection             B2       SKIPPED truncated   sinks [1], sources [2], 0 characters matched",
    ]

    def test_single_seed_rows(self):
        rc, out, _ = run_cli(["verify-all", "--type", "B2", "--max-seeds", "1"])
        assert rc == 0
        assert out.splitlines()[:12] == self.ROWS


class TestBudgets:
    CAPPED = ("denominators", "characters", "reflection")

    def test_exhausted_cap_is_skipped(self, ctx_for):
        for r in run_all(ctx_for("B2", cap=1)):
            if r.check in self.CAPPED:
                assert r.status == SKIPPED
                assert r.detail == "field size 2 exceeds cap 1"
                assert r.counterexample is None
            else:
                assert r.status == PASS

    def test_exhausted_cap_exits_zero(self):
        rc, out, err = run_cli(["verify-all", "--type", "B2", "--cap", "1"])
        assert rc == 0 and err == ""
        assert "FAIL" not in out

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--max-seeds", "0", "--max-seeds must be at least 1"),
            ("--cap", "0", "--cap must be at least 1"),
            ("--cap", "-5", "--cap must be at least 1"),
            ("--max-depth", "-1", "--max-depth must be at least 0"),
        ],
    )
    def test_budget_out_of_range(self, flag, value, message):
        for command in (["seeds"], ["verify", "tropical"], ["verify-all"]):
            rc, out, err = run_cli(command + ["--type", "B2", flag, value])
            assert rc == 2 and out == ""
            assert err == "error: %s\n" % message

    def test_smallest_budgets_accepted(self):
        rc, out, _ = run_cli(
            ["seeds", "--type", "B2", "--max-seeds", "1", "--max-depth", "0"]
        )
        assert rc == 0 and out.splitlines()[0] == "1 seeds (truncated)"


class TestPrimesGuard:
    def test_variables_needing_more_primes_are_skipped(self):
        ctx = VerifyContext(
            builtin_exchange_data("G2"), primes=(2, 3), name="G2"
        )
        r = run_check("denominators", ctx)
        assert r.status == PASS
        assert r.detail == "3 variables checked, 3 skipped (need more primes)"

    def test_all_skipped_reports_skipped(self):
        ctx = VerifyContext(builtin_exchange_data("G2"), primes=(), name="G2")
        r = run_check("denominators", ctx)
        assert r.status == SKIPPED


class TestSharedRigidReps:
    def test_each_rigid_rep_is_built_once(self, monkeypatch):
        import valq.verify

        real = valq.verify.build_rigid_rep
        built = []

        def counting(quiver, dims, **kwargs):
            built.append((quiver.p, tuple(dims)))
            return real(quiver, dims, **kwargs)

        monkeypatch.setattr(valq.verify, "build_rigid_rep", counting)
        ctx = VerifyContext(builtin_exchange_data("B2"), name="B2")
        for name in ("denominators", "characters", "reflection"):
            assert run_check(name, ctx).status == PASS
        assert built and len(built) == len(set(built))

    def test_char_builds_through_the_context(self, monkeypatch):
        import valq.verify

        real = valq.verify.build_rigid_rep
        built = []

        def counting(quiver, dims, **kwargs):
            built.append((quiver.p, tuple(dims)))
            return real(quiver, dims, **kwargs)

        monkeypatch.setattr(valq.verify, "build_rigid_rep", counting)
        rc, _, _ = run_cli(["char", "--type", "B2", "--dim", "1,2"])
        assert rc == 0
        assert built == [(p, (1, 2)) for p in (2, 3, 5, 7, 11, 13, 17)]


class TestPrincipalSource:
    def test_non_source_vertex_rejected(self, ctx_for):
        with pytest.raises(ValueError):
            run_check("principal-source", ctx_for("B2"), source=0)

    def test_explicit_source_accepted(self, ctx_for):
        r = run_check("principal-source", ctx_for("B2"), source=1)
        assert r.status == PASS


class TestReportFormatting:
    def test_failure_report_row_and_dict(self):
        r = VerificationReport(
            check="tropical",
            target={"name": None, "B": [[0, 1], [-1, 0]]},
            scope="exhaustive",
            status=FAIL,
            detail="wrong value",
            counterexample={"history": [1], "d": [1, 0]},
        )
        assert r.row().startswith("tropical               B=[0, 1][-1, 0] FAIL")
        assert r.to_dict()["counterexample"] == {"history": [1], "d": [1, 0]}


class TestImports:
    def test_a_run_loads_no_unused_module(self):
        # Neither the value classes nor a run without --json or --matrix
        # may load dataclasses (and with it inspect) or json.
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        code = (
            "import sys\n"
            "from valq import cli, verify\n"
            "cli.main(['verify-all', '--type', 'B2'])\n"
            "cli.main(['char', '--type', 'B2', '--dim', '1,1'])\n"
            "print(sorted({'dataclasses', 'inspect', 'json'} & set(sys.modules)))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-S", "-c", code],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=src),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[]"


class TestCliSeeds:
    def test_human_output(self):
        rc, out, _ = run_cli(["seeds", "--type", "A2"])
        assert rc == 0
        assert out.splitlines()[0] == "5 seeds"

    def test_json_output(self):
        rc, out, _ = run_cli(["seeds", "--type", "A2", "--json"])
        doc = json.loads(out)
        assert rc == 0
        assert doc["count"] == 5 and doc["truncated"] is False
        assert len(doc["seeds"]) == 5
        # Histories are reported with 1-based vertices.
        depth_one = [s for s in doc["seeds"] if len(s["history"]) == 1]
        assert sorted(s["history"][0] for s in depth_one) == [1, 2]

    def test_truncated_flag_shown(self):
        rc, out, _ = run_cli(["seeds", "--type", "B3", "--max-seeds", "3"])
        assert rc == 0 and "truncated" in out.splitlines()[0]

    @pytest.mark.parametrize(
        "argv",
        [
            ["seeds"],
            ["verify", "rs310"],
            ["verify-all"],
            ["seeds", "--max-seeds", "3"],
        ],
    )
    def test_infinite_type_needs_max_depth(self, argv):
        rc, out, err = run_cli(argv + ["--type", "WILD3"])
        assert rc == 2 and out == ""
        assert err == (
            "error: WILD3 is of infinite type; give --max-depth to bound the walk\n"
        )

    def test_infinite_type_with_max_depth(self):
        rc, out, err = run_cli(["seeds", "--type", "WILD3", "--max-depth", "4"])
        assert rc == 0 and err == ""
        assert out.splitlines()[0] == "29 seeds (truncated)"


class TestGoldenDocuments:
    @pytest.mark.parametrize(
        "name, argv",
        [
            ("seeds-b3.json", ["seeds", "--type", "B3", "--json"]),
            (
                "wild3-characters.json",
                ["verify", "characters", "--type", "WILD3",
                 "--primes", "2,3,5,7,11", "--max-depth", "4", "--json"],
            ),
            (
                "seeds-wild3-depth4.json",
                ["seeds", "--type", "WILD3", "--max-depth", "4", "--json"],
            ),
            (
                "seeds-b3-max7.json",
                ["seeds", "--type", "B3", "--max-seeds", "7", "--json"],
            ),
            (
                "g2-verify-all.json",
                ["verify-all", "--type", "G2",
                 "--primes", "2,3,5,7,11,13,17", "--max-depth", "16",
                 "--json"],
            ),
            (
                "b3-verify-all.json",
                ["verify-all", "--type", "B3",
                 "--primes", "2,3,5,7,11,13,17", "--max-depth", "16",
                 "--json"],
            ),
            (
                "char-g2-2-3.json",
                ["char", "--type", "G2", "--dim", "2,3", "--json"],
            ),
            (
                "char-b3-1-2-2.json",
                ["char", "--type", "B3", "--dim", "1,2,2", "--json"],
            ),
        ],
    )
    def test_output_is_the_committed_document(self, name, argv):
        rc, out, err = run_cli(argv)
        assert rc == 0 and err == ""
        assert out == (GOLDEN / name).read_text()


class TestCliMutate:
    def test_two_step_mutation(self):
        rc, out, _ = run_cli(["mutate", "--type", "B2", "--seq", "1,2", "--json"])
        doc = json.loads(out)
        assert rc == 0
        assert doc["history"] == [1, 2]
        assert doc["d_vectors"] == [[1, 0], [1, 1]]
        # Two alternating steps bring the rank-2 matrix back to itself.
        assert doc["B"] == [[0, 1], [-2, 0]]

    def test_human_lines(self):
        rc, out, _ = run_cli(["mutate", "--type", "B2", "--seq", "1"])
        assert rc == 0
        assert out.splitlines()[0] == "x1 = x1^-1*x2^2 + x1^-1*y1"


class TestCliChar:
    def test_json_table(self):
        rc, out, _ = run_cli(["char", "--type", "B2", "--dim", "1,1", "--json"])
        doc = json.loads(out)
        assert rc == 0
        assert doc["v"] == [1, 1]
        assert doc["P"] == {"0,0": [1], "1,0": [1], "1,1": [1]}
        assert doc["F"] == "y1*y2 + y1 + 1"
        assert doc["g"] == [-1, 1] and doc["d"] == [1, 1]
        assert doc["X_v"] == "X^(0,-1,1,1) + X^(-1,1,0,0) + X^(-1,-1,1,0)"

    def test_quantized_coefficient(self):
        rc, out, _ = run_cli(["char", "--type", "B2", "--dim", "1,2", "--json"])
        doc = json.loads(out)
        assert rc == 0
        assert doc["P"]["1,1"] == [1, 1]
        coeffs = {tuple(exp): c for exp, c in doc["X_v_terms"]}
        assert "u + u^-1" in coeffs.values()

    def test_human_output(self):
        rc, out, _ = run_cli(["char", "--type", "B2", "--dim", "1,1"])
        assert rc == 0
        assert "F = y1*y2 + y1 + 1" in out
        assert "d = [1, 1]" in out

    def test_deterministic(self):
        first = run_cli(["char", "--type", "G2", "--dim", "1,1", "--json"])
        second = run_cli(["char", "--type", "G2", "--dim", "1,1", "--json"])
        assert first == second

    @pytest.mark.parametrize(
        "name,dim,table",
        [
            ("G2", "1,2", CHAR_G2_12),
            ("G2", "2,3", CHAR_G2_23),
            ("B3", "1,1,1", CHAR_B3_111),
        ],
    )
    def test_golden_json(self, name, dim, table):
        rc, out, err = run_cli(["char", "--type", name, "--dim", dim, "--json"])
        assert rc == 0 and err == ""
        assert out == json.dumps(table, indent=2) + "\n"


class TestCliVerify:
    def test_single_check(self):
        rc, out, _ = run_cli(["verify", "denominators", "--type", "B2"])
        assert rc == 0
        assert out.rstrip() == B2_ROWS[0]

    def test_single_check_json(self):
        rc, out, _ = run_cli(["verify", "d-basis", "--type", "A3", "--json"])
        doc = json.loads(out)
        assert rc == 0
        (report,) = doc["reports"]
        assert report["status"] == "PASS"
        assert report["detail"] == "determinant +-1 in all 14 seeds"

    def test_verify_all_human(self):
        rc, out, _ = run_cli(["verify-all", "--type", "B2"])
        lines = out.splitlines()
        assert rc == 0
        assert lines[:12] == B2_ROWS
        assert lines[12].startswith("note: further denominator corollaries")

    def test_verify_all_json(self):
        rc, out, _ = run_cli(["verify-all", "--type", "A2", "--json"])
        doc = json.loads(out)
        assert rc == 0
        assert [r["check"] for r in doc["reports"]] == list(ALL_CHECKS)
        assert all(r["status"] == "PASS" for r in doc["reports"])
        assert doc["note"].startswith("further denominator corollaries")

    def test_truncated_run_still_exits_zero(self):
        rc, out, _ = run_cli(
            ["verify", "rs310", "--type", "WILD3", "--max-depth", "3"]
        )
        assert rc == 0 and "SKIPPED" in out

    def test_primes_option_forwarded(self):
        rc, out, _ = run_cli(
            ["verify", "denominators", "--type", "G2", "--primes", "2,3"]
        )
        assert rc == 0 and "3 skipped (need more primes)" in out

    def test_failure_exit_code(self, monkeypatch):
        fake = VerificationReport(
            check="tropical",
            target={"name": "B2", "B": [[0, 1], [-2, 0]]},
            scope="exhaustive",
            status=FAIL,
            detail="forced failure",
        )
        monkeypatch.setattr(cli, "run_check", lambda *a, **k: fake)
        rc, out, _ = run_cli(["verify", "tropical", "--type", "B2"])
        assert rc == 1 and "FAIL" in out
        monkeypatch.setattr(cli, "run_all", lambda ctx: [fake])
        rc, out, _ = run_cli(["verify-all", "--type", "B2"])
        assert rc == 1


class TestCliErrors:
    def test_missing_input(self):
        rc, _, err = run_cli(["seeds"])
        assert rc == 2 and "need --matrix FILE or --type NAME" in err

    def test_unknown_type(self):
        rc, _, err = run_cli(["seeds", "--type", "E8"])
        assert rc == 2 and "unknown type" in err

    def test_both_inputs_rejected(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"B": [[0, 1], [-1, 0]]}))
        rc, _, err = run_cli(["seeds", "--type", "A2", "--matrix", str(path)])
        assert rc == 2

    def test_cyclic_matrix(self, tmp_path):
        path = tmp_path / "cyclic.json"
        path.write_text(
            json.dumps({"B": [[0, 1, -1], [-1, 0, 1], [1, -1, 0]]})
        )
        rc, _, err = run_cli(["seeds", "--matrix", str(path)])
        assert rc == 2 and "cycle" in err

    def test_matrix_file_accepted(self, tmp_path):
        path = tmp_path / "b2.json"
        path.write_text(
            json.dumps(
                {"B": [[0, 1], [-2, 0]], "D": [2, 1], "Lambda0": [[0, 0], [0, 0]]}
            )
        )
        rc, out, _ = run_cli(["seeds", "--matrix", str(path), "--json"])
        assert rc == 0 and json.loads(out)["count"] == 6

    def test_matrix_file_without_b(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"D": [1, 1]}))
        rc, _, err = run_cli(["seeds", "--matrix", str(path)])
        assert rc == 2

    def test_missing_matrix_file(self, tmp_path):
        missing = str(tmp_path / "absent.json")
        rc, _, err = run_cli(["seeds", "--matrix", missing])
        assert rc == 2
        assert err == "error: cannot read --matrix %s: No such file or directory\n" % missing

    def test_closed_stdout_is_not_an_input_error(self):
        # The reader is gone before the first write, as with ``| head``
        # once head has its line.
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.Popen(
            [sys.executable, "-m", "valq.cli", "seeds", "--type", "G2", "--json"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait() == cli.EXIT_BROKEN_PIPE
        assert err == b""

    def test_duplicate_primes_in_char(self):
        rc, out, err = run_cli(
            ["char", "--type", "G2", "--dim", "1,2",
             "--primes", "2,2,3,5,7,11,13,17"]
        )
        assert rc == 2 and out == ""
        assert err == "error: --primes lists 2 more than once\n"

    def test_duplicate_primes_in_verify(self):
        rc, out, err = run_cli(
            ["verify", "denominators", "--type", "B2",
             "--primes", "2,3,3,5,7,11,13"]
        )
        assert rc == 2 and out == ""
        assert err == "error: --primes lists 3 more than once\n"

    def test_exponent_overflow(self, tmp_path):
        # The second step raises x1' = (y1 + x2)/x1 to the power 70000,
        # whose exponents the packed keys cannot hold.
        path = tmp_path / "steep.json"
        path.write_text(json.dumps({"B": [[0, 70000], [-1, 0]]}))
        rc, out, err = run_cli(["mutate", "--matrix", str(path), "--seq", "1,2,1"])
        assert rc == 2 and out == ""
        assert err == (
            "error: exponents up to 70000 leave the packed range of +-8191\n"
        )

    def test_bad_sequence_entry(self):
        rc, _, err = run_cli(["mutate", "--type", "B2", "--seq", "0,1"])
        assert rc == 2 and "--seq entries must lie in 1..2" in err

    def test_no_rigid_representation_fails_fast(self, tmp_path, monkeypatch):
        import valq.reps

        def no_draws(*args):
            raise AssertionError("random_rep was called")

        monkeypatch.setattr(valq.reps, "random_rep", no_draws)
        path = tmp_path / "kronecker.json"
        path.write_text(json.dumps({"B": [[0, 2, 0], [-2, 0, 1], [0, -1, 0]]}))
        rc, out, err = run_cli(["char", "--matrix", str(path), "--dim", "1,1,0"])
        assert rc == 2 and out == ""
        assert err.count("\n") == 1 and "Euler form" in err

    def test_too_few_primes_for_char(self, monkeypatch):
        import valq.verify

        def no_builds(*args, **kwargs):
            raise AssertionError("a rigid representation was built")

        monkeypatch.setattr(valq.verify, "build_rigid_rep", no_builds)
        rc, out, err = run_cli(
            ["char", "--type", "G2", "--dim", "2,3", "--primes", "2,3,5"]
        )
        assert rc == 2 and out == ""
        assert err == "error: --dim 2,3 needs 7 primes, --primes gives 3\n"

    def test_huge_dimension_is_rejected_at_once(self):
        # 10^6 per entry: a scan of the box 0 <= e <= v would never end.
        began = time.process_time()
        rc, out, err = run_cli(
            ["char", "--type", "B3", "--dim", "1000000,1000000,1000000"]
        )
        assert time.process_time() - began < 1
        assert rc == 2 and out == ""
        assert err == (
            "error: --dim 1000000,1000000,1000000 needs 1250000000002 primes,"
            " --primes gives 7\n"
        )

    def test_bad_dimension_length(self):
        rc, _, err = run_cli(["char", "--type", "B2", "--dim", "1,1,1"])
        assert rc == 2

    def test_source_must_be_a_source(self):
        rc, _, err = run_cli(
            ["verify", "principal-source", "--type", "B2", "--source", "1"]
        )
        assert rc == 2 and "not a source" in err

    def test_source_on_another_check(self):
        rc, out, err = run_cli(["verify", "tropical", "--type", "B3", "--source", "2"])
        assert rc == 2 and out == ""
        assert err == "error: --source applies only to principal-source\n"

    def test_source_out_of_range(self):
        rc, _, err = run_cli(
            ["verify", "principal-source", "--type", "B2", "--source", "5"]
        )
        assert rc == 2

    def test_unknown_check_is_a_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            run_cli(["verify", "nonsense", "--type", "B2"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "content, message",
        [
            (b'{"B": 5}', "B must be a nonempty list of equal-length rows of integers"),
            (b'{"B": []}', "B must be a nonempty list of equal-length rows of integers"),
            (b'{"B": [[0, 1, 0], [-1, 0]]}', "B must be a nonempty list of equal-length rows of integers"),
            (b'{"B": [[0, "a"], [-1, 0]]}', "B must be a nonempty list of equal-length rows of integers"),
            (b'{"B": [[0, 1.5], [-1, 0]]}', "B must be a nonempty list of equal-length rows of integers"),
            (b'{"B": [[0, "1"], [-1, 0]]}', "B must be a nonempty list of equal-length rows of integers"),
            (b'{"B": [[0, 1], [-2, 0]], "D": 3}', "D must be a list of integers"),
            (b'{"B": [[0, 1], [-2, 0]], "D": [2, true]}', "D must be a list of integers"),
            (b'{"B": [[0, 1], [-2, 0]], "Lambda0": [[0, 1], [-1]]}', "Lambda0 must be a nonempty list of equal-length rows of integers"),
        ],
    )
    def test_malformed_matrix_file(self, tmp_path, content, message):
        path = tmp_path / "m.json"
        path.write_bytes(content)
        rc, out, err = run_cli(["seeds", "--matrix", str(path)])
        assert rc == 2 and out == ""
        assert err == "error: --matrix %s: %s\n" % (path, message)

    @pytest.mark.parametrize(
        "content, message",
        [
            (b'{"B": [[0, 1], [-2, 0]], "Lambda0": [[0, 1, 0], [-1, 0, 0], [0, 0, 0]]}', "base form must be 2 x 2"),
            (b'{"B": [[0, 1], [-2, 0]', "cannot parse --matrix"),
            (b'\xff\xfe{"B"', "cannot parse --matrix"),
        ],
    )
    def test_unusable_matrix_file(self, tmp_path, content, message):
        path = tmp_path / "m.json"
        path.write_bytes(content)
        rc, out, err = run_cli(["seeds", "--matrix", str(path)])
        assert rc == 2 and out == ""
        assert err.startswith("error: %s" % message) and err.count("\n") == 1

    @pytest.mark.parametrize(
        "diag, message",
        [
            ([2], "D has 1 entry, B has 2 rows"),
            ([2, 1, 1], "D has 3 entries, B has 2 rows"),
            ([1, 1], "d_1*b_1,2 != -d_2*b_2,1"),
        ],
    )
    def test_symmetrizer_that_does_not_fit(self, tmp_path, diag, message):
        # vertices are numbered from 1, as on the rest of the command line
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"B": [[0, 1], [-2, 0]], "D": diag}))
        rc, out, err = run_cli(["seeds", "--matrix", str(path)])
        assert rc == 2 and out == ""
        assert err == "error: %s\n" % message

    @pytest.mark.parametrize(
        "b, message",
        [
            ([[0, 1], [1, 0]], "b_1,2 and b_2,1 have the same sign"),
            ([[0, 1], [0, 0]], "b_1,2 and b_2,1 do not vanish together"),
        ],
    )
    def test_matrix_that_no_diagonal_symmetrizes(self, tmp_path, b, message):
        # vertices are numbered from 1, as on the rest of the command line
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"B": b}))
        rc, out, err = run_cli(["seeds", "--matrix", str(path)])
        assert rc == 2 and out == ""
        assert err == "error: %s\n" % message

    @pytest.mark.parametrize("exc", [ValueError("bug"), KeyError("bug")])
    def test_plain_errors_inside_a_command_propagate(self, monkeypatch, exc):
        # Only the listed input errors exit 2; a bare ValueError or
        # KeyError from a command is a bug, not bad input.
        def broken(*args, **kwargs):
            raise exc

        monkeypatch.setattr(cli, "run_check", broken)
        with pytest.raises(type(exc), match="bug"):
            run_cli(["verify", "tropical", "--type", "B2"])
        monkeypatch.setattr(cli, "enumerate_exchange_graph", broken)
        with pytest.raises(type(exc), match="bug"):
            run_cli(["seeds", "--type", "B2"])

    def test_nonprime_in_primes_list(self):
        rc, _, err = run_cli(
            ["verify", "denominators", "--type", "B2", "--primes", "2,4"]
        )
        assert rc == 2


class TestCliFuzz:
    COMMANDS = [
        ["seeds", "--max-depth", "2"],
        ["mutate", "--seq", "1,2,3"],
        ["verify-all", "--max-depth", "2", "--primes", "2,3"],
        ["char", "--dim", "1,1,0", "--primes", "2,3,5"],
    ]

    @settings(max_examples=30, deadline=None)
    @given(acyclic_skew_symmetrizable())
    def test_random_matrices_exit_cleanly(self, tmp_path_factory, b):
        # Every command either works or exits 2 with one line; no
        # exception escapes cli.main.  Every check tests a theorem that
        # holds for all acyclic matrices, so none may report FAIL (exit 1).
        path = tmp_path_factory.getbasetemp() / "fuzz.json"
        path.write_text(json.dumps({"B": [list(row) for row in b]}))
        for argv in self.COMMANDS:
            rc, _, err = run_cli(argv + ["--matrix", str(path)])
            assert rc in (0, 2)
            if rc == 2:
                assert err.startswith("error: ") and err.count("\n") == 1


def _relabeled(b, sigma):
    """The matrix of b with vertex i renamed sigma[i]."""
    n = len(b)
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            out[sigma[i]][sigma[j]] = b[i][j]
    return out


class TestRelabeling:
    """Renaming the vertices changes nothing mathematical: not the
    exchange graph, not its d-vectors up to the renaming, and not a
    verify-all row up to the vertex numbers it names."""

    # Vertex numbers in a detail: in the bracketed sink and source
    # lists, and after "source" or "y".
    VERTEX = re.compile(r"(?<=source )\d+|(?<=y)\d+|\d+(?=[\d, ]*\])")

    def _summary(self, b, max_depth):
        ctx = VerifyContext(
            build_exchange_data(b), primes=(2, 3), max_depth=max_depth
        )
        graph = ctx.classical_graph()
        dvecs = {seed.d_vector(i) for seed in graph.seeds for i in range(len(b))}
        rows = [
            (r.check, r.status, r.scope, self.VERTEX.sub("#", r.detail))
            for r in run_all(ctx)
        ]
        return len(graph.seeds), graph.truncated, dvecs, rows

    # A random matrix is walked to depth 2 only: on a wild one a third
    # quantum mutation, which the characters check makes, can take
    # minutes.
    @settings(max_examples=10, deadline=None)
    @given(st.data())
    def test_relabeled_runs_agree(self, data):
        b, max_depth = data.draw(
            st.one_of(
                st.sampled_from(
                    [BUILTIN_MATRICES[name] for name in ("B2", "G2", "B3")]
                ).map(lambda b: (b, 3)),
                acyclic_skew_symmetrizable().map(lambda b: (b, 2)),
            )
        )
        n = len(b)
        sigma = data.draw(st.permutations(range(n)))
        size, truncated, dvecs, rows = self._summary(b, max_depth)
        renamed = {tuple(d[sigma.index(j)] for j in range(n)) for d in dvecs}
        assert self._summary(_relabeled(b, sigma), max_depth) == (
            size,
            truncated,
            renamed,
            rows,
        )


class TestCharRelabeling:
    """``char --dim sigma(v)`` on the relabeled matrix is ``char --dim
    v`` renamed: its counting polynomials under permuted keys, its g- and
    d-vectors permuted.  Relabeling changes the topological order and the
    walk planner's choices, so this cross-checks subrepresentation
    counting under different vertex orders."""

    PRIMES = "2,3,5,7,11,13,17"

    def _char(self, path, b, v):
        path.write_text(json.dumps({"B": [list(row) for row in b]}))
        rc, out, err = run_cli(
            ["char", "--matrix", str(path), "--json", "--primes", self.PRIMES]
            + ["--dim", ",".join(str(x) for x in v)]
        )
        assert rc == 0, err
        return json.loads(out)

    # Builtins are walked whole; a random matrix to depth 2, whose
    # d-vectors already reach more than the seven primes can count.
    @settings(max_examples=10, deadline=None)
    @given(st.data())
    def test_relabeled_characters_agree(self, tmp_path_factory, data):
        b, max_depth = data.draw(
            st.one_of(
                st.sampled_from(
                    [BUILTIN_MATRICES[name] for name in ("B2", "G2", "B3")]
                ).map(lambda b: (b, None)),
                acyclic_skew_symmetrizable().map(lambda b: (b, 2)),
            )
        )
        n = len(b)
        exchange = build_exchange_data(b)
        graph = enumerate_exchange_graph(exchange, max_depth=max_depth)
        budget = len(self.PRIMES.split(","))
        dvecs = sorted(
            d
            for d in {seed.d_vector(i) for seed in graph.seeds for i in range(n)}
            if min(d) >= 0 and primes_needed(exchange.diag, d) <= budget
        )
        v = data.draw(st.sampled_from(dvecs))
        sigma = data.draw(st.permutations(range(n)))

        def renamed(x):
            return [x[sigma.index(j)] for j in range(n)]

        def renamed_key(e):
            return ",".join(renamed(e.split(",")))

        path = tmp_path_factory.getbasetemp() / "relabeled.json"
        table = self._char(path, b, v)
        other = self._char(path, _relabeled(b, sigma), renamed(v))
        assert other["P"] == {
            renamed_key(e): poly for e, poly in table["P"].items()
        }
        assert other["g"] == renamed(table["g"])
        assert other["d"] == renamed(table["d"])
