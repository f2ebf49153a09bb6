"""Named verification suites over one exchange input.

Every suite replays a structural claim about an acyclic skew-symmetrizable
exchange matrix by explicit computation: the exchange graph is enumerated
(exhaustively when it closes, to a depth/seed budget otherwise), every
cluster variable is expanded exactly, and the representation-theoretic
side is recomputed from scratch over finite fields.  Results come back as
``VerificationReport`` records; a FAIL always carries enough data to
replay the counterexample (matrix, mutation path, rng seed, primes).

Graph-global claims (connectedness of induced subgraphs) are reported as
SKIPPED when the walk was truncated, since a truncated graph can neither
confirm nor refute them.  Per-variable claims still run on whatever
variables were reached, with the truncation recorded in the scope field.

A check returns ``(detail, items, truncated)``, or raises ``_Stop`` to
end early with another status.  ``run_check`` builds every report from
that: PASS when ``items`` is positive, SKIPPED when the check counted no
item, since then it neither confirms nor refutes its claim.  Running out
of a budget (the field-size cap, the rigid-search draws) stops a check
as SKIPPED, never as FAIL.
"""

from .characters import (
    DEFAULT_PRIMES,
    character_in_seed,
    counting_polynomials,
    generic_character,
    InterpolationInconsistent,
)
from .classical import (
    ClassicalSeed,
    cluster_variable_index,
    enumerate_exchange_graph,
    g_from_d,
    subgraph_is_connected,
    variable_f_polynomial,
    variable_g_vector,
)
from .exchange import build_exchange_data, is_acyclic, sinks_and_sources
from .finfield import DEFAULT_CAP, CapExceeded
from .laurent import LaurentPoly, tropical_evaluate
from .matrices import det
from .qtorus import QuantumSeed, enumerate_quantum_seeds, walk_seeds
from .record import FrozenRecord, Record
from .reps import (
    DrawsExhausted,
    HasSimpleSummand,
    NoRigidFound,
    NotSinkOrSource,
    ValuedQuiver,
    build_rigid_rep,
    reflect,
    simple_reflection,
)

PASS = "PASS"
FAIL = "FAIL"
SKIPPED = "SKIPPED"

# Detail of a connectedness check on a truncated graph.
_UNDECIDABLE = "graph walk truncated; connectedness not decidable"

# Exceptions that a per-variable computation may raise without it being a
# programming error; they become FAIL reports with the message attached.
_CHECK_ERRORS = (
    NoRigidFound,
    HasSimpleSummand,
    InterpolationInconsistent,
)

# Running out of a budget (the --cap size, the rigid-search draws) says
# nothing about the claim, so the check reports SKIPPED instead.  Caught
# before _CHECK_ERRORS, which holds the base class of DrawsExhausted.
_BUDGET_ERRORS = (CapExceeded, DrawsExhausted)


class VerificationReport(Record):
    """Outcome of one named check on one input."""

    __slots__ = _fields = (
        "check",
        "target",
        "scope",
        "status",
        "detail",
        "counterexample",
    )

    def __init__(
        self, check, target, scope, status, detail="", counterexample=None
    ):
        self.check = check
        self.target = target
        self.scope = scope
        self.status = status
        self.detail = detail
        self.counterexample = counterexample

    def row(self):
        name = self.target.get("name") or "B=%s" % (
            "".join(str(list(r)) for r in self.target["B"])
        )
        return "%-22s %-8s %-4s %-11s %s" % (
            self.check,
            name,
            self.status,
            self.scope,
            self.detail,
        )

    def to_dict(self):
        """The fields in order, without a None counterexample."""
        out = {name: getattr(self, name) for name in self._fields}
        if self.counterexample is None:
            del out["counterexample"]
        return out


class VerifyContext:
    """Shared state for one verification run: the input, the budgets, and
    lazily built exchange graphs, one quiver per prime, rigid
    representations keyed by prime and dimension vector, and characters
    keyed by dimension vector."""

    def __init__(
        self,
        data,
        primes=DEFAULT_PRIMES,
        rng_seed=0,
        cap=DEFAULT_CAP,
        max_depth=None,
        max_seeds=10000,
        name=None,
    ):
        self.data = data
        self.primes = tuple(primes)
        self.rng_seed = int(rng_seed)
        self.cap = int(cap)
        self.max_depth = max_depth
        self.max_seeds = max_seeds
        self.name = name
        self._classical = None
        self._quantum_seed = None
        self._quantum = None
        self._variables = None
        self._quivers = {}
        self._rigid = {}
        self._chars = {}

    @property
    def n(self):
        return self.data.n

    @property
    def b(self):
        return self.data.principal()

    def classical_graph(self):
        if self._classical is None:
            self._classical = enumerate_exchange_graph(
                self.data, max_depth=self.max_depth, max_seeds=self.max_seeds
            )
        return self._classical

    def quantum_seed(self):
        """The initial quantum seed, built once.  Every seed mutated from
        it shares its ``exchanges`` memo, so the quantum walk and the
        mutations of the ``reflection`` check make each exchange once,
        and that check builds no walk of its own.  Generic characters are
        assembled in it, so they share its frame monomials."""
        if self._quantum_seed is None:
            self._quantum_seed = QuantumSeed.initial_seed(self.data)
        return self._quantum_seed

    def quantum_graph(self):
        if self._quantum is None:
            self._quantum = enumerate_quantum_seeds(
                self.data,
                max_depth=self.max_depth,
                max_seeds=self.max_seeds,
                start=self.quantum_seed(),
            )
        return self._quantum

    def rigid_rep(self, p, v):
        """The rigid representation of dimension v over the prime field
        with p elements, built once and shared by every check.  A search
        that found none is not repeated: its ``NoRigidFound`` is kept
        and raised again.  The representations over one prime share one
        quiver, so its opposite and reflections are built once."""
        key = (p, tuple(v))
        if key not in self._rigid:
            quiver = self._quivers.get(p)
            if quiver is None:
                quiver = self._quivers[p] = ValuedQuiver.from_matrix(
                    self.b, self.data.diag, p, cap=self.cap
                )
            try:
                self._rigid[key] = build_rigid_rep(
                    quiver, key[1], rng_seed=self.rng_seed
                )
            except NoRigidFound as exc:
                self._rigid[key] = exc
        found = self._rigid[key]
        if isinstance(found, NoRigidFound):
            raise found.with_traceback(None)
        return found

    def rigid_reps(self, v):
        """The rigid representations of dimension v, one per prime in
        the order of ``primes``."""
        return [self.rigid_rep(p, v) for p in self.primes]

    def generic_char(self, v):
        v = tuple(v)
        if v not in self._chars:
            self._chars[v] = generic_character(
                self.quantum_seed(), self.rigid_reps(v)
            )
        return self._chars[v]

    def variable_records(self):
        """Distinct non-initial mutable variables of the classical graph.

        Each record carries the expanded polynomial, the denominator
        vectors observed at every seat, the seed indices holding the
        variable, and the shortest (history, slot) route to it.
        """
        if self._variables is not None:
            return self._variables
        result = self.classical_graph()
        n = self.n
        initial = {
            LaurentPoly.variable(2 * n, i): i for i in range(n)
        }
        records = {}
        for idx, seed in enumerate(result.seeds):
            for i in range(n):
                poly = seed.variables[i]
                if poly in initial:
                    continue
                rec = records.get(poly)
                if rec is None:
                    rec = {
                        "poly": poly,
                        "route": (seed.history, i),
                        "where": set(),
                        "dvecs": set(),
                    }
                    records[poly] = rec
                rec["where"].add(idx)
                rec["dvecs"].add(seed.d_vector(i))
        out = sorted(
            records.values(),
            key=lambda r: (len(r["route"][0]), r["poly"].render()),
        )
        for rec in out:
            rec["d"] = min(rec["dvecs"])
        self._variables = out
        return out


def primes_needed(diag, v):
    """Smallest prime-list length able to pin down and cross-validate all
    counting polynomials for the nonnegative dimension vector v: the
    largest ``dimension_bound`` over 0 <= e <= v, plus 2.  Each term
    d x (v - x) of that bound peaks at x = v // 2, at d * (v^2 // 4)."""
    return sum(d * (x * x // 4) for d, x in zip(diag, v)) + 2


def _vertex_lists(sinks, sources):
    return "sinks %s, sources %s" % (
        [k + 1 for k in sinks],
        [k + 1 for k in sources],
    )


class _Stop(Exception):
    """Ends a check early with a status, a detail and a truncation flag;
    a FAIL adds ``extra`` to the replay data of its counterexample."""

    def __init__(self, status, detail, truncated, **extra):
        super().__init__(status, detail, truncated)
        self.extra = extra


def _at(rec, **extra):
    """The route and denominator vector of a variable record, then extra."""
    return dict(history=list(rec["route"][0]), d=list(rec["d"]), **extra)


def _built(truncated, build, failure, **extra):
    """``build()``, stopping the check when the construction cannot
    finish: SKIPPED on a spent budget, FAIL with ``failure`` followed by
    the error otherwise."""
    try:
        return build()
    except _BUDGET_ERRORS as exc:
        raise _Stop(SKIPPED, str(exc), truncated)
    except _CHECK_ERRORS as exc:
        raise _Stop(FAIL, "%s%s" % (failure, exc), truncated, **extra)


def _too_few_primes(ctx, *vectors):
    """Whether a vector among ``vectors`` needs more primes than ctx has."""
    need = max(primes_needed(ctx.data.diag, v) for v in vectors)
    return need > len(ctx.primes)


def _with_skipped(detail, skipped):
    if skipped:
        detail += ", %d skipped (need more primes)" % skipped
    return detail


def check_denominators(ctx):
    """Each non-initial variable's denominator vector is the dimension
    vector of a rigid representation whose generic character expands to
    that same variable."""
    records = ctx.variable_records()
    truncated = ctx.classical_graph().truncated
    skipped = 0
    for rec in records:
        v = rec["d"]
        if any(x < 0 for x in v):
            raise _Stop(
                FAIL, "negative denominator entry", truncated, **_at(rec)
            )
        if _too_few_primes(ctx, v):
            skipped += 1
            continue
        x_v = _built(
            truncated,
            lambda: ctx.generic_char(v),
            "character construction failed: ",
            **_at(rec),
        )
        dd = x_v.denominator_vector(ctx.n)
        if dd != v or x_v.specialize_q1() != rec["poly"]:
            raise _Stop(
                FAIL,
                "denominator vector differs from dimension vector",
                truncated,
                **_at(rec, character_denominator=list(dd)),
            )
    checked = len(records) - skipped
    detail = _with_skipped("%d variables checked" % checked, skipped)
    return detail, checked, truncated


def check_tropical(ctx):
    """Min-plus evaluation of each frozen polynomial at inverted frozen
    variables lands on the negated denominator vector."""
    n = ctx.n
    records = ctx.variable_records()
    truncated = ctx.classical_graph().truncated
    inverted = [
        tuple(-1 if j == i else 0 for j in range(n)) for i in range(n)
    ]
    for rec in records:
        f = variable_f_polynomial(rec["poly"], n)
        got = tropical_evaluate(f, inverted)
        want = tuple(-x for x in rec["d"])
        if got != want:
            raise _Stop(
                FAIL,
                "tropical degree %s, expected %s" % (got, want),
                truncated,
                **_at(rec),
            )
    return "%d variables checked" % len(records), len(records), truncated


def check_sign_coherence(ctx):
    """Three statements about denominator vectors: non-initial ones are
    nonnegative; a zero entry at i means the variable shares a seed with
    initial variable i (and conversely, on a closed graph); the vector
    does not depend on which seed the variable sits in."""
    n = ctx.n
    result = ctx.classical_graph()
    records = ctx.variable_records()
    truncated = result.truncated
    initial = {LaurentPoly.variable(2 * n, i): i for i in range(n)}
    present = []
    for seed in result.seeds:
        present.append(
            {initial[p] for p in seed.variables[:n] if p in initial}
        )
    for rec in records:
        v = rec["d"]
        if any(x < 0 for x in v):
            raise _Stop(
                FAIL,
                "part 1: negative entry in %s" % (v,),
                truncated,
                **_at(rec),
            )
        if len(rec["dvecs"]) != 1:
            raise _Stop(
                FAIL,
                "part 3: seat-dependent denominator vectors %s"
                % sorted(rec["dvecs"]),
                truncated,
                history=list(rec["route"][0]),
            )
        for i in range(n):
            coexists = any(i in present[idx] for idx in rec["where"])
            if coexists and v[i] != 0:
                raise _Stop(
                    FAIL,
                    "part 2: shares a seed with initial %d but d_%d=%d"
                    % (i + 1, i + 1, v[i]),
                    truncated,
                    **_at(rec),
                )
            if not truncated and v[i] == 0 and not coexists:
                raise _Stop(
                    FAIL,
                    "part 2: d_%d=0 but no common seed with initial %d"
                    % (i + 1, i + 1),
                    truncated,
                    **_at(rec),
                )
    detail = "parts 1-3 on %d variables" % len(records)
    if truncated:
        detail = (
            "parts 1,3 and one direction of part 2 on %d variables "
            "(graph truncated)" % len(records)
        )
    return detail, len(records), truncated


def check_distinct_d(ctx):
    """Distinct cluster monomials of degree at most two have distinct
    denominator vectors.  Monomials are formed inside single seeds; the
    product polynomials are expanded exactly, so no additivity assumption
    enters."""
    n = ctx.n
    result = ctx.classical_graph()
    truncated = result.truncated
    by_key = {}
    by_d = {}
    one = LaurentPoly.one(2 * n)
    for seed in result.seeds:
        choices = [()]
        choices += [(i,) for i in range(n)]
        choices += [
            (i, j) for i in range(n) for j in range(i, n)
        ]
        for picks in choices:
            mono = [seed.variables[i] for i in picks]
            key = tuple(sorted(mono, key=LaurentPoly.sort_key))
            if key in by_key:
                continue
            prod = one
            for var in mono:
                prod = prod * var
            d = prod.denominator_vector(upto=n)
            by_key[key] = d
            other = by_d.get(d)
            if other is not None and other != key:
                raise _Stop(
                    FAIL,
                    "two monomials share d=%s" % (d,),
                    truncated,
                    history=list(seed.history),
                    monomial=sorted(v.render() for v in key),
                    clashes_with=sorted(v.render() for v in other),
                    d=list(d),
                )
            by_d[d] = key
    detail = (
        "%d monomials of degree <= 2, all denominator vectors distinct"
        % len(by_key)
    )
    return detail, len(by_key), truncated


def check_d_basis(ctx):
    """Within every seed the denominator vectors of the n mutable
    variables form a basis of the integer lattice (determinant +-1)."""
    n = ctx.n
    result = ctx.classical_graph()
    truncated = result.truncated
    for seed in result.seeds:
        rows = tuple(seed.d_vector(i) for i in range(n))
        value = det(rows)
        if value not in (1, -1):
            raise _Stop(
                FAIL,
                "cluster determinant %d" % value,
                truncated,
                history=list(seed.history),
                d_rows=[list(r) for r in rows],
            )
    count = len(result.seeds)
    return "determinant +-1 in all %d seeds" % count, count, truncated


def check_g_formula(ctx):
    """The frozen-free degree of each non-initial variable equals the
    linear image of its denominator vector under the negated left star
    matrix."""
    n = ctx.n
    records = ctx.variable_records()
    truncated = ctx.classical_graph().truncated
    for rec in records:
        g = variable_g_vector(rec["poly"], n)
        want = g_from_d(ctx.data, rec["d"])
        if tuple(g) != tuple(want):
            raise _Stop(
                FAIL,
                "g=%s but formula gives %s" % (g, want),
                truncated,
                **_at(rec),
            )
    return "%d variables checked" % len(records), len(records), truncated


class _SeedPair(FrozenRecord):
    """A seed of the algebra of the k-mutated matrix, paired with the seed
    of the original algebra that the same mutation word reaches from the
    original initial seed mutated at k.  A vertex of the paired walk is a
    pair of canonical keys, so an inconsistent pairing shows up as two
    vertices with one fresh key.  The original side starts from the
    initial seed of the original algebra's walk, so it reads every
    exchange relation that walk computed.  Its depth, one more than the
    fresh side's, is the pair's, so a depth bound keeps the original
    side among the seeds that walk reaches."""

    __slots__ = _fields = ("fresh", "original")

    def __init__(self, fresh, original):
        self._fill(fresh, original)

    @property
    def depth(self):
        return self.original.depth

    def mutate(self, k):
        return _SeedPair(self.fresh.mutate(k), self.original.mutate(k))

    def slot_of(self, other, k):
        """The slot both sides of this pair give for ``other``'s k-th
        variables, or None when they disagree, which leaves that move to
        be computed."""
        s = self.fresh.slot_of(other.fresh, k)
        return s if s == self.original.slot_of(other.original, k) else None

    def canonical_key(self):
        return (self.fresh.canonical_key(), self.original.canonical_key())


def check_sink_source_reflection(ctx):
    """Mutating the initial matrix at a sink or source k reindexes all
    denominator vectors by the simple reflection at k, matched through
    the pairing of equal mutation words."""
    n = ctx.n
    b = ctx.b
    sinks, sources = sinks_and_sources(b)
    fresh_initial = {LaurentPoly.variable(2 * n, i) for i in range(n)}
    truncated = False
    matched = 0
    for k in sorted(set(sinks) | set(sources)):
        original = ctx.classical_graph().seeds[0].mutate(k)
        fresh = build_exchange_data(original.current.principal())
        start = _SeedPair(ClassicalSeed.initial_seed(fresh), original)
        walk = walk_seeds(start, n, ctx.max_depth, ctx.max_seeds)
        truncated = truncated or walk.truncated
        fresh_keys = set()
        for pair in walk.seeds:
            key = pair.fresh.canonical_key()
            if key in fresh_keys:
                raise _Stop(
                    FAIL,
                    "seed pairing at vertex %d is inconsistent" % (k + 1),
                    True,
                    vertex=k + 1,
                    fresh_history=list(pair.fresh.history),
                    original_history=list(pair.original.history),
                )
            fresh_keys.add(key)
        seen_vars = set()
        for pair in walk.seeds:
            f = pair.fresh
            for i in range(n):
                fvar = f.variables[i]
                if fvar in seen_vars or fvar in fresh_initial:
                    continue
                seen_vars.add(fvar)
                w = f.d_vector(i)
                want = simple_reflection(b, k, w)
                got = pair.original.d_vector(i)
                if tuple(got) != tuple(want):
                    raise _Stop(
                        FAIL,
                        "d=%s maps to %s, expected %s" % (w, got, want),
                        truncated,
                        vertex=k + 1,
                        fresh_history=list(f.history),
                        slot=i + 1,
                    )
                matched += 1
    detail = _vertex_lists(sinks, sources) + ", %d variables matched" % matched
    return detail, matched, truncated


def check_principal_source(ctx, source=None):
    """At a source vertex k, rescaling frozen variable j by the k-th one
    raised to -b_kj - 2*delta_jk tropically kills every frozen
    polynomial except the one of the k-th simple, which drops to the
    inverted k-th frozen variable."""
    n = ctx.n
    b = ctx.b
    _, sources = sinks_and_sources(b)
    if source is not None:
        if source not in sources:
            raise NotSinkOrSource(
                "vertex %d is not a source of the exchange matrix"
                % (source + 1)
            )
        sources = [source]
    if not sources:
        return "input has no source vertex", 0, False
    records = ctx.variable_records()
    truncated = ctx.classical_graph().truncated
    details = []
    for k in sources:
        unit = tuple(1 if i == k else 0 for i in range(n))
        assignment = [
            tuple(
                (1 if r == j else 0) - (b[k][j] + 2 * (1 if j == k else 0)) *
                (1 if r == k else 0)
                for r in range(n)
            )
            for j in range(n)
        ]
        plain = 0
        for rec in records:
            f = variable_f_polynomial(rec["poly"], n)
            got = tropical_evaluate(f, assignment)
            want = tuple(-x for x in unit) if rec["d"] == unit else (0,) * n
            if got != want:
                raise _Stop(
                    FAIL,
                    "source %d: tropical value %s at d=%s, expected %s"
                    % (k + 1, got, rec["d"], want),
                    truncated,
                    vertex=k + 1,
                    **_at(rec),
                )
            if rec["d"] != unit:
                plain += 1
        details.append(
            "source %d: value 1 for %d variables, y%d^-1 at the simple"
            % (k + 1, plain, k + 1)
        )
    return "; ".join(details), len(records), truncated


def check_rs310(ctx):
    """The seeds containing a fixed cluster variable form a connected
    subgraph, and so do the seeds containing a fixed compatible pair."""
    result = ctx.classical_graph()
    if result.truncated:
        return _UNDECIDABLE, 0, True
    where = cluster_variable_index(result)
    polys = sorted(where, key=lambda p: p.render())
    pair_count = 0
    for a_idx in range(len(polys)):
        pa = polys[a_idx]
        if not subgraph_is_connected(result, where[pa]):
            raise _Stop(
                FAIL,
                "seeds holding one variable are disconnected",
                False,
                variable=pa.render(),
                seeds=sorted(where[pa]),
            )
        for b_idx in range(a_idx + 1, len(polys)):
            pb = polys[b_idx]
            common = where[pa] & where[pb]
            if not common:
                continue
            pair_count += 1
            if not subgraph_is_connected(result, common):
                raise _Stop(
                    FAIL,
                    "seeds holding a compatible pair are disconnected",
                    False,
                    variables=[pa.render(), pb.render()],
                    seeds=sorted(common),
                )
    detail = (
        "%d variables and %d compatible pairs, all induced subgraphs "
        "connected" % (len(polys), pair_count)
    )
    return detail, len(polys), False


def check_fz4144(ctx):
    """The seeds whose mutable exchange matrix is acyclic form a
    nonempty connected subgraph."""
    n = ctx.n
    result = ctx.classical_graph()
    if result.truncated:
        return _UNDECIDABLE, 0, True
    nodes = {
        idx
        for idx, seed in enumerate(result.seeds)
        if is_acyclic(tuple(seed.current.btilde[i] for i in range(n)))
    }
    if not nodes:
        raise _Stop(
            FAIL, "no acyclic seed found (initial seed should qualify)", False
        )
    if not subgraph_is_connected(result, nodes):
        raise _Stop(
            FAIL,
            "acyclic-matrix seeds are disconnected",
            False,
            seeds=sorted(nodes),
        )
    detail = (
        "%d of %d seeds have acyclic matrices and form a connected "
        "subgraph" % (len(nodes), len(result.seeds))
    )
    return detail, len(nodes), False


def check_characters(ctx):
    """Every non-initial quantum cluster variable equals the generic
    character at its denominator vector, and its u=1 specialization
    equals the commutative engine's variable at the same seat."""
    n = ctx.n
    qres = ctx.quantum_graph()
    truncated = qres.truncated
    # Both graphs come from walk_seeds, so equal histories pair the
    # seeds by index.
    cseeds = ctx.classical_graph().seeds
    if [s.history for s in qres.seeds] != [s.history for s in cseeds]:
        raise _Stop(
            FAIL, "quantum and commutative exchange graphs differ", truncated
        )
    q0 = ctx.quantum_seed()
    initial_vars = set(q0.variables[:n])
    seen = set()
    checked = 0
    skipped = 0
    for seed, cseed in zip(qres.seeds, cseeds):
        for i in range(n):
            x_q = seed.variables[i]
            at = dict(history=list(seed.history), slot=i + 1)
            if x_q.specialize_q1() != cseed.variables[i]:
                raise _Stop(
                    FAIL,
                    "u=1 specialization disagrees with the commutative "
                    "engine",
                    truncated,
                    **at,
                )
            if x_q in seen or x_q in initial_vars:
                continue
            seen.add(x_q)
            v = x_q.denominator_vector(n)
            if _too_few_primes(ctx, v):
                skipped += 1
                continue
            at["d"] = list(v)
            x_char = _built(
                truncated,
                lambda: ctx.generic_char(v),
                "character construction failed: ",
                **at,
            )
            checked += 1
            if x_char != x_q:
                raise _Stop(
                    FAIL,
                    "generic character differs from mutated variable",
                    truncated,
                    **at,
                )
    detail = _with_skipped("%d variables matched" % checked, skipped)
    return detail, checked, truncated


def check_reflection(ctx):
    """For every sink or source k and every non-initial variable other
    than the k-th simple, the generic character agrees with the
    character of the reflected representation computed in the k-mutated
    quantum seed."""
    n = ctx.n
    b = ctx.b
    sinks, sources = sinks_and_sources(b)
    vertices = sorted(set(sinks) | set(sources))
    records = ctx.variable_records()
    truncated = ctx.classical_graph().truncated
    q0 = ctx.quantum_seed()
    checked = 0
    skipped = 0
    for k in vertices:
        mutated = q0.mutate(k)
        unit = tuple(1 if i == k else 0 for i in range(n))
        for rec in records:
            v = rec["d"]
            if v == unit:
                continue
            v_new = simple_reflection(b, k, v)
            if _too_few_primes(ctx, v, v_new):
                skipped += 1
                continue

            def build():
                x_v = ctx.generic_char(v)
                reflected = [reflect(rep, k) for rep in ctx.rigid_reps(v)]
                assert all(rep.dims == v_new for rep in reflected)
                polys = counting_polynomials(reflected)
                return x_v, character_in_seed(mutated, v_new, polys)

            x_v, x_ref = _built(
                truncated,
                build,
                "vertex %d, d=%s: " % (k + 1, v),
                vertex=k + 1,
                d=list(v),
            )
            checked += 1
            if x_v != x_ref:
                raise _Stop(
                    FAIL,
                    "reflected character differs at vertex %d" % (k + 1),
                    truncated,
                    vertex=k + 1,
                    d=list(v),
                )
    detail = _vertex_lists(sinks, sources) + ", %d characters matched" % checked
    return _with_skipped(detail, skipped), checked, truncated


REGISTRY = {
    "denominators": check_denominators,
    "tropical": check_tropical,
    "sign-coherence": check_sign_coherence,
    "distinct-d": check_distinct_d,
    "d-basis": check_d_basis,
    "g-formula": check_g_formula,
    "sink-source-reflection": check_sink_source_reflection,
    "principal-source": check_principal_source,
    "rs310": check_rs310,
    "fz4144": check_fz4144,
    "characters": check_characters,
    "reflection": check_reflection,
}

ALL_CHECKS = tuple(REGISTRY)

# The remaining catalogued corollaries need no separate suites: they are
# linear-algebra consequences of sign-coherence, distinct-d and
# sink-source-reflection, so a full run already certifies them.
IMPLIED_NOTE = (
    "further denominator corollaries follow from sign-coherence, "
    "distinct-d and sink-source-reflection and are not separate checks"
)


def run_check(name, ctx, source=None):
    """The report of check ``name`` on ``ctx``.  A check that returns is
    PASS when it counted an item and SKIPPED otherwise; a ``_Stop`` gives
    its own status, and exactly a FAIL carries a counterexample."""
    if name not in REGISTRY:
        raise KeyError("unknown check %r; known: %s" % (name, ", ".join(ALL_CHECKS)))
    kwargs = {"source": source} if name == "principal-source" else {}
    replay = None
    try:
        detail, items, truncated = REGISTRY[name](ctx, **kwargs)
        status = PASS if items else SKIPPED
    except _Stop as stop:
        status, detail, truncated = stop.args
        if status == FAIL:
            replay = {
                "B": [list(r) for r in ctx.b],
                "rng_seed": ctx.rng_seed,
                "primes": list(ctx.primes),
                **stop.extra,
            }
    return VerificationReport(
        name,
        {"name": ctx.name, "B": [list(r) for r in ctx.b]},
        "truncated" if truncated else "exhaustive",
        status,
        detail,
        replay,
    )


def run_all(ctx):
    return [run_check(name, ctx) for name in ALL_CHECKS]
