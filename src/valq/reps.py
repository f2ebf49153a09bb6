"""Representations of valued quivers over towers of finite fields.

Vertex i carries a vector space over the field with p**d_i elements;
an arrow i -> j of valuation g carries a map that is linear over the
common subfield with p**g elements, stored as a matrix in the basis
that expands each top-field coordinate into its d/g subfield
coordinates (index r*(d/g) + m for coordinate r, subfield slot m).

Everything downstream (hom and ext spaces, subrepresentation counts,
sink and source reflections) is exhaustive exact linear algebra.  There
is one reflection functor, the sink's S^+: its new fiber is the kernel
of the summed evaluation map.  The source reflection is D S^+ D, the
sink reflection of the dual representation, dualised back.

Subrepresentations are counted for every dimension vector e in the box
below the representation's at once, by one walk.  It reads each arrow
of valuation g into j through its evaluation map, linear over the field
E at j: the image of a subspace W spans the image of W(x), the E-span of
the F_g-coordinate vectors of W.  It enumerates the non-sinks in
topological order, and at each one takes every subspace containing the
images forced by the subspaces already chosen upstream.  Each vertex
keeps the span of the images it has received as a reduced echelon
basis, extended one image at a time as the walk descends and restored
to the parent's basis as it backs up, so no span is reduced twice.  A
sink k with forced image of dimension u then contributes the Gaussian
binomial [dim V_k - u, e_k - u] over its field, for every e_k.  Leaves
are tallied by class, the dimensions and ranks their counts read, and
each class is expanded once.

The walk may close its last enumerated vertex C instead of enumerating
it, when one arrow psi leaves C, to a sink K of the degree of C.  Each
subspace W at C acts on K only through dim W and the dimension of its
meet with a fixed subspace, so the W count by the q-Vandermonde
numbers (``meet_counts``), and the close reads three ranks: dim G for
the forced span G at C, dim(T + psi(G)) and dim(T + psi(V_C)) for the
span T that K received.

At the last vertex P that the walk enumerates, a subspace W above the
forced span F reaches its leaf only through ranks dim(T + chi(W)), T
fixed by the parent: one per sink that P feeds, and the three of a
close.  When chi is one arrow, of valuation g into a vertex j whose
field is E, its image of W spans the image of W(x), the E-span of the
F_g-coordinate vectors of W, under the arrow's evaluation map, and
such a rank is dim T + (d_P / g) dim W - dim(W(x) meet J) for the
preimage J of T in V_P(x).  Each J is read from the side with fewer
lines over E (``special_subspaces``): J, where a W whose W(x) meets J
as F(x) does raises the rank by (d_P / g)(dim W - dim F), or its
annihilator, where a W with W(x) + J = V_P(x) reads the rank of V_P.
Such W share the class of F, so raised, and count by Gaussian
binomials; only the special W are sent.  P is enumerated whole when an
arrow from it is one of several to its target, when P feeds both C and
K, when V_P / F has dimension below 2, and when the preimages hold as
many lines as there are subspaces above F.

The dual representation D(V), over the opposite quiver, has a
subrepresentation of dimension v - e for each one of V of dimension e
(their annihilators), so the same walk over D(V) walks V backward: from
the sinks up, enumerating the non-sources and counting at the sources.
The planner builds D(V) and prices the walks of V and D(V) alike, by the
product, over the vertices a walk still enumerates (so not the one it
closes), of their numbers of subspaces of all dimensions.  It walks
D(V) exactly when its price is lower.  The price reads only the quiver,
fields and dimension vector, not whether P splits.

What every count re-derives is built once, by exact identities only.  A
quiver keeps its opposite and its reflections, the opposite of the
opposite and a reflection reflected back being the quiver itself, and a
representation keeps its dual, the dual of the dual being itself; so a
reflection at a source, D S^+ D, hands its count the dual it holds.  A
walk builds the evaluation map of an arrow on the first send or split
that reads it; the sink reflection puts the same per-arrow maps side by
side, and ``hom_dim`` reads those of V.  The dual multiplies by no
Gram matrix of a trace form at an end whose degree is the arrow's
valuation, where it is the 1x1 identity, so it transposes an arrow
between two such ends.  The dual and the sink reflection build their
results without the public constructor's checks.
"""

import random
from collections import Counter
from itertools import product

from .exchange import sinks_and_sources, topological_order, valued_arrows
from .finfield import (
    DEFAULT_CAP,
    block_diagonal,
    build_tower,
    enumerate_subspaces_containing,
    extension_vectors,
    f_insert,
    f_kernel_basis,
    f_matmul,
    f_matvec,
    f_preimage,
    f_rank,
    gaussian_binomial,
    meet_counts,
    special_subspaces,
    subspace_total,
    to_digits,
)


class TowerMismatch(ValueError):
    """Representations over different quivers or towers were combined."""


class NoRigidFound(RuntimeError):
    """No representation without self-extensions was found."""


class DrawsExhausted(NoRigidFound):
    """Random search spent its draws without hitting a rigid
    representation; a spent budget, not a proof that none exists."""


class NotSinkOrSource(ValueError):
    """Reflection was requested at a vertex of the wrong shape."""


class HasSimpleSummand(ValueError):
    """Reflection at k is undefined: the simple at k splits off."""


def _tpow(field, l):
    # the class of t**l as a code; callers keep l < field.d
    return field.p**l if l else 1


class ValuedQuiver:
    """A valued quiver with a fixed tower of coefficient fields.

    Quivers are immutable.  Each builds its opposite and each reflection
    once, on first request, and shares it with later requests."""

    def __init__(self, b, diag, tower):
        self.b = tuple(tuple(int(x) for x in row) for row in b)
        self.n = len(self.b)
        self.diag = tuple(int(d) for d in diag)
        self.tower = tower
        # vertices with every arrow pointing forward; None if cyclic
        self.order = topological_order(self.b)
        self.sinks, self.sources = sinks_and_sources(self.b)
        self.arrow_keys = []
        self.valuation = {}
        for i, j, mult, g in valued_arrows(self.b, self.diag):
            self.valuation[(i, j)] = g
            for copy in range(mult):
                self.arrow_keys.append((i, j, copy))
        self._opposite = None
        self._reflected = {}

    @classmethod
    def from_matrix(cls, b, diag, p, cap=DEFAULT_CAP):
        tower = build_tower(p, diag, cap=cap)
        return cls(b, diag, tower)

    @property
    def p(self):
        return self.tower.p

    def field(self, i):
        return self.tower.field(self.diag[i])

    def is_sink(self, k):
        return k in self.sinks

    def is_source(self, k):
        return k in self.sources

    def reflected(self, k):
        """The quiver with the arrows at k reversed; reflecting it at k
        again gives back this quiver."""
        out = self._reflected.get(k)
        if out is None:
            rows = [list(row) for row in self.b]
            for j in range(self.n):
                rows[k][j] = -rows[k][j]
                rows[j][k] = -rows[j][k]
            out = ValuedQuiver(rows, self.diag, self.tower)
            out._reflected[k] = self
            self._reflected[k] = out
        return out

    def opposite(self):
        """The quiver with every arrow reversed, over the same degrees
        and tower, ordered by the reverse of this quiver's order; its
        opposite is this quiver."""
        if self._opposite is None:
            self._opposite = self._build_opposite()
        return self._opposite

    def _build_opposite(self):
        op = ValuedQuiver.__new__(ValuedQuiver)
        op.b = tuple(tuple(-x for x in row) for row in self.b)
        op.n, op.diag, op.tower = self.n, self.diag, self.tower
        op.order = None if self.order is None else self.order[::-1]
        op.sinks, op.sources = self.sources, self.sinks
        op.arrow_keys = sorted((j, i, c) for i, j, c in self.arrow_keys)
        op.valuation = {(j, i): g for (i, j), g in self.valuation.items()}
        op._opposite = self
        op._reflected = {}
        return op

    def map_shape(self, key, dims):
        i, j, _ = key
        g = self.valuation[(i, j)]
        return (
            dims[j] * (self.diag[j] // g),
            dims[i] * (self.diag[i] // g),
        )


class ValuedRep:
    """Dimension vector plus one subfield-linear matrix per arrow.

    Representations are immutable; each keeps its dual once built
    (``dual_rep``)."""

    def __init__(self, quiver, dims, maps):
        self.quiver = quiver
        self._dual = None
        self.dims = tuple(int(v) for v in dims)
        assert len(self.dims) == quiver.n
        assert all(v >= 0 for v in self.dims)
        self.maps = {}
        for key in quiver.arrow_keys:
            mat = maps[key]
            nrows, ncols = quiver.map_shape(key, self.dims)
            mat = tuple(tuple(int(x) for x in row) for row in mat)
            assert len(mat) == nrows
            assert all(len(row) == ncols for row in mat)
            self.maps[key] = mat

    @classmethod
    def _trusted(cls, quiver, dims, maps):
        """The representation with maps that are already tuples of int
        rows of the right shapes, as the functors build them; skips the
        checks of the public constructor."""
        rep = cls.__new__(cls)
        rep.quiver = quiver
        rep._dual = None
        rep.dims = tuple(dims)
        rep.maps = {key: maps[key] for key in quiver.arrow_keys}
        return rep

    @classmethod
    def zero_maps(cls, quiver, dims):
        maps = {}
        for key in quiver.arrow_keys:
            nrows, ncols = quiver.map_shape(key, dims)
            maps[key] = tuple((0,) * ncols for _ in range(nrows))
        return cls(quiver, dims, maps)

    @classmethod
    def simple(cls, quiver, k):
        dims = tuple(1 if i == k else 0 for i in range(quiver.n))
        return cls.zero_maps(quiver, dims)

    def apply_arrow(self, key, vec):
        """Image of a vertex-field vector under one arrow map."""
        i, j, _ = key
        quiver = self.quiver
        g, tower = quiver.valuation[(i, j)], quiver.tower
        gin = tower.to_subfield(quiver.diag[i], g, vec)
        gout = f_matvec(tower.field(g), self.maps[key], gin)
        return tower.from_subfield(quiver.diag[j], g, gout)

    def __eq__(self, other):
        if not isinstance(other, ValuedRep):
            return NotImplemented
        return (
            self.quiver.b == other.quiver.b
            and self.quiver.diag == other.quiver.diag
            and self.quiver.p == other.quiver.p
            and self.dims == other.dims
            and self.maps == other.maps
        )


def random_rep(quiver, dims, rng):
    maps = {}
    for key in quiver.arrow_keys:
        i, j, _ = key
        g = quiver.valuation[(i, j)]
        q = quiver.tower.field(g).q
        nrows, ncols = quiver.map_shape(key, dims)
        maps[key] = tuple(
            tuple(rng.randrange(q) for _ in range(ncols)) for _ in range(nrows)
        )
    return ValuedRep(quiver, dims, maps)


def euler_form(b, diag, v, w):
    """Euler pairing of dimension vectors, in prime-field units."""
    n = len(diag)
    total = sum(diag[i] * v[i] * w[i] for i in range(n))
    for i in range(n):
        for j in range(n):
            if b[i][j] < 0:
                total += diag[i] * b[i][j] * v[i] * w[j]
    return total


def simple_reflection(b, k, v):
    """Reflect a dimension vector at vertex k of the exchange matrix."""
    n = len(b)
    out = [int(x) for x in v]
    out[k] = -v[k] + sum(abs(b[k][i]) * v[i] for i in range(n) if i != k)
    return tuple(out)


def hom_dim(repv, repw):
    """Prime-field dimension of the space of homomorphisms V -> W.

    The unknowns are the prime-field basis maps f = t**s * E_rc of each
    vertex space, x -> t**s * x_c at coordinate r.  A tuple of maps is a
    homomorphism when theta_W f - f theta_V vanishes on each arrow h -> j
    of valuation g, that is on each F_g-basis vector t**l * e_m of V_h.
    So an arrow has one block of equations, one row group per such
    vector holding the base-p digits of the value there, and the
    homomorphisms are the kernel of the matrix whose columns are the f.
    The column of f at i holds theta_W(t**s * t**l * e_r)
    (``ValuedRep.apply_arrow``) in the row group of t**l * e_c of each
    arrow leaving i, and -t**s times coordinate c of column m of V's
    evaluation map (``_arrow_evaluation``) at coordinate r of row group m
    of each arrow entering i.
    """
    if repv.quiver is not repw.quiver and (
        repv.quiver.b != repw.quiver.b
        or repv.quiver.diag != repw.quiver.diag
        or repv.quiver.p != repw.quiver.p
    ):
        raise TowerMismatch("representations live over different quivers")
    quiver = repv.quiver
    # the block of an arrow h -> j: the digits of W_j per F_g-basis vector
    # of V_h
    offsets, total = {}, 0
    for key in quiver.arrow_keys:
        h, j, _ = key
        offsets[key] = total
        e = quiver.diag[h] // quiver.valuation[(h, j)]
        total += repv.dims[h] * e * repw.dims[j] * quiver.diag[j]
    columns = []
    for i in range(quiver.n):
        fi, d = quiver.field(i), quiver.diag[i]
        v, w = repv.dims[i], repw.dims[i]
        if not v * w:
            continue
        outs = [key for key in offsets if key[0] == i]
        ins = [(key, _arrow_evaluation(repv, key)) for key in offsets if key[1] == i]
        for s in range(d):
            ts = _tpow(fi, s)
            # per arrow leaving i and per r, theta_W(t**s * t**l * e_r) for
            # each l in turn, which f = t**s * E_rc puts at c for every c
            images = []
            for key in outs:
                fj = quiver.field(key[1])
                flat = []
                for r in range(w):
                    digits = []
                    for l in range(d // quiver.valuation[key[:2]]):
                        x = [0] * w
                        x[r] = fi.mul(ts, _tpow(fi, l))
                        digits += to_digits(fj, repw.apply_arrow(key, x))
                    flat.append(digits)
                images.append((offsets[key], flat))
            for c in range(v):
                minus = [
                    (offsets[key], [fi.digits(fi.neg(fi.mul(ts, y))) for y in phi[c]])
                    for key, phi in ins
                ]
                for r in range(w):
                    col = [0] * total
                    for at, flat in images:
                        size = len(flat[r])
                        col[at + c * size : at + (c + 1) * size] = flat[r]
                    for at, digits in minus:
                        at += r * d
                        for y in digits:
                            col[at : at + d] = y
                            at += w * d
                    columns.append(col)
    return len(columns) - f_rank(quiver.tower.field(1), columns)


def ext_dim(repv, repw):
    """Prime-field dimension of the extension space, via the dimension
    identity hom - ext = euler."""
    quiver = repv.quiver
    return hom_dim(repv, repw) - euler_form(
        quiver.b, quiver.diag, repv.dims, repw.dims
    )


def is_rigid(rep):
    return ext_dim(rep, rep) == 0


def build_rigid_rep(quiver, dims, rng_seed=0, attempts=400):
    """Random search for a representation without self-extensions."""
    rng = random.Random(rng_seed)
    dims = tuple(int(v) for v in dims)
    # A rigid V has dim End(V) = <v, v>, which is at least 1 for v != 0.
    euler = euler_form(quiver.b, quiver.diag, dims, dims)
    if any(dims) and euler <= 0:
        raise NoRigidFound(
            "no rigid representation of dimension %s: its Euler form "
            "<v, v> = %d is not positive" % (dims, euler)
        )
    # The zero representation has Hom = sum of End(V_i), of prime-field
    # dimension sum d_i v_i^2, so it is rigid exactly when <v, v> is that.
    if euler == sum(d * v * v for d, v in zip(quiver.diag, dims)):
        rep = ValuedRep.zero_maps(quiver, dims)
        if is_rigid(rep):
            return rep
    for _ in range(attempts):
        rep = random_rep(quiver, dims, rng)
        if is_rigid(rep):
            return rep
    raise DrawsExhausted(
        "no rigid representation of dimension %s after %d draws"
        % (dims, attempts)
    )


# -- subrepresentation counting --


def _walk_order(quiver):
    """The vertices the walk enumerates, the non-sinks in the quiver's
    order, and the sinks it counts from the messages they receive."""
    assert quiver.order is not None
    sinks = quiver.sinks
    return [i for i in quiver.order if i not in sinks], list(sinks)


def _closing_vertex(quiver):
    """(i, k) when the last vertex i that a walk over ``quiver``
    enumerates is counted in closed form over its one arrow, to the sink
    k of the degree of i; otherwise None.  Every out-neighbour of i is a
    sink, and the arrow is one matrix over their field."""
    enumerated, _ = _walk_order(quiver)
    if not enumerated:
        return None
    i = enumerated[-1]
    keys = [key for key in quiver.arrow_keys if key[0] == i]
    if len(keys) != 1 or quiver.diag[keys[0][1]] != quiver.diag[i]:
        return None
    return i, keys[0][1]


class _Walk:
    """One exhaustive walk over the subrepresentations of ``rep``.

    Enumerated vertices are visited one at a time; choosing a subspace
    there sends its arrow images, as vertex-field vectors, to the
    out-neighbours it constrains.  Each vertex keeps the span of the
    images it received as a reduced echelon basis (``inbox``), extended
    one image at a time by ``f_insert`` and restored to the parent's
    basis when the walk backs up; every sink is counted in closed form
    from the dimension of that span.  ``_send`` and ``_split`` read each
    arrow through its evaluation map, built on the first send or split
    that needs it, so a walk that closes its first vertex builds none.

    Each leaf adds one to its class (``_key``), which ``leaves`` expands
    at a close.  The last vertex P that is enumerated sends only its
    special subspaces (``_split``); the others share the class of P's
    forced span, raised at the slots of ``_split_plan`` per dimension.
    """

    def __init__(self, rep, closing):
        quiver = rep.quiver
        self.rep = rep
        self.quiver = quiver
        self.enumerated, self.terminals = _walk_order(quiver)
        self.closing, self.sink = closing or (None, None)
        # the evaluation map of each arrow sent along or split over
        self.evaluations = {}
        self.inbox = {i: ([], []) for i in range(quiver.n)}
        if closing is not None:
            self.slot = self.terminals.index(self.sink)
            # the span of the closing arrow's columns, psi(V_C)
            i = self.closing
            span = ([], [])
            for col in zip(*rep.maps[(i, self.sink, 0)]):
                span = f_insert(quiver.field(i), *span, col)
            self.closing_image = span
        self.plan = self._split_plan()

    def leaves(self):
        """Multiplicity of every (enumerated dims, sink ranks)."""
        classes = Counter()
        path = []

        def recurse(idx):
            i = self.enumerated[idx] if idx < len(self.enumerated) else None
            if i is None or i == self.closing:
                classes[self._key(path)] += 1
                return
            split = self._split(i) if self.plan and i == self.plan[0] else None
            for w in self._subspaces(i) if split is None else split[0]:
                parents = self._send(i, w)
                path.append(len(w))
                recurse(idx + 1)
                path.pop()
                self.inbox.update(parents)
            if split is not None:
                # the others share the class of the forced span, raised
                # by (s, c) at each slot for each dimension a above it
                forced = self.inbox[i][0]
                parents = self._send(i, forced)
                key = self._key(path + [len(forced)])
                self.inbox.update(parents)
                slots = [len(path)] + [slot for slot, *_ in self.plan[1]]
                for a, count in enumerate(split[1]):
                    if count:
                        cls = list(key)
                        for slot, (s, c) in zip(slots, [(1, 0)] + split[2]):
                            cls[slot] += s * a + c
                        classes[tuple(cls)] += count

        recurse(0)
        if self.closing is None:
            return classes
        out = Counter()
        v = self.rep.dims[self.closing]
        q = self.quiver.field(self.closing).q
        c, t = len(self.enumerated) - 1, len(self.terminals)
        for key, mult in classes.items():
            ranks, (g, whole) = list(key[c : c + t]), key[c + t :]
            base, n = ranks[self.slot], v - g
            for a, j, count in meet_counts(q, n, n - whole + base):
                ranks[self.slot] = base + a - j
                out[key[:c] + (g + a,) + tuple(ranks)] += mult * count
        return out

    def table(self):
        """Count for every dimension vector in the box below the rep's."""
        dims = self.rep.dims
        table = {e: 0 for e in product(*(range(v + 1) for v in dims))}
        nenum = len(self.enumerated)
        for key, mult in self.leaves().items():
            e = [0] * len(dims)
            for i, x in zip(self.enumerated, key):
                e[i] = x
            # the subspaces of each sink above its forced image, of rank u
            options = []
            for k, u in zip(self.terminals, key[nenum:]):
                q = self.quiver.field(k).q
                options.append(
                    [
                        (x, gaussian_binomial(q, dims[k] - u, x - u))
                        for x in range(u, dims[k] + 1)
                    ]
                )
            for combo in product(*options):
                count = mult
                for k, (x, factor) in zip(self.terminals, combo):
                    e[k] = x
                    count *= factor
                table[tuple(e)] += count
        return table

    def _key(self, path):
        """The class of the current leaf: the dimensions ``path`` and the
        rank at each sink; below a close, the close's outcomes too.

        A close of C into K puts dim(T + psi(G)) in K's place and adds
        (dim G, dim(T + psi(V_C))).  There W ranges over the subspaces of
        V_C above its forced span G, and the rank at K is dim(T + psi(W))
        = t + dim W - dim(W meet J) for the span T that K received and J =
        psi^-1(T).  It reads dim(T + psi(G)) + a - j for a = dim W / G and
        j = dim(W / G meet I), I = (J + G) / G, of dimension n - dim(T +
        psi(V_C)) + dim(T + psi(G)) in V_C / G of dimension n:
        ``meet_counts``.
        """
        ranks = [len(self.inbox[k][0]) for k in self.terminals]
        if self.closing is None:
            return tuple(path) + tuple(ranks)
        base, whole = self._close_spans()
        ranks[self.slot] = len(base[0])
        forced = self.inbox[self.closing][0]
        return tuple(path) + tuple(ranks) + (len(forced), len(whole[0]))

    def _close_spans(self):
        """T + psi(G) and T + psi(V_C) at the close of C into K; psi(V_C)
        is built once per walk, since T is often empty."""
        i = self.closing
        field = self.quiver.field(i)
        psi = self.rep.maps[(i, self.sink, 0)]
        got = span = self.inbox[self.sink]
        for x in self.inbox[i][0]:
            span = f_insert(field, *span, f_matvec(field, psi, x))
        whole = self.closing_image
        for x in got[0]:
            whole = f_insert(field, *whole, x)
        return span, whole

    def _split_plan(self):
        """(P, ranks) for the last vertex P that the walk enumerates, or
        None when P is always enumerated whole (see the module
        docstring).  ``ranks`` holds (slot, key, which): the slot of the
        class that reads dim(T + chi(W)), for the arrow chi = ``key``
        from P to j, and T the span j received (which is None), or T_K +
        psi(G) (0) or T_K + psi(V_C) (1), pulled back by psi when j is C.
        """
        quiver = self.quiver
        path = [i for i in self.enumerated if i != self.closing]
        if not path:
            return None
        i, c, k = path[-1], self.closing, self.sink
        keys = [key for key in quiver.arrow_keys if key[0] == i]
        outs = {j for _, j, _ in keys}
        if len(outs) < len(keys) or {c, k} <= outs:
            return None
        at = {j: len(path) + s for s, j in enumerate(self.terminals)}
        at[c] = len(path) + len(self.terminals)
        ranks = []
        for key in keys:
            j = key[1]
            if j == k:
                ranks += [(at[k], key, 0), (at[c] + 1, key, 1)]
            else:
                ranks.append((at[j], key, None))
            if j == c:
                ranks.append((at[k], key, 0))
        return i, ranks

    def _split(self, i):
        """``special_subspaces`` of the last enumerated vertex i for the
        preimages of ``_split_plan`` under the current parent, or None to
        enumerate i whole: when V_i over its forced span has dimension
        below 2, or the preimages hold too many lines."""
        quiver, rep = self.quiver, self.rep
        forced = self.inbox[i]
        if rep.dims[i] - len(forced[0]) < 2:
            return None
        close = self._close_spans() if self.closing is not None else None
        maps = []
        for _, key, which in self.plan[1]:
            j = key[1]
            rows = (self.inbox[j] if which is None else close[which])[0]
            if which is not None and j == self.closing:
                psi = rep.maps[(j, self.sink, 0)]
                rows = f_preimage(quiver.field(j), psi, rows, rep.dims[j])
            phi = self._evaluation_map(key)
            maps.append((phi, quiver.valuation[(i, j)], quiver.field(j), rows))
        d, n = quiver.diag[i], rep.dims[i]
        return special_subspaces(quiver.tower, d, n, forced, maps)

    def _subspaces(self, i):
        """The subspaces at i containing the span of its forced images."""
        field = self.quiver.field(i)
        v = self.rep.dims[i]
        forced, _ = self.inbox[i]
        for k in range(v + 1):
            yield from enumerate_subspaces_containing(field, v, k, forced)

    def _evaluation_map(self, key):
        phi = self.evaluations.get(key)
        if phi is None:
            phi = self.evaluations[key] = _arrow_evaluation(self.rep, key)
        return phi

    def _send(self, i, w):
        """Insert the images of the subspace w at i into the bases of its
        out-neighbours; returns their bases before, to restore.  Along an
        arrow into j they span the images, under its evaluation map, of
        the vectors that span w(x) over the field at j
        (``extension_vectors``)."""
        quiver = self.quiver
        parents = {}
        for key in quiver.arrow_keys:
            if key[0] != i:
                continue
            j = key[1]
            fj, g = quiver.field(j), quiver.valuation[(i, j)]
            phi = self._evaluation_map(key)
            parents.setdefault(j, self.inbox[j])
            span = self.inbox[j]
            for x in extension_vectors(quiver.tower, quiver.diag[i], g, fj, w):
                y = f_matvec(fj, phi, x)
                if any(y):
                    span = f_insert(fj, *span, y)
            self.inbox[j] = span
        return parents


def _plan(rep):
    """(price, closing) of the walk of ``rep``: the size of its tree,
    bounded by the product of the numbers of subspaces of the vertices
    it enumerates, less the one it closes; and its ``_closing_vertex``."""
    quiver, dims = rep.quiver, rep.dims
    closing = _closing_vertex(quiver)
    price = 1
    for x in _walk_order(quiver)[0]:
        if closing is None or x != closing[0]:
            price *= subspace_total(quiver.field(x).q, dims[x])
    return price, closing


def dual_rep(rep):
    """The dual representation D(V) = Hom(V, F) over the opposite quiver.

    An arrow i -> j of valuation g becomes j -> i with the adjoint of its
    matrix (``_adjoint``) under the trace forms (x, y) -> tr(x y) from
    the vertex fields to F = F_{p^g}.  The annihilator of a
    subrepresentation of dimension e is one of D(V) of dimension v - e,
    and D(D(V)) = V: the dual is built once and kept on V, with V kept
    on it as its own dual.
    """
    dual = rep._dual
    if dual is None:
        maps = {(j, i, c): _adjoint(rep, (i, j, c)) for i, j, c in rep.maps}
        dual = ValuedRep._trusted(rep.quiver.opposite(), rep.dims, maps)
        dual._dual, rep._dual = rep, dual
    return dual


def _adjoint(rep, key):
    """The matrix of D(V) on the reverse of the arrow ``key`` = (i, j, _):
    P_i^-1 M^T P_j for the arrow's matrix M, where P is the
    block-diagonal Gram matrix of the trace form in the subfield
    coordinates of each fiber.  At an end whose degree is the arrow's
    valuation g, P is the 1x1 identity and is not multiplied, so between
    two such ends the adjoint is M^T."""
    quiver, dims = rep.quiver, rep.dims
    i, j, _ = key
    ncols, nrows = quiver.map_shape(key, dims)
    if not (nrows and ncols):
        return ((0,) * ncols,) * nrows
    tower = quiver.tower
    g = quiver.valuation[(i, j)]
    field = tower.field(g)
    adjoint = tuple(zip(*rep.maps[key]))
    if quiver.diag[i] != g:
        _, inverse_i = tower.trace_gram(quiver.diag[i], g)
        adjoint = f_matmul(field, block_diagonal(inverse_i, dims[i]), adjoint)
    if quiver.diag[j] != g:
        gram_j, _ = tower.trace_gram(quiver.diag[j], g)
        adjoint = f_matmul(field, adjoint, block_diagonal(gram_j, dims[j]))
    return tuple(map(tuple, adjoint))


def count_all_subreps(rep):
    """Map every dimension vector below the rep's to its count.

    The walk of V and the walk of its dual D(V) count the same
    subrepresentations, those of D(V) by the dimension v - e of their
    annihilators.  ``_plan`` prices both, and the cheaper one is walked,
    V on a tie.
    """
    dual = dual_rep(rep)
    price, closing = _plan(rep)
    dual_price, dual_closing = _plan(dual)
    if price <= dual_price:
        return _Walk(rep, closing).table()
    table = _Walk(dual, dual_closing).table()
    # e -> v - e reverses the box's lexicographic order
    return {
        tuple(v - x for v, x in zip(rep.dims, e)): count
        for e, count in reversed(table.items())
    }


def _arrow_evaluation(rep, key):
    """The rows of the evaluation map of the arrow ``key`` = (i, j, _) of
    valuation g, linear over the field E at j: from E**w, w the dimension
    of V_i over F_g, to V_j, its column m the column m of the arrow's
    matrix read as a vector over E.  It has dim V_j rows, empty when V_i
    is 0."""
    i, j, _ = key
    quiver = rep.quiver
    g = quiver.valuation[(i, j)]
    rows = [[] for _ in range(rep.dims[j])]
    for col in zip(*rep.maps[key]):
        for row, y in zip(rows, quiver.tower.from_subfield(quiver.diag[j], g, col)):
            row.append(y)
    return rows


def _evaluation(rep, k):
    """The arrows into k as (key, valuation, width, offset), where width
    is the dimension of the source fiber over the valuation field and
    offset its place in the direct sum of those fibers; the dimension of
    that sum; and the rows of the evaluation map from the sum to V_k, the
    ``_arrow_evaluation`` of each arrow side by side."""
    quiver = rep.quiver
    layout, rows = [], [[] for _ in range(rep.dims[k])]
    total = 0
    for key in quiver.arrow_keys:
        i, j, _ = key
        if j == k:
            g = quiver.valuation[(i, j)]
            width = rep.dims[i] * (quiver.diag[i] // g)
            layout.append((key, g, width, total))
            total += width
            for row, part in zip(rows, _arrow_evaluation(rep, key)):
                row += part
    return layout, total, rows


def reflect_sink(rep, k):
    """Sink reflection: the new fiber at k is the kernel of the summed
    evaluation map, and reversed arrows act through the relative trace."""
    quiver = rep.quiver
    if not quiver.is_sink(k):
        raise NotSinkOrSource("vertex %d is not a sink" % k)
    fk = quiver.field(k)
    dk = quiver.diag[k]
    layout, nbig, phi = _evaluation(rep, k)
    kernel = f_kernel_basis(fk, phi, nbig)
    if nbig - len(kernel) < rep.dims[k]:
        raise HasSimpleSummand("the simple at the reflected vertex splits off")
    trace = quiver.tower.relative_trace
    dims = list(rep.dims)
    dims[k] = len(kernel)
    # the old maps away from k, and each arrow i -> k reversed
    maps = {key: mat for key, mat in rep.maps.items() if k not in key[:2]}
    for (i, _, copy), g, width, offset in layout:
        steps = dk // g
        maps[(k, i, copy)] = tuple(
            tuple(
                trace(dk, g, fk.mul(kvec[offset + m], _tpow(fk, l)))
                for kvec in kernel
                for l in range(steps)
            )
            for m in range(width)
        )
    return ValuedRep._trusted(quiver.reflected(k), dims, maps)


def reflect(rep, k):
    """The reflection at the sink or source k.  At a source it is the sink
    reflection of the dual, whose k is a sink, dualised back."""
    if rep.quiver.is_sink(k):
        return reflect_sink(rep, k)
    if rep.quiver.is_source(k):
        return dual_rep(reflect_sink(dual_rep(rep), k))
    raise NotSinkOrSource("vertex %d is neither sink nor source" % k)
