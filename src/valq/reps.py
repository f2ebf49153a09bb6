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
below the representation's at once, by one walk.  It takes each arrow map
once as prime-field matrices of x -> phi(t**l * x) and does its linear
algebra on base-p digit vectors.  It enumerates the non-sinks in
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
it, when one arrow psi leaves C, to a sink K.  Each subspace W at C acts
on K only through dim W and the dimension of one meet: of W with a fixed
subspace when K has the degree of C, and otherwise, when no other arrow
enters K, of the span of W's subfield coordinates over the field at K
with the kernel of the arrow's evaluation map.  Counts of the W by that
dimension come from sums over the subspaces of the fixed space
containing a given one, inverted on the lattice of subspaces
(Goldman-Rota).  Between equal degrees the sums have a closed form, the
inversion is the q-Vandermonde count, and the close reads three ranks:
dim G for the forced span G at C, dim(T + psi(G)) and dim(T + psi(V_C))
for the span T that K received.  Between different degrees the close
enumerates the subspaces of the kernel instead of those of V_C.

At the last vertex P that the walk enumerates, a subspace W above the
forced span F reaches its leaf only through ranks dim(T + chi(W)), T
fixed by the parent: one per sink that P feeds, and the three of a close
between equal degrees.  When chi is one map, linear over the field of
its target j, such a rank is dim T + (d_P / d_j) dim W - dim(W meet J)
for the preimage J = chi^-1(T).  Each J, linear over the field at j,
is read from the side with fewer lines over that field
(``special_subspaces``): J, where a W meeting J only inside F raises
the rank by (d_P / d_j)(dim W - dim F), or its annihilator, where a W
with W + J = V_P reads the rank of V_P.  Such W
share the class of F, so raised, and count by Gaussian binomials; only
the special W are sent.  P is enumerated whole when an arrow from it is
one of several to its target or leads to a degree that does not divide
d_P, when P feeds both C and K, when the close joins two degrees, when
V_P / F has dimension below 2, and when the preimages hold as many
lines as there are subspaces above F.

The dual representation D(V), over the opposite quiver, has a
subrepresentation of dimension v - e for each one of V of dimension e
(their annihilators), so the same walk over D(V) walks V backward: from
the sinks up, enumerating the non-sources and counting at the sources.
The planner builds D(V) and prices the walks of V and D(V) alike, by the
product, over the vertices a walk still enumerates (so not the one it
closes), of their numbers of subspaces of all dimensions, times the
number of subspaces of K for a close between different degrees.  It
walks D(V) exactly when its price is lower.  Such a close happens only
when K has fewer subspaces than V_i, so the price of a representation's
walk reads the rank of that one arrow besides the quiver, fields and
dimension vector.  The price does not read whether P splits.

What every count re-derives is built once, by exact identities only.  A
quiver keeps its opposite and its reflections, the opposite of the
opposite and a reflection reflected back being the quiver itself, and a
representation keeps its dual, the dual of the dual being itself; so a
reflection at a source, D S^+ D, hands its count the dual it holds.  A
walk builds the arrow matrices of a vertex on its first send, and those
of P, which the split reads, when it starts.  The dual multiplies by no
Gram matrix of a trace form at an end whose degree is the arrow's
valuation, where it is the 1x1 identity, so it transposes an arrow
between two such ends.  The dual and the sink reflection build
their results without the public constructor's checks.
"""

import random
from collections import Counter
from itertools import product
from operator import mul

from .exchange import sinks_and_sources, topological_order, valued_arrows
from .finfield import (
    DEFAULT_CAP,
    block_diagonal,
    build_tower,
    by_meet,
    enumerate_subspaces_containing,
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
    to_codes,
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


def _fp_arrow_matrix(rep, key, scale=1):
    """The arrow map, after multiplying its input by the vertex-field
    element ``scale``, as a matrix over the prime field.

    Input and output coordinates flatten vertex-field coordinates into
    base-p digits (index r*d + s for coordinate r, digit s).  Over the
    prime field, subfield coordinates are these digits, so an arrow of
    valuation 1 is its map matrix times multiplication by ``scale`` on
    each digit block.
    """
    i, j, _ = key
    quiver = rep.quiver
    di = quiver.diag[i]
    fi = quiver.field(i)
    vi = rep.dims[i]
    if quiver.valuation[(i, j)] == 1:
        p = quiver.p
        # column s: the digits of scale * t**s
        block = [fi.digits(fi.mul(scale, _tpow(fi, s))) for s in range(di)]
        return [
            [
                sum(row[r * di + a] * block[s][a] for a in range(di)) % p
                for r in range(vi)
                for s in range(di)
            ]
            for row in rep.maps[key]
        ]
    fj = quiver.field(j)
    cols = []
    for r in range(vi):
        for s in range(di):
            vec = [0] * vi
            vec[r] = fi.mul(scale, _tpow(fi, s))
            cols.append(to_digits(fj, rep.apply_arrow(key, vec)))
    nrows = rep.dims[j] * quiver.diag[j]
    return [[cols[c][r] for c in range(len(cols))] for r in range(nrows)]


def hom_dim(repv, repw):
    """Prime-field dimension of the space of homomorphisms V -> W.

    The unknowns are the prime-field basis maps f = t**s * E_rc of each
    vertex space, x -> t**s * x_c at coordinate r.  The column of f holds
    theta_W f in the block of each arrow leaving f's vertex and -f theta_V
    in the block of each arrow entering it, zero elsewhere, so the
    homomorphisms are the kernel of the matrix of these columns.  theta_W
    f is block r of the arrow matrix of W after scaling by t**s
    (``_fp_arrow_matrix``), moved to block c; f theta_V is t**s times
    coordinate c of each image of theta_V, placed in block r.
    """
    if repv.quiver is not repw.quiver and (
        repv.quiver.b != repw.quiver.b
        or repv.quiver.diag != repw.quiver.diag
        or repv.quiver.p != repw.quiver.p
    ):
        raise TowerMismatch("representations live over different quivers")
    quiver = repv.quiver
    # the block of an arrow h -> j: maps V_h -> W_j over the prime field
    offsets, total = {}, 0
    for key in quiver.arrow_keys:
        h, j, _ = key
        offsets[key] = total
        total += repw.dims[j] * quiver.diag[j] * repv.dims[h] * quiver.diag[h]
    columns = []
    for i in range(quiver.n):
        fi, d = quiver.field(i), quiver.diag[i]
        v, w = repv.dims[i], repw.dims[i]
        if not v * w:
            continue
        # theta_V's image of each input digit, per arrow into i
        images = {
            key: [to_codes(fi, y) for y in zip(*_fp_arrow_matrix(repv, key))]
            for key in offsets
            if key[1] == i
        }
        for s in range(d):
            ts = _tpow(fi, s)
            scaled = {
                key: _fp_arrow_matrix(repw, key, ts)
                for key in offsets
                if key[0] == i
            }
            for c in range(v):
                minus = {}
                for key, ys in images.items():
                    digits = [fi.digits(fi.neg(fi.mul(ts, y[c]))) for y in ys]
                    minus[key] = [x for row in zip(*digits) for x in row]
                for r in range(w):
                    col = [0] * total
                    for key, mat in scaled.items():
                        for m, row in enumerate(mat):
                            at = offsets[key] + (m * v + c) * d
                            col[at : at + d] = row[r * d : (r + 1) * d]
                    for key, block in minus.items():
                        at = offsets[key] + r * len(block)
                        col[at : at + len(block)] = block
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


# -- subrepresentation counting over the prime field --


def _scaled_arrow_matrices(rep, i):
    """Prime-field matrices of x -> phi(t**l * x) for every arrow map phi
    leaving i and every l below the degree of the field at i over the
    arrow's valuation field, as (target, matrices) per target.  Their
    images of a subspace at i span its image over the valuation field."""
    quiver = rep.quiver
    fi = quiver.field(i)
    out = {}
    for key in quiver.arrow_keys:
        if key[0] == i:
            j = key[1]
            for l in range(quiver.diag[i] // quiver.valuation[(i, j)]):
                out.setdefault(j, []).append(
                    _fp_arrow_matrix(rep, key, _tpow(fi, l))
                )
    return list(out.items())


def _walk_order(quiver):
    """The vertices the walk enumerates, the non-sinks in the quiver's
    order, and the sinks it counts from the messages they receive."""
    assert quiver.order is not None
    sinks = quiver.sinks
    return [i for i in quiver.order if i not in sinks], list(sinks)


def _closing_vertex(rep):
    """(i, k, m, phi) when the last vertex i that the walk of ``rep``
    enumerates is counted in closed form over its one arrow to the sink
    k; otherwise None.

    Every out-neighbour of i is a sink.  i closes only when exactly one
    arrow leaves it.  When k has the degree of i, the arrow is one matrix
    over their field, i always closes and m and phi are None.  Otherwise
    k must have no other in-arrow, phi is the rows of the arrow's
    evaluation map (``_evaluation``) and m the dimension of its kernel K,
    read off its rank; i closes only when K has fewer subspaces, which
    the close enumerates, than V_i has.  A basis of K is built only for
    the walk that is taken.
    """
    quiver, dims = rep.quiver, rep.dims
    enumerated, _ = _walk_order(quiver)
    if not enumerated:
        return None
    i = enumerated[-1]
    keys = [key for key in quiver.arrow_keys if key[0] == i]
    if len(keys) != 1:
        return None
    k = keys[0][1]
    if quiver.diag[k] == quiver.diag[i]:
        return i, k, None, None
    if sum(key[1] == k for key in quiver.arrow_keys) > 1:
        return None
    fk, fi = quiver.field(k), quiver.field(i)
    enumerating = subspace_total(fi.q, dims[i])
    # the evaluation map has rank at most dim V_k, so K has dimension at
    # least its number of columns less dim V_k: if even that many is too
    # many, the rank is not computed
    width = dims[i] * (quiver.diag[i] // quiver.valuation[(i, k)])
    if subspace_total(fk.q, max(width - dims[k], 0)) >= enumerating:
        return None
    _, total, phi = _evaluation(rep, k)
    m = total - f_rank(fk, phi)
    if subspace_total(fk.q, m) < enumerating:
        return i, k, m, phi
    return None


class _Walk:
    """One exhaustive walk over the subrepresentations of ``rep``.

    Enumerated vertices are visited one at a time; choosing a subspace
    there sends its arrow images, as vertex-field vectors, to the
    out-neighbours it constrains.  Each vertex keeps the span of the
    images it received as a reduced echelon basis (``inbox``), extended
    one image at a time by ``f_insert`` and restored to the parent's
    basis when the walk backs up; every sink is counted in closed form
    from the dimension of that span.  The arrow matrices of a vertex are
    built on its first ``_send`` (of P by ``_split_plan``), so a walk
    that closes its first vertex builds none.

    Each leaf adds one to its class (``_key``), which ``leaves`` expands
    at a close.  The last vertex P that is enumerated sends only its
    special subspaces (``_split``); the others share the class of P's
    forced span, raised at the slots of ``_split_plan`` per dimension.
    """

    def __init__(self, rep, closing):
        quiver = rep.quiver
        self.rep = rep
        self.quiver = quiver
        self.p = quiver.p
        self.enumerated, self.terminals = _walk_order(quiver)
        self.closing, self.sink, kernel_dim, phi = closing or (None,) * 4
        self.kernel = None
        if kernel_dim is not None:
            i, k = self.closing, self.sink
            width = rep.dims[i] * (quiver.diag[i] // quiver.valuation[(i, k)])
            self.kernel = f_kernel_basis(quiver.field(k), phi, width)
        # the out-neighbours of each vertex sent from, with the arrow
        # matrices
        self.links = {}
        self.inbox = {i: ([], []) for i in range(quiver.n)}
        if closing is not None:
            self.slot = self.terminals.index(self.sink)
        if closing is not None and self.kernel is None:
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
            ranks, tail = list(key[c : c + t]), key[c + t :]
            if self.kernel is None:
                (g, whole), base, n = tail, ranks[self.slot], v - tail[0]
                tail = [
                    (g + a, base + a - j, count)
                    for a, j, count in meet_counts(q, n, n - whole + base)
                ]
            for a, rank, count in tail:
                ranks[self.slot] = rank
                out[key[:c] + (a,) + tuple(ranks)] += mult * count
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

        A close across degrees adds its (dim W, rank at k, count) from
        ``_mixed_close``.  A close of C into K between equal degrees puts
        dim(T + psi(G)) in K's place and adds (dim G, dim(T + psi(V_C))).
        There W ranges over the subspaces of V_C above its forced span G,
        and the rank at K is dim(T + psi(W)) = t + dim W - dim(W meet J)
        for the span T that K received and J = psi^-1(T).  It reads
        dim(T + psi(G)) + a - j for a = dim W / G and j = dim(W / G meet
        I), I = (J + G) / G, of dimension n - dim(T + psi(V_C)) +
        dim(T + psi(G)) in V_C / G of dimension n: ``meet_counts``.
        """
        ranks = [len(self.inbox[k][0]) for k in self.terminals]
        i, k = self.closing, self.sink
        if i is None:
            return tuple(path) + tuple(ranks)
        forced = self.inbox[i][0]
        if self.kernel is not None:
            tail = tuple(self._mixed_close(i, k, forced))
            return tuple(path) + tuple(ranks) + tail
        base, whole = self._close_spans()
        ranks[self.slot] = len(base[0])
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
        docstring).  ``ranks`` holds (slot, j, which, chi): the slot of
        the class that reads dim(T + chi(W)), for the prime-field matrix
        chi of the arrow to j and T the span j received (which is None),
        or T_K + psi(G) (0) or T_K + psi(V_C) (1), pulled back by psi
        when j is C.
        """
        quiver = self.quiver
        path = [i for i in self.enumerated if i != self.closing]
        if not path or self.kernel is not None:
            return None
        i, c, k = path[-1], self.closing, self.sink
        d = quiver.diag[i]
        links = self.links[i] = _scaled_arrow_matrices(self.rep, i)
        # one arrow to j, of valuation d_j, has d / d_j matrices
        if {c, k} <= dict(links).keys() or any(
            len(mats) * quiver.diag[j] != d for j, mats in links
        ):
            return None
        at = {j: len(path) + s for s, j in enumerate(self.terminals)}
        at[c] = len(path) + len(self.terminals)
        ranks = []
        for j, (chi, *_) in links:
            if j == k:
                ranks += [(at[k], k, 0, chi), (at[c] + 1, k, 1, chi)]
            else:
                ranks.append((at[j], j, None, chi))
            if j == c:
                ranks.append((at[k], c, 0, chi))
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
        for _, j, which, chi in self.plan[1]:
            rows = (self.inbox[j] if which is None else close[which])[0]
            if which is not None and j == self.closing:
                psi = rep.maps[(j, self.sink, 0)]
                rows = f_preimage(quiver.field(j), psi, rows, rep.dims[j])
            maps.append((chi, quiver.field(j), rows))
        d, n = quiver.diag[i], rep.dims[i]
        return special_subspaces(quiver.tower, d, n, forced, maps)

    def _mixed_close(self, i, k, forced):
        """(dim W, rank at k, count) when the arrow phi from i to k joins
        different degrees, over their common subfield F_g.

        W(x) is the span over F_k of the F_g-coordinate vectors of W, of
        dimension e * dim W with e = d_i / g.  k receives nothing else,
        so its rank is the dimension of the image of W(x) under the
        evaluation map, e * dim W - dim(W(x) meet K).  That meet contains
        J0 = G(x) meet K.  An F_k-subspace L of K lies in W(x) exactly
        when W contains R(L), the F_i-span of the F_g-coordinate vectors
        of L's basis, so [n - r, a - r] of the W of dimension a contain
        it, with r = dim(G + R(L)).  Summed over the L above J0 by
        dim L / J0, these are what ``by_meet`` inverts.
        """
        quiver = self.quiver
        tower = quiver.tower
        g = quiver.valuation[(i, k)]
        dk = quiver.diag[k]
        e = quiver.diag[i] // g
        fi, fk = quiver.field(i), quiver.field(k)
        kernel = self.kernel
        m = len(kernel)
        columns = [list(col) for col in zip(*kernel)]
        # J0 in coordinates over the kernel basis: the c with c.K in G(x),
        # which the F_g-basis t**l * x of G spans
        meet = []
        if forced and kernel:
            tensor = []
            for x in forced:
                for l in range(e):
                    tx = [fi.mul(_tpow(fi, l), a) for a in x]
                    coords = tower.to_subfield(quiver.diag[i], g, tx)
                    tensor.append([tower.embed(g, dk, c) for c in coords])
            meet = f_preimage(fk, columns, tensor, m)
        n = self.rep.dims[i]
        sums = {}
        for l in range(m - len(meet) + 1):
            for coords in enumerate_subspaces_containing(
                fk, m, len(meet) + l, meet
            ):
                span = self.inbox[i]
                for c in coords:
                    y = f_matvec(fk, columns, c)
                    # the F_g-coordinate vectors of y, as vectors at i
                    parts = [tower.subfield_coords(dk, g, x) for x in y]
                    for part in zip(*parts):
                        x = tower.from_subfield(quiver.diag[i], g, part)
                        span = f_insert(fi, *span, x)
                r = len(span[0])
                for a in range(r, n + 1):
                    step = gaussian_binomial(fi.q, n - r, a - r)
                    sums[a, l] = sums.get((a, l), 0) + step
        for a, j, count in by_meet(fk.q, tuple(sorted(sums.items()))):
            yield a, e * a - len(meet) - j, count

    def _subspaces(self, i):
        """The subspaces at i containing the span of its forced images."""
        field = self.quiver.field(i)
        v = self.rep.dims[i]
        forced, _ = self.inbox[i]
        for k in range(v + 1):
            yield from enumerate_subspaces_containing(field, v, k, forced)

    def _send(self, i, w):
        """Insert the images of the subspace w at i into the bases of its
        out-neighbours; returns their bases before, to restore."""
        p = self.p
        fi = self.quiver.field(i)
        xs = [to_digits(fi, row) for row in w]
        links = self.links.get(i)
        if links is None:
            links = self.links[i] = _scaled_arrow_matrices(self.rep, i)
        parents = {}
        for j, mats in links:
            fj = self.quiver.field(j)
            parents[j] = span = self.inbox[j]
            for mat in mats:
                for x in xs:
                    y = [sum(map(mul, row, x)) % p for row in mat]
                    if any(y):
                        span = f_insert(fj, *span, to_codes(fj, y))
            self.inbox[j] = span
        return parents


def _plan(rep):
    """(price, closing) of the walk of ``rep``: the size of its tree,
    bounded by the product of the numbers of subspaces of the vertices
    it enumerates, less the one it closes, times the number of subspaces
    of K that a close between different degrees enumerates; and its
    ``_closing_vertex``."""
    quiver, dims = rep.quiver, rep.dims
    closing = _closing_vertex(rep)
    i, k, kernel_dim, _ = closing or (None,) * 4
    price = 1
    if kernel_dim is not None:
        price = subspace_total(quiver.field(k).q, kernel_dim)
    for x in _walk_order(quiver)[0]:
        if x != i:
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


def _evaluation(rep, k):
    """The arrows into k as (key, valuation, width, offset), where width
    is the dimension of the source fiber over the valuation field and
    offset its place in the direct sum of those fibers; the dimension of
    that sum; and the rows of the evaluation map from the sum to V_k.
    That map is linear over the field at k: one column per coordinate of
    the sum, the column of the arrow's matrix read as a vector over that
    field."""
    quiver, dims = rep.quiver, rep.dims
    layout = []
    total = 0
    for key in quiver.arrow_keys:
        i, j, _ = key
        if j == k:
            g = quiver.valuation[(i, j)]
            width = dims[i] * (quiver.diag[i] // g)
            layout.append((key, g, width, total))
            total += width
    tower, dk = quiver.tower, quiver.diag[k]
    columns = [
        tower.from_subfield(dk, g, [row[m] for row in rep.maps[key]])
        for key, g, width, _ in layout
        for m in range(width)
    ]
    phi = [[col[r] for col in columns] for r in range(dims[k])]
    return layout, total, phi


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
