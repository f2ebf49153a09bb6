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
binomial [dim V_k - u, e_k - u] over its field, for every e_k.

The walk may close its last enumerated vertex i instead of enumerating
it: when one arrow leaves i, to a sink k of the same degree, each
subspace at i acts on k only through the dimension of its meet with one
fixed subspace, and a q-Vandermonde count of subspaces by that dimension
replaces the enumeration.

The dual representation D(V), over the opposite quiver, has a
subrepresentation of dimension v - e for each one of V of dimension e
(their annihilators), so the same walk over D(V) walks V backward: from
the sinks up, enumerating the non-sources and counting at the sources.
The planner prices both trees by the product, over the vertices the walk
still enumerates (so not the one it closes), of their numbers of
subspaces of all dimensions, and walks D(V) exactly when its price is
lower.  It looks at nothing but the quiver, fields and dimension vector.
"""

import random
from functools import lru_cache
from itertools import product
from operator import mul

from .exchange import sinks_and_sources, topological_order, valued_arrows
from .finfield import (
    build_tower,
    enumerate_subspaces_containing,
    f_insert,
    f_kernel_basis,
    f_matmul,
    f_matvec,
    f_rank,
    gaussian_binomial,
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
    """A valued quiver with a fixed tower of coefficient fields."""

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

    @classmethod
    def from_matrix(cls, b, diag, p, cap=1 << 16):
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
        rows = [list(row) for row in self.b]
        for j in range(self.n):
            rows[k][j] = -rows[k][j]
            rows[j][k] = -rows[j][k]
        return ValuedQuiver(rows, self.diag, self.tower)

    def opposite(self):
        """The quiver with every arrow reversed, over the same degrees
        and tower, ordered by the reverse of this quiver's order."""
        op = ValuedQuiver.__new__(ValuedQuiver)
        op.b = tuple(tuple(-x for x in row) for row in self.b)
        op.n, op.diag, op.tower = self.n, self.diag, self.tower
        op.order = None if self.order is None else self.order[::-1]
        op.sinks, op.sources = self.sources, self.sinks
        op.arrow_keys = sorted((j, i, c) for i, j, c in self.arrow_keys)
        op.valuation = {(j, i): g for (i, j), g in self.valuation.items()}
        return op

    def map_shape(self, key, dims):
        i, j, _ = key
        g = self.valuation[(i, j)]
        return (
            dims[j] * (self.diag[j] // g),
            dims[i] * (self.diag[i] // g),
        )

    def f_to_g(self, i, g, vec):
        """Flatten a vector over the vertex field into subfield coords."""
        d = self.diag[i]
        out = []
        for x in vec:
            out.extend(self.tower.subfield_coords(d, g, x))
        return out

    def g_to_f(self, i, g, gvec):
        d = self.diag[i]
        e = d // g
        out = []
        for r in range(0, len(gvec), e):
            out.append(self.tower.from_subfield_coords(d, g, gvec[r : r + e]))
        return out


class ValuedRep:
    """Dimension vector plus one subfield-linear matrix per arrow."""

    def __init__(self, quiver, dims, maps):
        self.quiver = quiver
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
        g = self.quiver.valuation[(i, j)]
        gfield = self.quiver.tower.field(g)
        gin = self.quiver.f_to_g(i, g, vec)
        gout = f_matvec(gfield, self.maps[key], gin)
        return self.quiver.g_to_f(j, g, gout)

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
            cols.append(_to_digits(fj, rep.apply_arrow(key, vec)))
    nrows = rep.dims[j] * quiver.diag[j]
    return [[cols[c][r] for c in range(len(cols))] for r in range(nrows)]


def _fp_mult_blocks(field, w, v):
    """Prime-field matrices of the maps x -> t**s * x_c placed at row r.

    Returns a dict (r, c, s) -> matrix of shape (w*d, v*d); these span
    the vertex-field linear maps from a v-dim to a w-dim space.
    """
    d = field.d
    blocks = {}
    for s in range(d):
        ts = _tpow(field, s)
        small = []
        for srow in range(d):
            small.append(
                [
                    field.digits(field.mul(ts, _tpow(field, sc)))[srow]
                    for sc in range(d)
                ]
            )
        blocks[s] = small
    out = {}
    for r in range(w):
        for c in range(v):
            for s in range(d):
                mat = [[0] * (v * d) for _ in range(w * d)]
                small = blocks[s]
                for a in range(d):
                    for b2 in range(d):
                        mat[r * d + a][c * d + b2] = small[a][b2]
                out[(r, c, s)] = mat
    return out


def hom_dim(repv, repw):
    """Prime-field dimension of the space of homomorphisms V -> W.

    Every prime-field basis map f of one vertex space is an unknown.  Its
    column stacks theta_W f over the arrows leaving f's vertex and
    -f theta_V over the arrows entering it, zero elsewhere, so the
    homomorphisms are the kernel of the matrix of these columns.
    """
    if repv.quiver is not repw.quiver and (
        repv.quiver.b != repw.quiver.b
        or repv.quiver.diag != repw.quiver.diag
        or repv.quiver.p != repw.quiver.p
    ):
        raise TowerMismatch("representations live over different quivers")
    quiver = repv.quiver
    prime = quiver.tower.field(1)
    keys = quiver.arrow_keys
    theta_v = [_fp_arrow_matrix(repv, key) for key in keys]
    theta_w = [_fp_arrow_matrix(repw, key) for key in keys]
    columns = []
    for i in range(quiver.n):
        blocks = _fp_mult_blocks(quiver.field(i), repw.dims[i], repv.dims[i])
        for f in blocks.values():
            col = []
            for (h, j, _), tv, tw in zip(keys, theta_v, theta_w):
                if h == i:
                    col.extend(x for row in f_matmul(prime, tw, f) for x in row)
                elif j == i:
                    col.extend(
                        prime.neg(x) for row in f_matmul(prime, f, tv) for x in row
                    )
                else:
                    col.extend([0] * (len(tw) * repv.dims[h] * quiver.diag[h]))
            columns.append(col)
    return len(columns) - f_rank(prime, columns)


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


def _to_digits(field, vec):
    """Flatten vertex-field codes into base-p digits (index r*d + s)."""
    if field.d == 1:
        return list(vec)
    out = []
    for a in vec:
        out.extend(field.digits(a))
    return out


def _to_codes(field, digs):
    if field.d == 1:
        return list(digs)
    d = field.d
    return [field.from_digits(digs[r : r + d]) for r in range(0, len(digs), d)]


def _scaled_arrow_matrices(rep):
    """Prime-field matrices of x -> phi(t**l * x) for every arrow map phi
    and every l below the degree of the source field over the arrow's
    valuation field, grouped by (source, target).  Their images of a
    vertex-field subspace span its image over the valuation field."""
    quiver = rep.quiver
    out = {}
    for key in quiver.arrow_keys:
        i, j, _ = key
        fi = quiver.field(i)
        for l in range(quiver.diag[i] // quiver.valuation[(i, j)]):
            out.setdefault((i, j), []).append(
                _fp_arrow_matrix(rep, key, _tpow(fi, l))
            )
    return out


_gaussian_binomial = lru_cache(maxsize=4096)(gaussian_binomial)


def _walk_order(quiver):
    """The vertices the walk enumerates, the non-sinks in the quiver's
    order, and the sinks it counts from the messages they receive."""
    assert quiver.order is not None
    sinks = quiver.sinks
    return [i for i in quiver.order if i not in sinks], list(sinks)


def _closing_vertex(quiver):
    """The last vertex the walk enumerates, when its subspaces can be
    counted in closed form; otherwise None.

    Every out-neighbour of that vertex is a sink.  It closes when exactly
    one arrow leaves it, to a sink k of the same degree, so that the
    arrow is one matrix over their field.
    """
    enumerated, _ = _walk_order(quiver)
    if not enumerated:
        return None
    i = enumerated[-1]
    keys = [key for key in quiver.arrow_keys if key[0] == i]
    if len(keys) == 1 and quiver.diag[keys[0][1]] == quiver.diag[i]:
        return i
    return None


@lru_cache(maxsize=4096)
def _meet_counts(q, n, m):
    """(a, j, number of a-dimensional subspaces of an n-space over F_q
    that meet a fixed m-dimensional subspace in dimension j), for every
    nonzero number (q-Vandermonde)."""
    return tuple(
        (
            a,
            j,
            q ** ((m - j) * (a - j))
            * _gaussian_binomial(q, m, j)
            * _gaussian_binomial(q, n - m, a - j),
        )
        for a in range(n + 1)
        for j in range(max(0, a - (n - m)), min(a, m) + 1)
    )


class _Walk:
    """One exhaustive walk over the subrepresentations of ``rep``.

    Enumerated vertices are visited one at a time; choosing a subspace
    there sends its arrow images, as vertex-field vectors, to the
    out-neighbours it constrains.  Each vertex keeps the span of the
    images it received as a reduced echelon basis (``inbox``), extended
    one image at a time by ``f_insert`` and restored to the parent's
    basis when the walk backs up; every sink is counted in closed form
    from the dimension of that span.

    When the last enumerated vertex i closes (``_closing_vertex``), its
    subspaces W are not enumerated.  Each parent fixes the space U that
    W ranges over and a subspace I of U, and the parameter of i's one
    sink neighbour k depends on W only through dim W and
    j = dim(W meet I); ``_meet_counts`` gives how many W share both.
    """

    def __init__(self, rep):
        quiver = rep.quiver
        self.rep = rep
        self.quiver = quiver
        self.p = quiver.p
        self.enumerated, self.terminals = _walk_order(quiver)
        self.closing = _closing_vertex(quiver)
        # the out-neighbours of each vertex, with the arrow matrices
        self.links = {i: [] for i in range(quiver.n)}
        for (i, j), mats in _scaled_arrow_matrices(rep).items():
            self.links[i].append((j, mats))
        self.inbox = {i: ([], []) for i in range(quiver.n)}
        if self.closing is not None:
            # the span of the closing arrow's columns, phi(V_i)
            i = self.closing
            ((k, _),) = self.links[i]
            span = ([], [])
            for col in zip(*rep.maps[(i, k, 0)]):
                span = f_insert(quiver.field(i), *span, col)
            self.closing_image = span

    def leaves(self):
        """Multiplicity of every (enumerated dims, sink ranks)."""
        out = {}
        path = []

        def recurse(idx):
            if idx == len(self.enumerated):
                key = tuple(path) + tuple(
                    len(self.inbox[k][0]) for k in self.terminals
                )
                out[key] = out.get(key, 0) + 1
                return
            i = self.enumerated[idx]
            if i == self.closing:
                self._close(i, tuple(path), out)
                return
            for w in self._subspaces(i):
                parents = self._send(i, w)
                path.append(len(w))
                recurse(idx + 1)
                path.pop()
                self.inbox.update(parents)

        recurse(0)
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
                        (x, _gaussian_binomial(q, dims[k] - u, x - u))
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

    def _close(self, i, path, out):
        """Add the leaves below the current parent, with the closing
        vertex i counted in closed form.

        W ranges over the subspaces above the forced span G at i, so over
        subspaces of U = V_i / G.  The rank at k becomes
        dim(T + phi(W)) = t + dim W - dim(W meet J) with J = phi^-1(T),
        which reads dim(T + phi(G)) + a - j for a = dim W / G and
        I = (J + G) / G, of dimension
        n - dim(T + phi(V_i)) + dim(T + phi(G)).
        """
        ((k, _),) = self.links[i]
        field = self.quiver.field(i)
        phi = self.rep.maps[(i, k, 0)]
        forced, _ = self.inbox[i]
        got, _ = span = self.inbox[k]
        for x in forced:
            span = f_insert(field, *span, f_matvec(field, phi, x))
        base = len(span[0])
        # T + phi(V_i) grows from phi(V_i), whose basis is built once per
        # walk, since T is often empty
        whole = self.closing_image
        for x in got:
            whole = f_insert(field, *whole, x)
        n = self.rep.dims[i] - len(forced)
        m = n - len(whole[0]) + base
        params = [
            len(self.inbox[x][0]) if x != k else 0 for x in self.terminals
        ]
        slot = self.terminals.index(k)
        for a, j, count in _meet_counts(field.q, n, m):
            params[slot] = base + a - j
            key = path + (len(forced) + a,) + tuple(params)
            out[key] = out.get(key, 0) + count

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
        xs = [_to_digits(fi, row) for row in w]
        parents = {}
        for j, mats in self.links[i]:
            fj = self.quiver.field(j)
            parents[j] = span = self.inbox[j]
            for mat in mats:
                for x in xs:
                    y = [sum(map(mul, row, x)) % p for row in mat]
                    if any(y):
                        span = f_insert(fj, *span, _to_codes(fj, y))
            self.inbox[j] = span
        return parents


def _walk_price(quiver, dims):
    """Size of the walk tree, bounded by the product of the numbers of
    subspaces of the vertices it enumerates, less the one it closes."""
    enumerated, _ = _walk_order(quiver)
    closing = _closing_vertex(quiver)
    price = 1
    for i in enumerated:
        if i != closing:
            q = quiver.field(i).q
            v = dims[i]
            price *= sum(_gaussian_binomial(q, v, k) for k in range(v + 1))
    return price


def prefers_backward(rep):
    """The planner: walk backward, as the walk of the dual over the
    opposite quiver, when that tree is the smaller one, pricing each
    walk by the product, over the vertices it still enumerates, of their
    numbers of subspaces."""
    quiver, dims = rep.quiver, rep.dims
    return _walk_price(quiver.opposite(), dims) < _walk_price(quiver, dims)


def dual_rep(rep):
    """The dual representation D(V) = Hom(V, F) over the opposite quiver.

    An arrow i -> j of valuation g with matrix M becomes j -> i with the
    adjoint P_i^-1 M^T P_j under the trace forms (x, y) -> tr(x y) from
    the vertex fields to F = F_{p^g}, where P is the block-diagonal Gram
    matrix of that form in the subfield coordinates of each fiber.  The
    annihilator of a subrepresentation of dimension e is one of D(V) of
    dimension v - e, and D(D(V)) = V.
    """
    quiver = rep.quiver
    tower = quiver.tower
    opposite = quiver.opposite()
    maps = {}
    for (i, j, copy), mat in rep.maps.items():
        nrows, ncols = opposite.map_shape((j, i, copy), rep.dims)
        if not (nrows and ncols):
            maps[(j, i, copy)] = [[0] * ncols for _ in range(nrows)]
            continue
        g = quiver.valuation[(i, j)]
        field = tower.field(g)
        _, inverse_i = tower.trace_gram(quiver.diag[i], g)
        gram_j, _ = tower.trace_gram(quiver.diag[j], g)
        left = _block_diagonal(inverse_i, rep.dims[i])
        left = f_matmul(field, left, [list(col) for col in zip(*mat)])
        right = _block_diagonal(gram_j, rep.dims[j])
        maps[(j, i, copy)] = f_matmul(field, left, right)
    return ValuedRep(opposite, rep.dims, maps)


def _block_diagonal(block, copies):
    """The square matrix with the given block repeated down its diagonal,
    as a map of a fiber in subfield coordinates."""
    e = len(block)
    return [
        [block[a][b] if r == c else 0 for c in range(copies) for b in range(e)]
        for r in range(copies)
        for a in range(e)
    ]


def walk_subreps(rep, backward):
    """Subrepresentation counts for every e below the rep's dimension
    vector, from one walk in the given direction."""
    if not backward:
        return _Walk(rep).table()
    dims = rep.dims
    table = _Walk(dual_rep(rep)).table()
    # e -> v - e reverses the box's lexicographic order
    return {
        tuple(v - x for v, x in zip(dims, e)): count
        for e, count in reversed(table.items())
    }


def count_all_subreps(rep):
    """Map every dimension vector below the rep's to its count."""
    return walk_subreps(rep, prefers_backward(rep))


def _arrows_at(rep, k):
    """The arrows into the sink k as (key, valuation, width, offset):
    width is the dimension of the source fiber over the valuation field,
    offset its place in the direct sum of those fibers.  Also returns the
    dimension of that sum."""
    quiver = rep.quiver
    layout = []
    total = 0
    for key in quiver.arrow_keys:
        i, j, _ = key
        if j == k:
            g = quiver.valuation[(i, j)]
            width = rep.dims[i] * (quiver.diag[i] // g)
            layout.append((key, g, width, total))
            total += width
    return layout, total


def reflect_sink(rep, k):
    """Sink reflection: the new fiber at k is the kernel of the summed
    evaluation map, and reversed arrows act through the relative trace."""
    quiver = rep.quiver
    if not quiver.is_sink(k):
        raise NotSinkOrSource("vertex %d is not a sink" % k)
    fk = quiver.field(k)
    dk = quiver.diag[k]
    layout, nbig = _arrows_at(rep, k)
    # one vertex-field column of the evaluation map per coordinate of the sum
    columns = [
        quiver.g_to_f(k, g, [row[m] for row in rep.maps[key]])
        for key, g, width, _ in layout
        for m in range(width)
    ]
    phi = [[col[r] for col in columns] for r in range(rep.dims[k])]
    # with a zero fiber at k, one zero equation leaves the whole sum free
    kernel = f_kernel_basis(fk, phi or [[0] * nbig])
    if nbig - len(kernel) < rep.dims[k]:
        raise HasSimpleSummand("the simple at the reflected vertex splits off")
    trace = quiver.tower.relative_trace
    dims = list(rep.dims)
    dims[k] = len(kernel)
    # the old maps away from k, and each arrow i -> k reversed
    maps = {key: mat for key, mat in rep.maps.items() if k not in key[:2]}
    for (i, _, copy), g, width, offset in layout:
        steps = dk // g
        maps[(k, i, copy)] = [
            [
                trace(dk, g, fk.mul(kvec[offset + m], _tpow(fk, l)))
                for kvec in kernel
                for l in range(steps)
            ]
            for m in range(width)
        ]
    return ValuedRep(quiver.reflected(k), dims, maps)


def reflect(rep, k):
    """The reflection at the sink or source k.  At a source it is the sink
    reflection of the dual, whose k is a sink, dualised back."""
    if rep.quiver.is_sink(k):
        return reflect_sink(rep, k)
    if rep.quiver.is_source(k):
        return dual_rep(reflect_sink(dual_rep(rep), k))
    raise NotSinkOrSource("vertex %d is neither sink nor source" % k)
