"""Seed data for quantum cluster algebras of valued quivers.

An ``ExchangeData`` bundles the framed exchange matrix (the n mutable
rows stacked over n frozen rows), the minimal positive symmetrizer of
its principal part, and a compatible skew form on the rank-2n lattice.
Mutation acts on the whole bundle and preserves compatibility.

Sign conventions.  The principal part B is skew-symmetrizable with
positive diagonal D: d_i * b_ij = -d_j * b_ji.  The valued quiver has
an arrow i -> j exactly when b_ij < 0, so sinks k have row k of B
nonnegative and columns nonpositive.
"""

from math import gcd

from . import matrices as mx
from .record import FrozenRecord


class NotSkewSymmetrizable(ValueError):
    """No positive diagonal matrix symmetrizes the given matrix."""


class NotAcyclic(ValueError):
    """The quiver of the principal part has a directed cycle."""


class BadSymmetrizer(ValueError):
    """A supplied symmetrizer is not positive or does not symmetrize."""


class Lambda0NotSkew(ValueError):
    """The supplied base form on the mutable sublattice is not skew."""


class IndexOutOfRange(IndexError):
    """A mutation or reflection index is outside the mutable range."""


class IncompatiblePair(ValueError):
    """The framed matrix and skew form fail the compatibility identity."""


class UnknownMatrixType(KeyError):
    """No built-in exchange matrix has the requested name."""


def minimal_symmetrizer(b):
    """Smallest positive integer diagonal with d_i*b_ij = -d_j*b_ji.

    The ratios d_j/d_i are forced along every edge of the underlying
    graph, so each connected component is determined up to one overall
    scale, which is then chosen minimal.
    """
    n, ncols = mx.shape(b)
    if n != ncols:
        raise NotSkewSymmetrizable("matrix is not square")
    for i in range(n):
        if b[i][i] != 0:
            raise NotSkewSymmetrizable("nonzero diagonal entry")
        for j in range(n):
            # numbered from 1, as the command line numbers vertices
            pair = "b_%d,%d and b_%d,%d" % (i + 1, j + 1, j + 1, i + 1)
            if (b[i][j] == 0) != (b[j][i] == 0):
                raise NotSkewSymmetrizable("%s do not vanish together" % pair)
            if b[i][j] * b[j][i] > 0:
                raise NotSkewSymmetrizable("%s have the same sign" % pair)
    d = [0] * n
    for start in range(n):
        if d[start]:
            continue
        # d stays integral on the component: before d_j = d_i * |b_ij| /
        # |b_ji| is set, the component is scaled so that it divides
        d[start] = 1
        component = [start]
        queue = [start]
        while queue:
            i = queue.pop()
            for j in range(n):
                if b[i][j] == 0:
                    continue
                num, den = d[i] * abs(b[i][j]), abs(b[j][i])
                if not d[j]:
                    scale = den // gcd(num, den)
                    for x in component:
                        d[x] *= scale
                    d[j] = num * scale // den
                    component.append(j)
                    queue.append(j)
                elif d[j] * den != num:
                    raise NotSkewSymmetrizable("inconsistent ratios on a cycle")
        shrink = gcd(*(d[x] for x in component))
        for x in component:
            d[x] //= shrink
    return tuple(d)


def check_symmetrizer(b, diag):
    n, _ = mx.shape(b)
    if len(diag) != n:
        entries = "entry" if len(diag) == 1 else "entries"
        rows = "row" if n == 1 else "rows"
        raise BadSymmetrizer(
            "D has %d %s, B has %d %s" % (len(diag), entries, n, rows)
        )
    if any(d <= 0 for d in diag):
        raise BadSymmetrizer("symmetrizer entries must be positive")
    for i in range(n):
        for j in range(n):
            if diag[i] * b[i][j] != -diag[j] * b[j][i]:
                # numbered from 1, as the command line numbers vertices
                a, c = i + 1, j + 1
                raise BadSymmetrizer(
                    "d_%d*b_%d,%d != -d_%d*b_%d,%d" % (a, a, c, c, c, a)
                )


def arrows(b):
    """Directed edges (i, j) of the quiver: one per pair with b_ij < 0."""
    n, _ = mx.shape(b)
    return [
        (i, j) for i in range(n) for j in range(n) if b[i][j] < 0
    ]


def topological_order(b):
    """Vertex order with every arrow pointing forward; None if cyclic."""
    n, _ = mx.shape(b)
    indeg = [0] * n
    for _, j in arrows(b):
        indeg[j] += 1
    ready = sorted(i for i in range(n) if indeg[i] == 0)
    order = []
    while ready:
        i = ready.pop(0)
        order.append(i)
        for a, j in arrows(b):
            if a == i:
                indeg[j] -= 1
                if indeg[j] == 0:
                    ready.append(j)
        ready.sort()
    return order if len(order) == n else None


def sinks_and_sources(b):
    """The sinks of B, whose rows have no negative entry, and its
    sources, whose columns have none, each ascending."""
    n, _ = mx.shape(b)
    sinks = tuple(k for k in range(n) if all(x >= 0 for x in b[k]))
    sources = tuple(k for k in range(n) if all(b[i][k] >= 0 for i in range(n)))
    return sinks, sources


def is_acyclic(b):
    return topological_order(b) is not None


def valued_arrows(b, diag):
    """Arrow classes (i, j, multiplicity, valuation) of the valued quiver.

    Multiplicity m = gcd(|b_ij|, |b_ji|) and valuation g = gcd(d_i, d_j)
    satisfy m * d_j // g = |b_ij| and m * d_i // g = |b_ji|.
    """
    out = []
    for i, j in arrows(b):
        m = gcd(abs(b[i][j]), abs(b[j][i]))
        g = gcd(diag[i], diag[j])
        out.append((i, j, m, g))
    return out


def principal_framing(b):
    """Stack an identity block of frozen rows under the square matrix."""
    n, _ = mx.shape(b)
    return mx.freeze(list(b) + list(mx.identity(n)))


def compatibility_defect(btilde, lam, diag):
    """The matrix btilde^T * lam - [diag | 0]; zero iff the pair is good."""
    n = len(btilde[0])
    prod = mx.matmul(mx.transpose(btilde), lam)
    target = tuple(
        tuple(diag[i] if i == j else 0 for j in range(2 * n))
        for i in range(n)
    )
    return mx.add(prod, mx.neg(target))


def star_left_matrix(b):
    """Square matrix with 1 on the diagonal and min(b_ij, 0) off it."""
    n, _ = mx.shape(b)
    return tuple(
        tuple((1 if i == j else 0) + min(b[i][j], 0) for j in range(n))
        for i in range(n)
    )


def framed_star_matrix(btilde):
    """The 2n x n extension of the star-left matrix to a framed seed.

    Mutable rows carry 1 + min(b_ij, 0) on and off the diagonal as in
    the square case.  A frozen row enters only when it is entrywise
    nonpositive; rows holding a positive entry contribute nothing.  For
    a framing reached from the principal one by a single mutation this
    keeps exactly the row of a vertex mutated at a source, and for the
    principal framing itself (unit rows) the frozen block vanishes.
    """
    n = len(btilde[0])
    rows = list(star_left_matrix(btilde[:n]))
    for i in range(n):
        frozen = btilde[n + i]
        if all(x <= 0 for x in frozen):
            rows.append(tuple(frozen))
        else:
            rows.append((0,) * n)
    return tuple(rows)


def mutate_lam(lam, btilde, k):
    """The form E^T * lam * E after mutation at k, in O(size^2).

    E is the identity except in column k, which holds c with c_k = -1
    and c_i = max(-b_ik, 0) otherwise.  So lam * E differs from lam only
    in column k, which becomes lam * c, and E^T * (lam * E) differs from
    lam * E only in row k, which becomes c^T * (lam * E).
    """
    c = [(k, -1)] + [(i, -row[k]) for i, row in enumerate(btilde) if row[k] < 0]
    rows = [list(row) for row in lam]
    for row in rows:
        row[k] = sum(ci * row[i] for i, ci in c)
    rows[k] = [sum(ci * rows[i][j] for i, ci in c) for j in range(len(lam))]
    return tuple(tuple(row) for row in rows)


def mutate_btilde(btilde, k):
    """The framed matrix mutated at k.  Row k and column k change sign.
    Off them, b_ij gains |b_ik| * b_kj exactly where b_ik and b_kj share
    a sign, so a row with b_ik = 0 is kept as it is."""
    row_k = btilde[k]
    pos = [(j, x) for j, x in enumerate(row_k) if x > 0 and j != k]
    neg = [(j, x) for j, x in enumerate(row_k) if x < 0 and j != k]
    out = []
    for i, row in enumerate(btilde):
        b_ik = row[k]
        if i == k:
            row = tuple(-x for x in row)
        elif b_ik:
            row = list(row)
            row[k] = -b_ik
            size = abs(b_ik)
            for j, b_kj in pos if b_ik > 0 else neg:
                row[j] += size * b_kj
            row = tuple(row)
        out.append(row)
    return tuple(out)


class ExchangeData(FrozenRecord):
    """Framed exchange matrix plus symmetrizer and compatible skew form.

    ``btilde`` is 2n x n with the mutable block on top, ``diag`` is the
    length-n symmetrizer of the initial principal part (mutation keeps
    it), and ``lam`` is the 2n x 2n skew form, or None in the data of a
    classical seed, which never reads it.
    """

    __slots__ = _fields = ("n", "btilde", "diag", "lam")

    def __init__(self, n, btilde, diag, lam):
        self._fill(n, btilde, diag, lam)

    def principal(self):
        return self.btilde[: self.n]

    def is_finite_type(self):
        """Whether the symmetrized Cartan companion D*A(B), with a_kk = 2
        and a_kj = -|b_kj|, is positive definite by leading minors.  For
        an acyclic B this says the exchange graph is finite."""
        b = self.principal()
        da = tuple(
            tuple(d * (2 if k == j else -abs(x)) for j, x in enumerate(row))
            for k, (d, row) in enumerate(zip(self.diag, b))
        )
        return all(
            mx.det(tuple(row[:m] for row in da[:m])) > 0
            for m in range(1, self.n + 1)
        )

    def mutate(self, k):
        """The data mutated at k.  The framed matrix follows the exchange
        rule.  A form becomes E^T * lam * E, where E = I + (c - e_k) e_k^T
        is a rank-one change of the identity (column k replaced by the c
        of ``mutate_lam``).  Only row k and column k of lam change, so the
        update costs O(n^2) instead of two dense 2n x 2n products."""
        if not 0 <= k < self.n:
            raise IndexOutOfRange("mutable index %d out of range" % k)
        lam = self.lam
        if lam is not None:
            lam = mutate_lam(lam, self.btilde, k)
        return ExchangeData(
            self.n, mutate_btilde(self.btilde, k), self.diag, lam
        )

    def lam_pairing(self, a, b):
        return sum(
            a[i] * self.lam[i][j] * b[j]
            for i in range(2 * self.n)
            for j in range(2 * self.n)
            if self.lam[i][j]
        )


def build_exchange_data(b, lambda0=None, diag=None):
    """Assemble an ``ExchangeData`` from a square integer matrix.

    The symmetrizer defaults to the minimal positive one, and the skew
    form is completed from ``lambda0`` (default zero) so that the framed
    matrix pairs with it to [diag | 0].
    """
    b = mx.freeze(b)
    n, ncols = mx.shape(b)
    if n != ncols:
        raise NotSkewSymmetrizable("matrix is not square")
    if diag is None:
        diag = minimal_symmetrizer(b)
    else:
        diag = tuple(int(d) for d in diag)
        minimal_symmetrizer(b)
        check_symmetrizer(b, diag)
    if not is_acyclic(b):
        raise NotAcyclic("principal part has a directed cycle")
    if lambda0 is None:
        lambda0 = mx.zeros(n, n)
    else:
        lambda0 = mx.freeze(lambda0)
        if mx.shape(lambda0) != (n, n):
            raise Lambda0NotSkew("base form must be %d x %d" % (n, n))
        if not mx.is_skew_symmetric(lambda0):
            raise Lambda0NotSkew("base form must be skew-symmetric")
    dmat = tuple(
        tuple(diag[i] if i == j else 0 for j in range(n)) for i in range(n)
    )
    bt = mx.transpose(b)
    upper_right = mx.add(mx.neg(mx.matmul(lambda0, b)), mx.neg(dmat))
    lower_left = mx.add(mx.neg(mx.matmul(bt, lambda0)), dmat)
    lower_right = mx.add(mx.matmul(bt, mx.matmul(lambda0, b)), mx.matmul(bt, dmat))
    lam = []
    for i in range(n):
        lam.append(tuple(lambda0[i]) + tuple(upper_right[i]))
    for i in range(n):
        lam.append(tuple(lower_left[i]) + tuple(lower_right[i]))
    lam = tuple(lam)
    btilde = principal_framing(b)
    if not mx.is_skew_symmetric(lam):
        raise Lambda0NotSkew("completed form is not skew")
    defect = compatibility_defect(btilde, lam, diag)
    if any(any(row) for row in defect):
        raise IncompatiblePair("framed matrix does not pair to [diag | 0]")
    return ExchangeData(n=n, btilde=btilde, diag=diag, lam=lam)


BUILTIN_MATRICES = {
    "A2": ((0, 1), (-1, 0)),
    "B2": ((0, 1), (-2, 0)),
    "C2": ((0, 2), (-1, 0)),
    "G2": ((0, 1), (-3, 0)),
    "A3": ((0, 1, 0), (-1, 0, 1), (0, -1, 0)),
    "B3": ((0, 1, 0), (-1, 0, 1), (0, -2, 0)),
    "WILD3": ((0, 2, 2), (-1, 0, 1), (-1, -1, 0)),
}


def builtin_exchange_data(name):
    key = name.upper()
    if key not in BUILTIN_MATRICES:
        raise UnknownMatrixType(
            "unknown type %r; known: %s" % (name, sorted(BUILTIN_MATRICES))
        )
    return build_exchange_data(BUILTIN_MATRICES[key])
