"""Finite fields, subfield towers, and exact linear algebra over them.

Elements of the field with p**d elements are integer codes 0..p**d-1,
read as base-p digit vectors: code sum(c_i * p**i) stands for the class
of sum(c_i * t**i) modulo a fixed monic irreducible of degree d.  The
modulus is the irreducible with the smallest code, read the same way
with the leading 1 dropped; it is found by trial division by every monic
polynomial of degree at most d/2.  Multiplication runs through exp/log
tables for a primitive element gen, filled by following a table of
multiplication by gen from 1 (see FiniteField).  Over a prime field
addition is integer arithmetic mod p; over an extension it is one lookup
in the Zech table zech[k] = log(1 + gen**k) (Huber 1990), since
a + b = a * (1 + b/a).  Everything is exact and
sized for desk-scale exhaustion, guarded by an element-count cap, and
integer: Gaussian binomials too are products with exact divisions.
"""

from bisect import bisect
from functools import lru_cache
from itertools import combinations, product
from math import gcd


class NotPrime(ValueError):
    """The characteristic must be a prime number."""


class CapExceeded(RuntimeError):
    """A field or an enumeration would exceed the configured size cap."""


# The largest field a tower builds unless told otherwise.
DEFAULT_CAP = 1 << 16
# The most subspaces one Grassmannian may enumerate.
ENUMERATION_CAP = 2_000_000


def is_prime(n):
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


def prime_factors(n):
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1
    if n > 1:
        out.append(n)
    return out


# -- dense polynomial helpers over the prime field (coefficient lists,
#    constant term first) used only while a field is being set up --


def _ptrim(c):
    while c and c[-1] == 0:
        c.pop()
    return c


def _pmod(a, f, p):
    # f must be monic
    a = list(a)
    df = len(f) - 1
    while len(a) - 1 >= df and a:
        lead = a[-1] % p
        if lead:
            shiftby = len(a) - 1 - df
            for i, c in enumerate(f):
                a[shiftby + i] = (a[shiftby + i] - lead * c) % p
        a.pop()
        _ptrim(a)
    return _ptrim(a)


def _monic(code, p, d):
    """The monic polynomial of degree d whose lower coefficients are the
    base-p digits of code, as a coefficient list."""
    coeffs = []
    for _ in range(d):
        coeffs.append(code % p)
        code //= p
    return coeffs + [1]


def _smallest_modulus(p, d):
    """The monic irreducible of degree d with the smallest code: the first
    monic polynomial that no monic polynomial of degree 1..d//2 divides."""
    divisors = [
        _monic(code, p, k) for k in range(1, d // 2 + 1) for code in range(p**k)
    ]
    for code in range(p**d):
        f = _monic(code, p, d)
        if all(_pmod(f, g, p) for g in divisors):
            return tuple(f)
    raise AssertionError("no irreducible polynomial found")


class FiniteField:
    """The field with p**d elements, with exp/log multiplication tables.

    gen is the primitive element with the smallest code.  An extension's
    search starts at the code p of t: codes below p are the prime-field
    constants, whose order divides p - 1 < q - 1, so none is primitive.
    Multiplication by gen is linear over the prime field, so the table
    step[x] = gen * x is built from the d images gen * t**s alone: digit i
    of gen * x is the sum over s of x_s times digit i of gen * t**s, mod
    p.  The list of digit i over all codes grows one digit position s of
    x at a time: it becomes p copies of itself, copy a shifted by a times
    digit i of gen * t**s.  The d digit lists are then folded into codes.
    exp follows step from 1; log inverts exp, and zech reads 1 + x by
    adding 1 to the lowest digit of x.
    """

    def __init__(self, p, d):
        p, d = int(p), int(d)
        if not is_prime(p):
            raise NotPrime("characteristic %d is not prime" % p)
        if d < 1:
            raise ValueError("degree must be positive")
        self.p = p
        self.d = d
        self.q = p**d
        self.modulus = _smallest_modulus(p, d)
        # digit vectors of t**k mod modulus for k < 2d-1, for raw products
        red = []
        tk = [1]
        for _ in range(max(2 * d - 1, 1)):
            red.append(tuple(tk[i] if i < len(tk) else 0 for i in range(d)))
            tk = _pmod([0] + tk, self.modulus, p)
        self._tred = red
        self._build_tables()

    def digits(self, a):
        out = []
        for _ in range(self.d):
            out.append(a % self.p)
            a //= self.p
        return out

    def from_digits(self, digs):
        code = 0
        for c in reversed(digs):
            code = code * self.p + (c % self.p)
        return code

    def add(self, a, b):
        if self.d == 1:
            return (a + b) % self.p
        return self._plus(a, self.log[b]) if b else a

    def neg(self, a):
        if self.d == 1:
            return -a % self.p
        return self.exp[(self.log[a] + self._minus) % (self.q - 1)] if a else 0

    def sub(self, a, b):
        if self.d == 1:
            return (a - b) % self.p
        return self._plus(a, self.log[b] + self._minus) if b else a

    def _plus(self, a, k):
        """a + gen**k, through the Zech table: a * (1 + gen**(k - log a))."""
        n = self.q - 1
        if not a:
            return self.exp[k % n]
        la = self.log[a]
        z = self.zech[(k - la) % n]
        return self.exp[(la + z) % n] if z >= 0 else 0

    def _raw_mul(self, a, b):
        # convolution of digit vectors, then reduction by the t-power table
        p = self.p
        da = self.digits(a)
        db = self.digits(b)
        conv = [0] * (2 * self.d - 1)
        for i, x in enumerate(da):
            if x:
                for j, y in enumerate(db):
                    conv[i + j] = (conv[i + j] + x * y) % p
        out = [0] * self.d
        for k, c in enumerate(conv):
            if c:
                rk = self._tred[k]
                for i in range(self.d):
                    out[i] = (out[i] + c * rk[i]) % p
        return self.from_digits(out)

    def _raw_pow(self, a, e):
        out = 1
        sq = a
        while e:
            if e & 1:
                out = self._raw_mul(out, sq)
            sq = self._raw_mul(sq, sq)
            e >>= 1
        return out

    def _build_tables(self):
        q, p, d = self.q, self.p, self.d
        if q == 2:
            self.gen = 1
        else:
            # codes below p are prime-field constants, whose order divides
            # p - 1, so an extension's search starts at p
            factors = prime_factors(q - 1)
            for cand in range(p if d > 1 else 2, q):
                if all(
                    self._raw_pow(cand, (q - 1) // ell) != 1 for ell in factors
                ):
                    self.gen = cand
                    break
            else:
                raise AssertionError("no primitive element found")
        # step[x] = gen * x, one digit i of every code at a time, then
        # folded into codes highest digit first (see the class docstring)
        images = [self.digits(self._raw_mul(self.gen, p**s)) for s in range(d)]
        step = [0] * q
        for i in reversed(range(d)):
            lst = [0]
            for image in images:
                k = image[i]
                lst = [(y + a * k) % p for a in range(p) for y in lst]
            step = [c * p + y for c, y in zip(step, lst)]
        exp = [1] * (q - 1)
        x = 1
        for i in range(1, q - 1):
            x = step[x]
            exp[i] = x
        log = [0] * q
        for i, v in enumerate(exp):
            log[v] = i
        # 1 + x adds 1 to the lowest digit of x, mod p
        zech = [-1] * (q - 1)
        for k, v in enumerate(exp):
            one_plus = v + 1 if v % p != p - 1 else v + 1 - p
            if one_plus:
                zech[k] = log[one_plus]
        self.exp = tuple(exp)
        self.log = tuple(log)
        self.zech = tuple(zech)
        # log(-1): -1 = gen**((q-1)/2), and -1 = 1 when p = 2
        self._minus = 0 if p == 2 else (q - 1) // 2

    def mul(self, a, b):
        if a == 0 or b == 0:
            return 0
        return self.exp[(self.log[a] + self.log[b]) % (self.q - 1)]

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return self.exp[(-self.log[a]) % (self.q - 1)]

    def pow(self, a, k):
        if a == 0:
            if k > 0:
                return 0
            if k == 0:
                return 1
            raise ZeroDivisionError("negative power of zero")
        return self.exp[(self.log[a] * k) % (self.q - 1)]

    def eval_poly(self, coeffs, x):
        """Horner evaluation; coeffs are field codes, constant term first."""
        acc = 0
        for c in reversed(coeffs):
            acc = self.add(self.mul(acc, x), c)
        return acc

    def roots(self, coeffs):
        return [x for x in range(self.q) if self.eval_poly(coeffs, x) == 0]

    def __repr__(self):
        return "FiniteField(%d^%d)" % (self.p, self.d)


# -- exact linear algebra with matrices as lists of rows of codes --


def f_matmul(field, a, b):
    if not a or not b:
        return [[]]
    nb = len(b[0])
    out = []
    for row in a:
        new = [0] * nb
        for k, x in enumerate(row):
            if x:
                bk = b[k]
                for j in range(nb):
                    if bk[j]:
                        new[j] = field.add(new[j], field.mul(x, bk[j]))
        out.append(new)
    return out


def f_matvec(field, a, v):
    out = []
    for row in a:
        acc = 0
        for x, y in zip(row, v):
            if x and y:
                acc = field.add(acc, field.mul(x, y))
        out.append(acc)
    return out


def _scale(field, c, v):
    """The vector c * v."""
    if field.d == 1:
        p = field.p
        return [c * x % p for x in v]
    exp, log, n = field.exp, field.log, field.q - 1
    lc = log[c]
    return [exp[(lc + log[x]) % n] if x else 0 for x in v]


def _eliminate(field, v, c, row):
    """The vector v - c * row."""
    if field.d == 1:
        # prime-field codes are residues: plain integer arithmetic
        p = field.p
        return [(x - c * y) % p for x, y in zip(v, row)]
    # x - c*y = x + gen**(log(-c) + log y)
    plus, log = field._plus, field.log
    lc = log[c] + field._minus
    return [plus(x, lc + log[y]) if y else x for x, y in zip(v, row)]


def f_insert(field, rows, pivots, vec):
    """Insert vec into a reduced echelon basis.

    ``rows`` is the basis with its pivot columns ``pivots``, sorted by
    pivot.  Returns the reduced echelon basis of the span of both and its
    pivots, as new lists, or the given lists when vec already lies in
    their span.  Neither the lists nor their rows are changed, so a
    caller may keep the old basis beside the new one.
    """
    v = vec
    for row, pc in zip(rows, pivots):
        if v[pc]:
            v = _eliminate(field, v, v[pc], row)
    for col, x in enumerate(v):
        if x:
            break
    else:
        return rows, pivots
    if v[col] != 1:
        v = _scale(field, field.inv(v[col]), v)
    elif v is vec:
        v = list(vec)
    at = bisect(pivots, col)
    rows = [
        _eliminate(field, row, row[col], v) if row[col] else row for row in rows
    ]
    return rows[:at] + [v] + rows[at:], pivots[:at] + [col] + pivots[at:]


def f_rref(field, rows):
    """The reduced row echelon basis of the span of ``rows`` and its
    pivot columns, built by ``f_insert`` of each row in turn.  A zero or
    dependent row adds nothing, so there is one basis row per pivot."""
    red, pivots = [], []
    for row in rows:
        red, pivots = f_insert(field, red, pivots, row)
    return red, pivots


def f_rank(field, rows):
    """The rank, by elimination below each pivot only."""
    m = [r for r in rows if any(r)]
    rank = 0
    for col in range(len(m[0]) if m else 0):
        for i in range(rank, len(m)):
            if m[i][col]:
                break
        else:
            continue
        m[rank], m[i] = m[i], m[rank]
        pivot = m[rank]
        inv = field.inv(pivot[col])
        for i in range(rank + 1, len(m)):
            if m[i][col]:
                m[i] = _eliminate(field, m[i], field.mul(m[i][col], inv), pivot)
        rank += 1
        if rank == len(m):
            break
    return rank


def f_kernel_basis(field, rows, ncols):
    """Basis of the right kernel of the matrix with ``ncols`` columns (one
    vector per free column); with no rows, of the whole space."""
    m, pivots = f_rref(field, rows)
    pivset = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivset:
            continue
        v = [0] * ncols
        v[free] = 1
        for r, pcol in enumerate(pivots):
            v[pcol] = field.neg(m[r][free])
        basis.append(v)
    return basis


def to_digits(field, vec):
    """Flatten codes of ``field`` into base-p digits (index r*d + s)."""
    if field.d == 1:
        return list(vec)
    out = []
    for a in vec:
        out.extend(field.digits(a))
    return out


def f_preimage(field, matrix, rows, ncols):
    """A basis of the x in field**ncols that ``matrix`` maps into the span
    of the independent ``rows``: the first ncols coordinates of the kernel
    of [matrix | rows^T], which are zero on no nonzero kernel vector."""
    tails = list(zip(*rows)) if rows else [()] * len(matrix)
    system = [list(head) + list(tail) for head, tail in zip(matrix, tails)]
    return [v[:ncols] for v in f_kernel_basis(field, system, ncols + len(rows))]


def block_diagonal(block, copies):
    """The square matrix with the given block repeated down its diagonal,
    as a map of a fiber in subfield coordinates."""
    e = len(block)
    return [
        [block[a][b] if r == c else 0 for c in range(copies) for b in range(e)]
        for r in range(copies)
        for a in range(e)
    ]


def f_inverse(field, rows):
    n = len(rows)
    aug = [list(r) + [1 if i == j else 0 for j in range(n)] for i, r in enumerate(rows)]
    m, pivots = f_rref(field, aug)
    if pivots != list(range(n)):
        raise ZeroDivisionError("matrix is singular")
    return [row[n:] for row in m]


# -- Grassmannians --


@lru_cache(maxsize=4096)
def gaussian_binomial(q, n, k):
    """Number of k-dimensional subspaces of an n-space over a q-element field."""
    if k < 0 or k > n:
        return 0
    # after step i the product is [n, i + 1]_q, an integer, so each
    # division is exact
    out = 1
    for i in range(k):
        out = out * (q ** (n - i) - 1) // (q ** (i + 1) - 1)
    return out


def subspace_total(q, n):
    """Number of subspaces, of every dimension, of an n-space over F_q."""
    return sum(gaussian_binomial(q, n, k) for k in range(n + 1))


@lru_cache(maxsize=4096)
def meet_counts(q, n, m):
    """(a, j, number of a-dimensional subspaces of an n-space over F_q
    that meet a fixed m-dimensional subspace in dimension j), for every
    nonzero number.  The l-dimensional subspaces L of the fixed one
    number [m, l]_q, and [n - l, a - l]_q subspaces W contain each, so
    A_l(a) = [m, l]_q [n - l, a - l]_q counts the pairs L in W.  Moebius
    inversion on the lattice of subspaces (Goldman-Rota) gives the
    q-Vandermonde counts N_a(j) = sum over l of (-1)**(l-j) q**C(l-j, 2)
    [l, j]_q A_l(a).
    """
    binomial = gaussian_binomial
    out = {}
    for a in range(n + 1):
        for l in range(min(a, m) + 1):
            total = binomial(q, m, l) * binomial(q, n - l, a - l)
            for j in range(l + 1):
                r = l - j
                term = q ** (r * (r - 1) // 2) * binomial(q, l, j)
                term *= -total if r % 2 else total
                out[a, j] = out.get((a, j), 0) + term
    return tuple((a, j, count) for (a, j), count in out.items() if count)


def enumerate_subspaces(field, n, k):
    """All k-dimensional subspaces of field**n as RREF basis row-lists."""
    if k < 0 or k > n:
        return
    total = gaussian_binomial(field.q, n, k)
    if total > ENUMERATION_CAP:
        raise CapExceeded("grassmannian has %d points" % total)
    if k == 0:
        yield []
        return
    for pivots in combinations(range(n), k):
        free_slots = []
        for r, pc in enumerate(pivots):
            for col in range(pc + 1, n):
                if col not in pivots:
                    free_slots.append((r, col))
        for values in product(range(field.q), repeat=len(free_slots)):
            rows = [[0] * n for _ in range(k)]
            for r, pc in enumerate(pivots):
                rows[r][pc] = 1
            for (r, col), val in zip(free_slots, values):
                rows[r][col] = val
            yield rows


def enumerate_subspaces_containing(field, n, k, sub_rows):
    """All k-dimensional subspaces of field**n containing the span of
    ``sub_rows``, which may be zero, repeated, dependent or unreduced.

    ``f_rref`` reduces that span to a basis with w pivots.  Each
    (k - w)-dimensional subspace of the quotient, read in the n - w free
    columns, is yielded as that basis followed by its own rows placed in
    the free columns.  So the count is a Grassmannian of the quotient,
    not of the ambient space.
    """
    reduced, pivots = f_rref(field, sub_rows)
    if not pivots:
        yield from enumerate_subspaces(field, n, k)
        return
    w = len(pivots)
    if k < w or k > n:
        return
    free = [c for c in range(n) if c not in pivots]
    for qrows in enumerate_subspaces(field, n - w, k - w):
        lifted = [list(r) for r in reduced]
        for qr in qrows:
            v = [0] * n
            for idx, col in enumerate(free):
                v[col] = qr[idx]
            lifted.append(v)
        yield lifted


def extension_vectors(tower, d, g, target, rows):
    """Vectors over ``target`` spanning W(x), the span over that field of
    the F_g-coordinate vectors of W, for the span W of ``rows`` over the
    degree-d field of ``tower``: the coordinates over the degree-g
    subfield (``FieldTower.to_subfield``) of t**l * x for each row x and
    l < d / g, which span W over F_g, embedded in the target field."""
    field = tower.field(d)
    out = []
    for x in rows:
        for l in range(d // g):
            coords = tower.to_subfield(d, g, _scale(field, field.p**l, x) if l else x)
            out.append([tower.embed(g, target.d, c) for c in coords])
    return out


def special_subspaces(tower, d, n, forced, maps):
    """(special, shared, raised) for the subspaces W of V = field**n, over
    the degree-d field of ``tower``, above the span F of ``forced``, a
    reduced echelon basis with its pivots; None when the preimages below
    hold, on their cheaper sides, as many lines as there are W.

    ``maps`` holds (phi, g, target, rows) for a map chi from V, linear
    over the degree-g subfield, into a space over the target's field E:
    the rows of its evaluation map phi and a basis over E of a subspace T.
    phi is linear over E, from V(x) = E**(n e), e = d / g, where W(x), the
    E-span of the F_g-coordinate vectors of W (``extension_vectors``),
    has dimension e dim W and chi(W) spans phi(W(x)).  So dim(T + chi(W))
    = dim T + e dim W - dim(W(x) meet J) for the preimage J = phi^-1(T).
    Each J is read from the side with fewer E-lines, and W is special
    when its meet with J is not the one that side predicts.

    The primal side is an E-linear complement of F(x) in F(x) + J, of
    dimension r.  W(x) contains a line L of it exactly when W contains
    R(L), the span of the descent of a vector of L: the vectors of V
    whose F_g-coordinate vectors are its coordinates over F_g in E's
    basis 1, t, ...  So W is special when it contains F + R(L); every
    other W(x) meets F(x) + J in F(x), so W(x) meets J as F(x) does.  The
    dual side, taken when 2r > e(n - f), is the annihilator K of F(x) + J
    under the pairing that the trace form sum tr(x_r y_r) from V to F_g
    (``FieldTower.trace_gram`` down the diagonal) extends to V(x), of
    dimension e(n - f) - r.  W(x) is orthogonal to a line xi of K exactly
    when W lies in U_xi, where sum eta_r y_r = 0 for each eta in the
    descent of xi, so W is special when F <= W <= U_xi; every other W has
    W(x) + J = V(x).  ``special`` lists the special W once each, as
    reduced echelon bases, and shared[a] counts the others of dimension
    dim F + a over the field.  ``raised`` holds, for each map, the (s, c)
    with dim(T + chi(W)) = dim(T + chi(F)) + s a + c over E on each of
    those: (e, 0) on the primal side, and (0, dim K) on the dual.
    """
    field = tower.field(d)
    rows = forced[0]
    f = len(rows)
    shared = [gaussian_binomial(field.q, n - f, a) for a in range(n - f + 1)]
    sides, raised, lines = [], [], 0
    for phi, g, target, t_rows in maps:
        e = d // g
        span = ([], [])
        for y in extension_vectors(tower, d, g, target, rows):
            span = f_insert(target, *span, y)
        kept = []
        for y in f_preimage(target, phi, t_rows, n * e):
            bigger = f_insert(target, *span, y)
            if bigger[0] is not span[0]:
                kept.append(y)
                span = bigger
        dual = 2 * len(kept) > e * (n - f)
        if dual:
            gram = tower.trace_gram(d, g)[0]
            gram = [[tower.embed(g, target.d, c) for c in row] for row in gram]
            pairing = f_matmul(target, span[0], block_diagonal(gram, n))
            kept = f_kernel_basis(target, pairing, n * e)
        raised.append((0, len(kept)) if dual else (e, 0))
        lines += (target.q ** len(kept) - 1) // (target.q - 1)
        if lines >= sum(shared):
            return None
        sides.append((kept, g, target, dual))
    # each special W lies between a span ``low`` and the kernel of ``high``
    bounds, special = {}, {}
    for kept, g, target, dual in sides:
        for (coeffs,) in enumerate_subspaces(target, len(kept), 1):
            y = [0] * len(kept[0])
            for c, z in zip(coeffs, kept):
                if c:
                    y = [target.add(a, b) for a, b in zip(y, _scale(target, c, z))]
            parts = zip(*(tower.subfield_coords(target.d, g, c) for c in y))
            descent = [tower.from_subfield(d, g, part) for part in parts]
            if dual:
                low, high = rows, f_rref(field, descent)
            else:
                low, high = f_rref(field, rows + descent)[0], ([], [])
            bounds[tuple(map(tuple, low + high[0])), dual] = low, high
    for low, (high, drop) in bounds.values():
        # a vector of the kernel is its entries at the free columns times
        # the kernel basis; with no ``high``, itself
        basis = f_kernel_basis(field, high, n) if high else None
        free = [c for c in range(n) if c not in drop]
        coords = [[y[c] for c in free] for y in low]
        for k in range(len(low), len(free) + 1):
            for w in enumerate_subspaces_containing(field, len(free), k, coords):
                red, _ = f_rref(field, f_matmul(field, w, basis) if high else w)
                special.setdefault(tuple(map(tuple, red)), red)
    for w in special.values():
        shared[len(w) - f] -= 1
    return list(special.values()), shared, raised


# -- towers of fields with compatible embeddings --


class FieldTower:
    """A family of fields of one characteristic, closed under gcd of
    degrees, with fixed pairwise embeddings along divisibility."""

    def __init__(self, p, degrees, cap=DEFAULT_CAP):
        p = int(p)
        if not is_prime(p):
            raise NotPrime("characteristic %d is not prime" % p)
        degs = set(int(d) for d in degrees)
        degs.add(1)
        for a in list(degs):
            for b in list(degs):
                degs.add(gcd(a, b))
        self.p = p
        self.degrees = tuple(sorted(degs))
        # Before any field is built, the smallest field over the cap.
        for d in self.degrees:
            if p**d > cap:
                raise CapExceeded("field size %d exceeds cap %d" % (p**d, cap))
        self.fields = {d: FiniteField(p, d) for d in self.degrees}
        self._emb = {}
        self._emb_inv = {}
        self._coords = {}
        self._gram = {}
        # inner loop descends so that when (a, b) routes through an
        # intermediate c, both (a, c) and (c, b) already exist
        for b in self.degrees:
            for a in reversed(self.degrees):
                if a < b and b % a == 0:
                    self._emb[(a, b)] = self._build_embedding(a, b)

    def field(self, d):
        return self.fields[d]

    def _build_embedding(self, a, b):
        if a == 1:
            return tuple(range(self.p))
        # route through an intermediate subfield when the tower has one,
        # which keeps compositions along chains consistent by construction
        for c in self.degrees:
            if a < c < b and c % a == 0 and b % c == 0:
                lower = self._emb[(a, c)]
                upper = self._emb[(c, b)]
                return tuple(upper[x] for x in lower)
        fa = self.fields[a]
        fb = self.fields[b]
        # the modulus of the small field has prime-field coefficients,
        # which are the same codes in every field of the tower
        coeffs = list(fa.modulus)
        roots = fb.roots(coeffs)
        if not roots:
            raise AssertionError("modulus has no root in the bigger field")
        r = min(roots)
        images = []
        for x in range(fa.q):
            digs = fa.digits(x)
            images.append(fb.eval_poly(digs, r))
        return tuple(images)

    def embed(self, a, b, x):
        if a == b:
            return x
        return self._emb[(a, b)][x]

    def embed_inverse(self, b, a, y):
        if a == b:
            return y
        key = (b, a)
        if key not in self._emb_inv:
            self._emb_inv[key] = {
                img: x for x, img in enumerate(self._emb[(a, b)])
            }
        table = self._emb_inv[key]
        if y not in table:
            raise ValueError("element is not in the subfield")
        return table[y]

    def relative_trace(self, b, a, x):
        """Trace from the degree-b field down to its degree-a subfield."""
        if a == b:
            return x
        fb = self.fields[b]
        step = self.p**a
        acc = x
        y = x
        for _ in range(b // a - 1):
            y = fb.pow(y, step)
            acc = fb.add(acc, y)
        return self.embed_inverse(b, a, acc)

    def subfield_coords(self, b, a, y):
        """Coordinates of y over the degree-a subfield in the basis of
        powers 1, t, ..., t**(b/a - 1) of the big field's generator.
        Over the prime field that basis is the digit basis."""
        if a == b:
            return (y,)
        if a == 1:
            return tuple(self.fields[b].digits(y))
        fa = self.fields[a]
        fb = self.fields[b]
        e = b // a
        key = (b, a)
        if key not in self._coords:
            cols = []
            for l in range(e):
                tb_l = fb.pow(self.p, l) if l else 1
                for s in range(a):
                    ta_s = fa.from_digits(
                        [1 if i == s else 0 for i in range(a)]
                    )
                    val = fb.mul(self.embed(a, b, ta_s), tb_l)
                    cols.append(fb.digits(val))
            # solve digit systems through the inverse over the prime field
            mat = [[cols[j][i] for j in range(b)] for i in range(b)]
            prime = self.fields[1]
            self._coords[key] = f_inverse(prime, mat)
        invmat = self._coords[key]
        prime = self.fields[1]
        sol = f_matvec(prime, invmat, fb.digits(y))
        out = []
        for l in range(e):
            out.append(fa.from_digits(sol[l * a : (l + 1) * a]))
        return tuple(out)

    def from_subfield_coords(self, b, a, coords):
        fb = self.fields[b]
        if a == 1:
            return fb.from_digits(coords)
        acc = 0
        for l, c in enumerate(coords):
            tb_l = fb.pow(self.p, l) if l else 1
            acc = fb.add(acc, fb.mul(self.embed(a, b, c), tb_l))
        return acc

    def to_subfield(self, b, a, vec):
        """A vector over the degree-b field flattened into its coordinates
        over the degree-a subfield (``subfield_coords`` of each entry)."""
        out = []
        for x in vec:
            out.extend(self.subfield_coords(b, a, x))
        return out

    def from_subfield(self, b, a, gvec):
        """The vector over the degree-b field whose ``to_subfield`` is
        gvec."""
        e = b // a
        return [
            self.from_subfield_coords(b, a, gvec[r : r + e])
            for r in range(0, len(gvec), e)
        ]

    def trace_gram(self, b, a):
        """The Gram matrix tr(t**i * t**l) of the relative trace form from
        the degree-b field to its degree-a subfield on the basis 1, t, ...,
        t**(e-1), and its inverse, both over the subfield."""
        key = (b, a)
        if key not in self._gram:
            fb = self.fields[b]
            e = b // a
            # powers of t; t is the code p, which the prime field lacks
            tpow = [fb.pow(self.p, k) if k else 1 for k in range(2 * e - 1)]
            gram = [
                [self.relative_trace(b, a, tpow[i + l]) for l in range(e)]
                for i in range(e)
            ]
            self._gram[key] = (gram, f_inverse(self.fields[a], gram))
        return self._gram[key]


_TOWERS = {}


def build_tower(p, degrees, cap=DEFAULT_CAP):
    """The tower for (p, degrees, cap), built on first request and shared
    by every later one; towers are immutable apart from lazy caches."""
    key = (int(p), tuple(sorted(set(int(d) for d in degrees))), int(cap))
    if key not in _TOWERS:
        _TOWERS[key] = FieldTower(p, degrees, cap=cap)
    return _TOWERS[key]
