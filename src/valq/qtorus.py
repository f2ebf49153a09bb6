"""Quantum torus elements and quantum seed mutation.

Elements are sums of bar-invariant basis monomials X^a over Z[u, 1/u],
u**2 = q, with X^a * X^b = u^(a^T L b) X^(a+b) for the skew form L, keyed
by packed exponents (``valq.laurent``).  A coefficient c = sum c_k u^k is
one pair (lo, N): lo its lowest power of u, N = c / u^lo at u = 2^W, each
c_k a balanced W-bit slot of N, the lowest nonzero.  W is the least
multiple of 64 with 2^(W-1) above every coefficient's l1 norm, so equal
elements hold equal pairs and N mod (2^W - 1) is c(1).  W is never
guessed: elements carry bounds l1max and l1sum on the norm of each
coefficient and of all, sums and products compute at the width their
bounds give, and results past 64 bits are read back for their own width.

Right division eliminates in the torus at u = 2^W, where a unit lead
+-u^k stays a unit, and certifies its quotient Q when l1max(num) +
l1max(Q) l1sum(den) < 2^(W-1): every slot of num - Q den is then in
range, so its zero value at u = 2^W makes it zero.  Otherwise it divides
again at the width that bound asks for.

A divisor must lead with a unit, else ``NonUnitLead``, and every divisor
the program forms does.  Let l(X) be an element's leading exponent and
L_t the 2n x 2n matrix whose columns are the l of seed t's variables.
Induct over the mutations from the initial seed, where L = I.  Suppose
every variable of t leads with a unit and det L_t = +-1.  Leading terms
multiply, so the two terms of the exchange numerator, frame monomials,
lead with units at l+ = L_t b+ and l- = L_t b-.  Also l+ - l- = L_t b_k
is nonzero, because L_t is invertible and b_k is a column of the framed
matrix, which mutation keeps at rank n (Berenstein-Fomin-Zelevinsky,
Cluster algebras III, Lemma 3.2).  So the numerator leads with a unit,
and so does the new X_k' = numerator / X_k.  l(X_k') = max(l+, l-) -
l(X_k) replaces column k of L_t by minus itself plus a combination of
the other columns, so det L stays +-1.  A frame monomial is a product of
powers of such variables, so the divisor of ``characters`` also leads
with a unit.  Nothing catches ``NonUnitLead``: it can only mean a bug.

The cluster fixes the skew form, so no seed key holds it: seed t's form
is L_t^T L L_t.  Variables of a seed quasi-commute, X_i X_j =
u^(2 lambda_ij) X_j X_i, and leading terms multiply, so the leads of the
two sides give lambda_ij = l(X_i)^T L l(X_j).  A classical variable is
the quantum one at u = 1, where its unit lead +-u^k is +-1, so it leads
at the same exponent and fixes the same L_t.

Seeds mutated from one initial seed share the exchange relations already
divided.  A frame monomial folds its basis-monomial factors into one
basis element, with the twist between two of them, a_j^T L a_i, read
off the seed's form as lambda_ji, since a basis monomial X^a leads at a.
A quantum seed keeps each frame monomial that character assembly asks
of it (``QuantumSeed.frame``): its cluster and form fix every one.
"""

from operator import attrgetter, itemgetter, mul

from .laurent import (
    MAX_EXPONENT,
    InexactDivision,
    LaurentPoly,
    SparseTerms,
    ZeroPolynomial,
    _layout,
    univariate,
)
from .record import FrozenRecord, Record


class LambdaMismatch(ValueError):
    """Operands live over different skew forms."""


class NonUnitLead(ArithmeticError):
    """A divisor's leading coefficient is no unit +-u^k (see the module
    docstring: no divisor the program forms has one)."""


# The narrowest slot width, and the mask of one slot of it.
_W = 64
_LOW = (1 << _W) - 1


def _width(l1):
    """The narrowest slot width, a multiple of 64, at which a coefficient
    of l1 norm at most ``l1`` fits: 2^(W-1) > l1."""
    return (l1.bit_length() // _W + 1) * _W


def _slots(n, w):
    """The balanced w-bit slots of the nonzero n, lowest first: the digits
    of n plus 2^(w-1) in each slot, top bits flipped."""
    count = n.bit_length() // w + 2
    half = _halves(w, count)
    data = ((n + half) ^ half).to_bytes(count * w // 8, "little")
    if w == _W:
        # The bytes cast to 64-bit words: ten times the speed of the
        # general path, which every quotient of div_right at 64 bits
        # would take (_settle).
        slots = memoryview(data).cast("q").tolist()
    else:
        size = w // 8
        slots = [
            int.from_bytes(data[i : i + size], "little", signed=True)
            for i in range(0, len(data), size)
        ]
    while not slots[-1]:
        slots.pop()
    return slots


def _halves(w, count):
    """2^(w-1) in each of ``count`` w-bit slots."""
    return int.from_bytes((bytes(w // 8 - 1) + b"\x80") * count, "little")


def _pack(slots, w):
    """The int whose balanced w-bit slots are ``slots``, lowest first."""
    size = w // 8
    data = b"".join(c.to_bytes(size, "little", signed=True) for c in slots)
    half = _halves(w, len(slots))
    return (int.from_bytes(data, "little") ^ half) - half


def _pair(coeff, w):
    """The pair of a nonempty {u-exponent: int} dict at width w."""
    if len(coeff) == 1:
        # one slot, whatever the width
        return next(iter(coeff.items()))
    lo = min(coeff)
    return lo, _pack([coeff.get(k, 0) for k in range(lo, max(coeff) + 1)], w)


def _unpair(pair, w):
    """The {u-exponent: int} dict of a pair at width w."""
    lo, n = pair
    return {lo + i: c for i, c in enumerate(_slots(n, w)) if c}


def _strip(pair, w):
    """A pair with a nonzero N, its zero low slots moved into lo."""
    lo, n = pair
    if n & ((1 << w) - 1):
        return pair
    zeros = ((n & -n).bit_length() - 1) // w
    return lo + zeros, n >> (w * zeros)


def _add(a, b, w):
    """The sum of two pairs at width w, or None when it is zero.  Only
    pairs with one lo can cancel a lowest slot."""
    alo, an = a
    blo, bn = b
    if alo < blo:
        return alo, an + (bn << w * (blo - alo))
    if blo < alo:
        return blo, bn + (an << w * (alo - blo))
    n = an + bn
    return _strip((alo, n), w) if n else None


def _settle(raw, w):
    """(terms, width, l1max, l1sum) of pairs at width w read back: zero
    pairs dropped, the rest normalized at their own width, exact norms."""
    read = {}
    l1max = l1sum = 0
    one_slot = 1 << (w - 1)
    for e, (lo, n) in raw.items():
        if not n:
            continue
        if -one_slot < n < one_slot:
            slots = [n]
        else:
            slots = _slots(n, w)
            low = 0
            while not slots[low]:
                low += 1
            if low:
                slots, lo, n = slots[low:], lo + low, n >> (w * low)
        l1 = sum(map(abs, slots))
        l1max = max(l1max, l1)
        l1sum += l1
        read[e] = (lo, slots, n)
    width = _width(l1max)
    if width == w:
        terms = {e: (lo, n) for e, (lo, _, n) in read.items()}
    else:
        terms = {e: (lo, _pack(s, width)) for e, (lo, s, _) in read.items()}
    return terms, width, l1max, l1sum


def _coeff(value):
    """A coefficient dict from an int or a {u-exponent: int} mapping."""
    if isinstance(value, int):
        return {0: value} if value else {}
    return {int(k): int(c) for k, c in value.items() if c}


def render_coeff(coeff):
    """A coefficient dict as text, highest power of u first: ``u + u^-1``."""
    return univariate(coeff).render(["u"])


class QTorusElem(SparseTerms):
    """Element of the based quantum torus attached to a skew form.

    The constructor takes packed ``terms``, their exponent ``bound``, the
    slot width and the norm bounds as they are; build elements from
    outside data with ``zero``, ``one`` and ``basis_elem``.
    """

    __slots__ = (
        "lam", "nvars", "terms", "_bound", "_w", "_l1max", "_l1sum", "_hash",
        "_sort_key", "_mins",
    )

    def __init__(self, lam, terms, bound, w, l1max, l1sum):
        self.lam = lam
        self.nvars = len(lam)
        self.terms = terms
        self._bound = bound
        self._w = w
        self._l1max = l1max
        self._l1sum = l1sum
        self._hash = self._sort_key = self._mins = None

    @classmethod
    def zero(cls, lam):
        return cls(lam, {}, 0, _W, 0, 0)

    @classmethod
    def one(cls, lam):
        return cls.basis_elem(lam, (0,) * len(lam))

    @classmethod
    def basis_elem(cls, lam, exp, coeff=1):
        """``coeff * X^exp``; ``coeff`` is an int or a {u-exponent: int}
        mapping."""
        exp = tuple(int(e) for e in exp)
        if len(exp) != len(lam):
            raise LambdaMismatch("exponent length mismatch")
        if isinstance(coeff, int):
            if not coeff:
                return cls.zero(lam)
            pair, l1 = (0, coeff), abs(coeff)
        else:
            coeff = _coeff(coeff)
            if not coeff:
                return cls.zero(lam)
            l1 = sum(map(abs, coeff.values()))
            pair = _pair(coeff, _width(l1))
        key = _layout(len(lam)).pack(exp)
        return cls(
            lam, {key: pair}, max(map(abs, exp), default=0), _width(l1), l1, l1
        )

    ring = property(attrgetter("lam"))

    def _like(self, terms, bound):
        # Terms whose coefficients have self's width and norm bounds.
        return QTorusElem(
            self.lam, terms, bound, self._w, self._l1max, self._l1sum
        )

    def _made(self, terms, bound, w, l1max, l1sum):
        """An element over pairs at width w, normalized at 64 bits and
        read back when wider."""
        if w > _W:
            terms, w, l1max, l1sum = _settle(terms, w)
        return QTorusElem(self.lam, terms, bound, w, min(l1max, l1sum), l1sum)

    def _at(self, w):
        """The terms at a width w of at least the element's own."""
        if w == self._w:
            return self.terms
        own = self._w
        return {
            e: (lo, _pack(_slots(n, own), w)) for e, (lo, n) in self.terms.items()
        }

    @staticmethod
    def _coeff_inverse(coeff):
        # The units of Z[u, 1/u] are the signed powers of u.
        lo, n = coeff
        if n not in (1, -1):
            raise InexactDivision("negative power needs a unit coefficient")
        return -lo, n

    def _check(self, other):
        if self.lam is not other.lam and self.lam != other.lam:
            raise LambdaMismatch("different skew forms")

    def _lam_dot(self, b):
        """The vector L*b, so that a^T L b is its dot product with a."""
        return tuple([sum(map(mul, row, b)) for row in self.lam])

    def __eq__(self, other):
        if not isinstance(other, QTorusElem):
            return NotImplemented
        return (
            self._w == other._w
            and self.terms == other.terms
            and (self.lam is other.lam or self.lam == other.lam)
        )

    def __hash__(self):
        if self._hash is None:
            terms = frozenset(self.terms.items())
            self._hash = hash((self.lam, self._w, terms))
        return self._hash

    def __add__(self, other):
        self._check(other)
        l1max = self._l1max + other._l1max
        w = _width(l1max)
        out = dict(self._at(w))
        for e, c in other._at(w).items():
            acc = out.get(e)
            if acc is None:
                out[e] = c
            else:
                s = _add(acc, c, w)
                if s is None:
                    del out[e]
                else:
                    out[e] = s
        return self._made(
            out, max(self._bound, other._bound), w, l1max,
            self._l1sum + other._l1sum,
        )

    def __neg__(self):
        return self._like(
            {e: (lo, -n) for e, (lo, n) in self.terms.items()}, self._bound
        )

    def __mul__(self, other):
        """The twisted product; each left exponent is unpacked once, and
        each pair of terms costs one multiplication."""
        self._check(other)
        if not (self.terms and other.terms):
            return QTorusElem.zero(self.lam)
        bound = self._product_bound(other)
        l1max = min(self._l1max * other._l1sum, self._l1sum * other._l1max)
        w = _width(l1max)
        lay = _layout(self.nvars)
        unpack_key = lay.unpack
        left = [
            (ka - lay.bias, lo, n, unpack_key(ka))
            for ka, (lo, n) in self._at(w).items()
        ]
        out = {}
        for kb, (lb, nb) in other._at(w).items():
            row = self._lam_dot(unpack_key(kb))
            for ka, la, na, ea in left:
                e = ka + kb
                lo = la + lb + sum(map(mul, ea, row))
                acc = out.get(e)
                if acc is None:
                    out[e] = (lo, na * nb)
                elif lo < acc[0]:
                    out[e] = (lo, na * nb + (acc[1] << w * (acc[0] - lo)))
                else:
                    out[e] = (acc[0], acc[1] + (na * nb << w * (lo - acc[0])))
        if w == _W:
            out = {
                e: c if c[1] & _LOW else _strip(c, w)
                for e, c in out.items()
                if c[1]
            }
        return self._made(out, bound, w, l1max, self._l1sum * other._l1sum)

    def translate(self, exp, k):
        """``u**k * X^exp * self`` for an exponent tuple ``exp``: each term
        X^b moves to X^(exp+b), its coefficient shifted by k + exp^T L b."""
        lay = _layout(self.nvars)
        unpack_key = lay.unpack
        mono = QTorusElem.basis_elem(self.lam, exp)
        (key,) = mono.terms
        key -= lay.bias
        # exp^T L, so that exp^T L b is its dot product with b
        row = [sum(map(mul, exp, col)) for col in zip(*self.lam)]
        out = {}
        for kb, (lo, n) in self.terms.items():
            out[key + kb] = (lo + k + sum(map(mul, row, unpack_key(kb))), n)
        return self._like(out, mono._product_bound(self))

    def basis_exponent(self):
        """The exponent tuple a when the element is X^a with coefficient
        1, else None."""
        if len(self.terms) == 1:
            ((key, coeff),) = self.terms.items()
            if coeff == (0, 1):
                return _layout(self.nvars).unpack(key)
        return None

    def scale(self, coeff):
        """Multiply every coefficient by ``coeff`` (an int or a
        {u-exponent: int} mapping)."""
        coeff = _coeff(coeff)
        if not coeff or not self.terms:
            return QTorusElem.zero(self.lam)
        l1 = sum(map(abs, coeff.values()))
        w = _width(self._l1max * l1)
        clo, cn = _pair(coeff, w)
        # Z[u, 1/u] is a domain: no coefficient vanishes, and each lowest
        # slot is the product of two nonzero ones.
        return self._made(
            {e: (lo + clo, n * cn) for e, (lo, n) in self._at(w).items()},
            self._bound, w, self._l1max * l1, self._l1sum * l1,
        )

    def shift_u(self, k):
        """Multiply by u**k."""
        return self._like(
            {e: (lo + k, n) for e, (lo, n) in self.terms.items()}, self._bound
        )

    def bar(self):
        """Bar involution: u -> 1/u in every coefficient, basis fixed.  The
        slots of each coefficient reverse."""
        w = self._w
        out = {}
        for e, (lo, n) in self.terms.items():
            slots = _slots(n, w)
            out[e] = (1 - lo - len(slots), _pack(slots[::-1], w))
        return self._like(out, self._bound)

    def div_right(self, den):
        """Exact right quotient: the element Q with self == Q * den, by
        the shared elimination at u = 2^W until the norms certify Q (see
        the module docstring).  den must lead with a unit +-u^k, else
        ``NonUnitLead``; each step divides by a shift and a sign.
        """
        self._check(den)
        if den.is_zero():
            raise ZeroPolynomial("division by zero")
        den_lead = max(den.terms)
        unit_pow, sign = den.terms[den_lead]
        if sign not in (1, -1):
            raise NonUnitLead("the divisor's leading coefficient is no unit")
        lay = _layout(self.nvars)
        unpack_key = lay.unpack
        lead_dot = self._lam_dot(unpack_key(den_lead))
        bound = min(self._bound + den._bound, MAX_EXPONENT)
        w = max(self._w, den._w)
        while True:
            den_terms = [
                (e - lay.bias, lo, n, self._lam_dot(unpack_key(e)))
                for e, (lo, n) in den._at(w).items()
            ]

            def step(rem, q_key, lead):
                q_exp = unpack_key(q_key)
                q_lo = lead[0] - sum(map(mul, q_exp, lead_dot)) - unit_pow
                q_n = sign * lead[1]
                neg = -q_n
                for e, d_lo, d_n, e_dot in den_terms:
                    t = q_key + e
                    c = (q_lo + d_lo + sum(map(mul, q_exp, e_dot)), neg * d_n)
                    acc = rem.get(t)
                    if acc is None:
                        rem[t] = c
                    else:
                        s = _add(acc, c, w)
                        if s is None:
                            del rem[t]
                        else:
                            rem[t] = s
                return q_lo, q_n

            # A unit step never fails, so an elimination at u = 2^W that
            # finds no quotient proves the torus has none either.
            raw = self._divide(self._at(w), den, den_lead, step)
            terms, width, l1max, l1sum = _settle(raw, w)
            need = self._l1max + l1max * den._l1sum
            if need < 1 << (w - 1):
                return QTorusElem(self.lam, terms, bound, width, l1max, l1sum)
            w = _width(need)

    def specialize_q1(self):
        """Set u to 1, landing in the commutative Laurent ring; the keys
        carry over as they are.  A coefficient at u = 1 is its N mod
        2^W - 1, balanced."""
        m = (1 << self._w) - 1
        half = m >> 1
        out = {}
        for e, (_, n) in self.terms.items():
            s = n % m
            if s:
                out[e] = s - m if s > half else s
        return LaurentPoly._trusted(self.nvars, out, self._bound)

    def sorted_terms(self):
        """(exponent tuple, coefficient dict) pairs, highest exponent
        first."""
        unpack_key = _layout(self.nvars).unpack
        w = self._w
        return [
            (unpack_key(e), _unpair(self.terms[e], w))
            for e in sorted(self.terms, reverse=True)
        ]

    def exponent_terms(self):
        """The terms as a dict keyed by exponent tuples, each coefficient
        a {u-exponent: int} dict."""
        return dict(self.sorted_terms())

    def sort_key(self):
        """A total order on the elements of one torus, from their width
        and packed terms; kept like the hash."""
        if self._sort_key is None:
            self._sort_key = self._w, tuple(sorted(self.terms.items()))
        return self._sort_key

    def render(self):
        if not self.terms:
            return "0"
        pieces = []
        for exp, coeff in self.sorted_terms():
            mono = "X^(%s)" % ",".join(str(e) for e in exp)
            cs = render_coeff(coeff)
            if cs == "1":
                pieces.append(mono)
            elif len(coeff) == 1 and not cs.startswith("-"):
                pieces.append("%s*%s" % (cs, mono))
            else:
                pieces.append("(%s)*%s" % (cs, mono))
        return " + ".join(pieces)

    def __repr__(self):
        return "QTorusElem(%s)" % self.render()


class Seed(FrozenRecord):
    """A seed with its cluster expanded in the initial one.

    ``initial`` is the starting exchange data, ``current`` the data after
    the mutations in ``history``, and ``variables`` lists the n mutable
    cluster variables followed by the n frozen ones (the frozen block
    never changes).  Variables must be hashable and have a
    ``sort_key()``, as the key uses both.

    ``exchanges`` maps the key of an exchange relation to its new
    variable, and each variable it computed to itself, so that two
    relations giving equal variables keep one object.  An initial seed
    starts it, and every seed mutated from that seed shares it, so each
    relation of an algebra is computed once; equality, hash and repr
    ignore it.  Subclasses supply ``_exchange(k)``, the new k-th
    variable.
    """

    _fields = ("initial", "current", "variables", "history")
    __slots__ = _fields + ("exchanges",)

    def __init__(self, initial, current, variables, history=(), exchanges=None):
        self._fill(initial, current, variables, history)
        if exchanges is None:
            exchanges = {}
        object.__setattr__(self, "exchanges", exchanges)

    @property
    def depth(self):
        return len(self.history)

    def _exchanged(self, k, new_var):
        """The seed mutated at k, given its new k-th variable."""
        variables = list(self.variables)
        variables[k] = new_var
        return type(self)(
            initial=self.initial,
            current=self.current.mutate(k),
            variables=tuple(variables),
            history=self.history + (k,),
            exchanges=self.exchanges,
        )

    def _exchange_key(self, k):
        """x_k and the set of (variable, b_ik) over the slots i where b_ik
        is nonzero, which fixes the exchange exactly: the variables fix
        the form (module docstring), none repeats within a seed, and the
        exchange reads the slots in no order, as classical variables
        commute and frame monomials are bar-invariant."""
        col = [row[k] for row in self.current.btilde]
        pairs = frozenset((x, b) for x, b in zip(self.variables, col) if b)
        return self.variables[k], pairs

    def mutate(self, k):
        """The seed mutated at k.  Its new variable is read from
        ``exchanges`` when a seed of this algebra already made the same
        exchange, and computed by ``_exchange`` otherwise.  Mutation is
        an involution, so the new seed's exchange at k, which gives back
        this seed's k-th variable, is stored too."""
        key = self._exchange_key(k)
        new_var = self.exchanges.get(key)
        if new_var is None:
            computed = self._exchange(k)
            new_var = self.exchanges.setdefault(computed, computed)
            self.exchanges[key] = new_var
        seed = self._exchanged(k, new_var)
        self.exchanges[seed._exchange_key(k)] = self.variables[k]
        return seed

    def canonical_key(self):
        """Key identifying the seed up to renumbering its cluster: the
        mutable variables in ``sort_key`` order, with the framed matrix
        permuted to match.  The variables fix the form (module
        docstring)."""
        n = self.current.n
        mutable = self.variables[:n]
        order = sorted(range(n), key=lambda i: mutable[i].sort_key())
        rows = itemgetter(*order, *range(n, 2 * n))
        # One column needs no permuting (and itemgetter of one index
        # returns an item, not a tuple).
        cols = itemgetter(*order) if n > 1 else tuple
        return (
            rows(self.variables)[:n],
            tuple(map(cols, rows(self.current.btilde))),
        )

    def slot_of(self, other, k):
        """The mutable slot of this seed that holds ``other``'s k-th
        variable."""
        return self.variables[: self.current.n].index(other.variables[k])

    def mutate_sequence(self, seq):
        seed = self
        for k in seq:
            seed = seed.mutate(k)
        return seed


class QuantumSeed(Seed):
    """A quantum seed with variables expanded in the initial torus, whose
    skew form ``initial.lam`` fixes the ambient torus.  ``frames`` keeps
    the frame monomials that ``frame`` built, by exponent; equality, hash
    and repr ignore it."""

    __slots__ = ("frames",)

    def __init__(self, initial, current, variables, history=(), exchanges=None):
        super().__init__(initial, current, variables, history, exchanges)
        object.__setattr__(self, "frames", {})

    @classmethod
    def initial_seed(cls, data):
        size = 2 * data.n
        variables = tuple(
            QTorusElem.basis_elem(
                data.lam, tuple(1 if j == i else 0 for j in range(size))
            )
            for i in range(size)
        )
        return cls(initial=data, current=data, variables=variables)

    def frame(self, c):
        """``frame_monomial(c)`` for an exponent tuple c, built on the
        seed's first request and kept: the cluster and its form fix it."""
        out = self.frames.get(c)
        if out is None:
            out = self.frames[c] = self.frame_monomial(c)
        return out

    def frame_monomial(self, c):
        """The bar-invariant ordered monomial of the current cluster,
        u^-t X_1^c_1 ... X_2n^c_2n with t the sum over i < j of
        lambda_ij c_i c_j, for the current skew form lambda.

        Mutable entries of c must be nonnegative unless the variable is
        still a basis monomial; frozen entries may have either sign.

        The factors whose variable is still a basis monomial X^a with
        coefficient 1 fold into one basis element in front of the
        others.  Two such factors multiply as X^(c_j a_j) X^(c_i a_i) =
        u^(c_j c_i lambda_ji) X^(c_j a_j + c_i a_i), since lambda_ji =
        a_j^T L a_i (module docstring).  Variables of one cluster
        quasi-commute, X_i X_j = u^(2 lambda_ij) X_j X_i, so moving
        X_i^c_i left past X_j^c_j pays u^(2 lambda_ji c_j c_i).  Only the
        other factors are multiplied, in order, and the folded element
        translates their product.
        """
        c = tuple(int(x) for x in c)
        size = 2 * self.current.n
        if len(c) != size:
            raise LambdaMismatch("frame exponent has wrong length")
        lam = self.current.lam
        twist = 0
        for i in range(size):
            if c[i]:
                for j in range(i + 1, size):
                    if c[j] and lam[i][j]:
                        twist += lam[i][j] * c[i] * c[j]
        shift = -twist
        folded = (0,) * size
        basis, rest = [], []
        for i in range(size):
            if not c[i]:
                continue
            a = self.variables[i].basis_exponent()
            if a is None:
                rest.append(i)
                continue
            shift += c[i] * sum(lam[j][i] * c[j] for j in basis)
            shift += 2 * c[i] * sum(lam[j][i] * c[j] for j in rest)
            basis.append(i)
            folded = tuple(x + c[i] * y for x, y in zip(folded, a))
        out = None
        for j in rest:
            power = self.variables[j] ** c[j]
            out = power if out is None else out * power
        if out is None:
            return QTorusElem.basis_elem(self.initial.lam, folded, {shift: 1})
        return out.translate(folded, shift)

    def _exchange(self, k):
        cur = self.current
        n = cur.n
        size = 2 * n
        col = tuple(cur.btilde[i][k] for i in range(size))
        bp = tuple(max(x, 0) for x in col)
        bm = tuple(max(-x, 0) for x in col)
        eps = tuple(1 if i == k else 0 for i in range(size))
        lam_col = tuple(cur.lam[i][k] for i in range(size))

        def twist(c):
            return sum((c[i] - eps[i]) * lam_col[i] for i in range(size))

        rhs = self.frame_monomial(bp).shift_u(twist(bp)) + self.frame_monomial(
            bm
        ).shift_u(twist(bm))
        return rhs.div_right(self.variables[k])


class GraphResult(Record):
    """Outcome of an exchange graph walk: the seeds in the order found,
    ``index`` from canonical key to seed index, and ``moves``, which maps
    (i, k) to the index of ``seeds[i]`` mutated at slot k for every move
    the walk took.  A move back along an edge the walk had already
    crossed is in ``moves`` too, though the walk read it rather than
    mutated again."""

    __slots__ = _fields = ("seeds", "moves", "index", "truncated")

    def __init__(self, seeds, moves, index, truncated):
        self.seeds = seeds
        self.moves = moves
        self.index = index
        self.truncated = truncated

    @property
    def count(self):
        return len(self.seeds)

    @property
    def edges(self):
        return {frozenset((i, j)) for (i, _), j in self.moves.items() if i != j}


def walk_seeds(start, n, max_depth, max_seeds):
    """Breadth-first walk of an exchange graph from ``start``.

    Seeds need ``mutate(k)`` and ``slot_of(other, k)`` for k in
    range(n), ``depth`` and ``canonical_key()``; seeds with equal keys
    are one vertex.  The walk is truncated (and flagged) when a depth or
    seed cap is hit.  Every move it takes is recorded in ``moves``,
    except one whose new seed the seed cap turns away.

    Mutation is an involution, so a move i -> j at slot k also proves
    the move back: from j at the slot of ``seeds[j]`` holding the new
    variable (``slot_of``, which may answer None to withhold the proof)
    to i.  The walk reads such a move instead of mutating, so a closed
    graph costs one mutation per edge.
    """
    index = {start.canonical_key(): 0}
    seeds = [start]
    moves = {}
    back = {}
    frontier = [(start, 0)]
    truncated = False
    while frontier:
        new_frontier = []
        for seed, idx in frontier:
            if max_depth is not None and seed.depth >= max_depth:
                truncated = True
                continue
            for k in range(n):
                j = back.pop((idx, k), None)
                if j is None:
                    nxt = seed.mutate(k)
                    key = nxt.canonical_key()
                    j = index.get(key)
                    if j is None:
                        if len(seeds) >= max_seeds:
                            truncated = True
                            continue
                        j = index[key] = len(seeds)
                        seeds.append(nxt)
                        new_frontier.append((nxt, j))
                        back[(j, k)] = idx
                    elif j != idx:
                        s = seeds[j].slot_of(nxt, k)
                        if s is not None and (j, s) not in moves:
                            back[(j, s)] = idx
                moves[(idx, k)] = j
        frontier = new_frontier
    return GraphResult(seeds=seeds, moves=moves, index=index, truncated=truncated)


def enumerate_quantum_seeds(
    data, max_depth=None, max_seeds=10000, start=None
):
    """Breadth-first walk of the quantum exchange graph, with seeds
    identified up to cluster renumbering.  It starts from ``start``, an
    initial seed of ``data`` whose ``exchanges`` memo the walk then
    shares, or from a new initial seed."""
    if start is None:
        start = QuantumSeed.initial_seed(data)
    return walk_seeds(start, data.n, max_depth, max_seeds)
