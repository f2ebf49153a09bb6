"""Independent checks of valq output, computed without importing valq.

* Positive roots of the Cartan companion of B (a_kk = 2,
  a_kj = -|b_kj|), enumerated from the simple roots by simple
  reflections.  For a finite-type exchange matrix the denominator
  vectors of the non-initial cluster variables are exactly these roots.
* The number of seeds of a finite-type cluster algebra, the product
  prod (h + e_i + 1) / (e_i + 1) over the exponents e_i, with h the
  Coxeter number.  Exponents come from the root heights: the number of
  exponents equal to k is r_k - r_{k+1}, where r_k counts the positive
  roots of height k (Kostant), and h is one more than the top height.
* A parser for the Laurent polynomials that ``valq seeds --json``
  prints, used for denominator vectors and coefficient signs.

``python3 bench/oracles.py`` runs a self-test on A2, B2, G2, B3 and F4.
"""

import sys
from fractions import Fraction

ROOT_LIMIT = 10_000


class NotFiniteType(ValueError):
    """The reflection closure of the simple roots does not stop."""


def cartan_companion(b):
    n = len(b)
    return [[2 if k == j else -abs(b[k][j]) for j in range(n)] for k in range(n)]


def positive_roots(b):
    """Positive real roots of the Cartan companion, as tuples."""
    a = cartan_companion(b)
    n = len(a)
    simple = [tuple(int(i == k) for i in range(n)) for k in range(n)]
    roots = set(simple)
    frontier = list(simple)
    while frontier:
        nxt = []
        for r in frontier:
            for k in range(n):
                s = list(r)
                s[k] -= sum(a[k][j] * r[j] for j in range(n))
                s = tuple(s)
                if min(s) >= 0 and s not in roots:
                    roots.add(s)
                    nxt.append(s)
        if len(roots) > ROOT_LIMIT:
            raise NotFiniteType("more than %d positive roots" % ROOT_LIMIT)
        frontier = nxt
    return roots


def coxeter_data(roots):
    """Coxeter number and exponents from the root heights."""
    heights = {}
    for r in roots:
        heights[sum(r)] = heights.get(sum(r), 0) + 1
    top = max(heights)
    exponents = []
    for k in range(1, top + 1):
        exponents += [k] * (heights.get(k, 0) - heights.get(k + 1, 0))
    return top + 1, exponents


def seed_count(b):
    """Number of seeds of the finite-type cluster algebra of B."""
    h, exponents = coxeter_data(positive_roots(b))
    total = Fraction(1)
    for e in exponents:
        total *= Fraction(h + e + 1, e + 1)
    if total.denominator != 1:
        raise ValueError("seed count %s is not an integer" % total)
    return int(total)


def parse_laurent(text, names):
    """{exponent tuple: integer coefficient} of a rendered polynomial,
    in the ``3*x1^-1*y2 - x2`` form that ``LaurentPoly.render`` prints."""
    index = {name: i for i, name in enumerate(names)}
    text = text.strip()
    sign = 1
    if text.startswith("-"):
        sign, text = -1, text[1:]
    terms = {}
    for chunk in text.replace(" - ", " + -").split(" + "):
        coeff = sign
        sign = 1
        if chunk.startswith("-"):
            coeff, chunk = -1, chunk[1:]
        exp = [0] * len(names)
        for factor in chunk.split("*"):
            if factor.isdigit():
                coeff *= int(factor)
                continue
            name, _, power = factor.partition("^")
            exp[index[name]] += int(power) if power else 1
        exp = tuple(exp)
        terms[exp] = terms.get(exp, 0) + coeff
    return terms


def denominator_vector(terms, n):
    """Negated minimal exponent of each of the first n variables."""
    return tuple(-min(exp[i] for exp in terms) for i in range(n))


def seed_variables(doc, n):
    """Distinct non-initial mutable variables of a ``valq seeds --json``
    document, mapped to their parsed terms."""
    names = ["x%d" % (i + 1) for i in range(n)] + ["y%d" % (i + 1) for i in range(n)]
    initial = set(names[:n])
    out = {}
    for seed in doc["seeds"]:
        for text in seed["variables"]:
            if text not in initial and text not in out:
                out[text] = parse_laurent(text, names)
    return out


SELF_TEST = {
    "A2": (((0, 1), (-1, 0)), 3, 5),
    "B2": (((0, 1), (-2, 0)), 4, 6),
    "G2": (((0, 1), (-3, 0)), 6, 8),
    "B3": (((0, 1, 0), (-1, 0, 1), (0, -2, 0)), 9, 20),
    "F4": (((0, 1, 0, 0), (-1, 0, 1, 0), (0, -2, 0, 1), (0, 0, -1, 0)), 24, 105),
}


def self_test():
    ok = True
    for name, (b, n_roots, n_seeds) in SELF_TEST.items():
        roots = positive_roots(b)
        h, exponents = coxeter_data(roots)
        seeds = seed_count(b)
        good = len(roots) == n_roots and seeds == n_seeds
        ok = ok and good
        print(
            "%-3s %s  roots %d (want %d)  h %d  exponents %s  seeds %d (want %d)"
            % (name, "ok  " if good else "FAIL", len(roots), n_roots, h,
               exponents, seeds, n_seeds)
        )
    sample = parse_laurent("x1^-1*x2^3 - 2*x1^-1*y1 + 3", ["x1", "x2", "y1", "y2"])
    good = sample == {(-1, 3, 0, 0): 1, (-1, 0, 1, 0): -2, (0, 0, 0, 0): 3}
    print("parser %s" % ("ok" if good else "FAIL"))
    return ok and good


if __name__ == "__main__":
    sys.exit(0 if self_test() else 1)
