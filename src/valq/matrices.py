"""Exact integer matrix helpers.

Matrices are immutable tuples of tuples of Python ints.  Everything here
is exact; there is no floating point anywhere in this package.
"""


def freeze(rows):
    """Copy a matrix-like nested iterable into a tuple of tuples of ints."""
    out = tuple(tuple(int(x) for x in row) for row in rows)
    if out:
        width = len(out[0])
        for row in out:
            if len(row) != width:
                raise ValueError("ragged matrix")
    return out


def shape(m):
    return (len(m), len(m[0]) if m else 0)


def identity(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def zeros(nrows, ncols):
    return tuple(tuple(0 for _ in range(ncols)) for _ in range(nrows))


def transpose(m):
    nr, nc = shape(m)
    return tuple(tuple(m[i][j] for i in range(nr)) for j in range(nc))


def matmul(a, b):
    na, ma = shape(a)
    nb, mb = shape(b)
    if ma != nb:
        raise ValueError("dimension mismatch in matmul")
    bt = transpose(b)
    return tuple(
        tuple(sum(ra[k] * cb[k] for k in range(ma)) for cb in bt) for ra in a
    )


def add(a, b):
    if shape(a) != shape(b):
        raise ValueError("dimension mismatch in add")
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def neg(m):
    return tuple(tuple(-x for x in row) for row in m)


def is_skew_symmetric(m):
    nr, nc = shape(m)
    if nr != nc:
        return False
    return all(m[i][j] == -m[j][i] for i in range(nr) for j in range(nr))


def det(m):
    """Exact determinant of a square integer matrix (Bareiss elimination)."""
    n, nc = shape(m)
    if n != nc:
        raise ValueError("det of non-square matrix")
    if n == 0:
        return 1
    a = [list(row) for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for r in range(k + 1, n):
                if a[r][k] != 0:
                    a[k], a[r] = a[r], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                # Bareiss: exact integer division at every step.
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]

