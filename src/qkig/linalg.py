"""Exact linear algebra on small dense integer matrices.

Matrices are lists of integer rows.  Every routine divides each row by its
gcd and runs one fraction-free (Bareiss) elimination kernel, so all results
are integer rows.  A non-integer entry raises ``TypeError``, rows of unequal
length ``ValueError``.  No routine mutates its input.
"""

from math import gcd


def primitive_int_row(row):
    """Scale an integer row to a primitive one (gcd 1, first nonzero > 0).

    Returns a tuple of ints; the zero row maps to itself.
    """
    g = gcd(*row)
    if g == 0:
        return (0,) * len(row)
    if next(x for x in row if x) < 0:
        g = -g
    return tuple(x // g for x in row)


def _echelon(rows, reduce=False):
    """Echelon form of the nonzero rows, each divided by its gcd, fraction-free.

    Returns the echelon rows (lists of ints) and their pivot columns.  Every
    update divides exactly by the previous pivot (Bareiss), so entries stay
    minors of the cleared matrix.  With ``reduce`` the updates also clear
    the entries above each pivot; every pivot entry then equals the last
    pivot, and the rows are the reduced echelon form times that pivot.
    """
    if len(set(map(len, rows))) > 1:
        raise ValueError("matrix rows have different lengths")
    m = []
    for r in rows:
        g = gcd(*r)
        if g:
            m.append([x // g for x in r] if g != 1 else list(r))
    pivots = []
    prev = 1
    for col in range(len(m[0]) if m else 0):
        rk = len(pivots)
        for piv in range(rk, len(m)):
            if m[piv][col]:
                break
        else:
            continue
        m[rk], m[piv] = m[piv], m[rk]
        top = m[rk]
        p = top[col]
        for r in range(0 if reduce else rk + 1, len(m)):
            if r != rk and (f := m[r][col]):
                m[r] = [(p * x - f * y) // prev for x, y in zip(m[r], top)]
            elif r != rk and p != prev:  # a zero entry is only rescaled
                m[r] = [p * x // prev for x in m[r]]
        prev = p
        pivots.append(col)
        if len(pivots) == len(m):
            break
    return m[:len(pivots)], pivots


def rank(rows):
    """Rank of a matrix."""
    return len(_echelon(rows)[1])


def row_basis(rows):
    """Primitive integer basis of the row space, in echelon form."""
    return [primitive_int_row(r) for r in _echelon(rows)[0]]


def rref(rows):
    """Reduced row echelon form; returns the nonzero rows, each scaled to a
    primitive integer row (its pivot is then its first nonzero, positive).

    Canonical for the row space: two matrices have equal row spaces iff their
    rrefs are equal.
    """
    return tuple(primitive_int_row(r) for r in _echelon(rows, reduce=True)[0])


def nullspace(rows):
    """Basis of { x : M x = 0 } for a nonempty M: one primitive integer vector
    per free column."""
    width = len(rows[0])
    red, pivots = _echelon(rows, reduce=True)
    d = red[0][pivots[0]] if red else 1  # the common pivot entry
    basis = []
    for free in (c for c in range(width) if c not in pivots):
        vec = [0] * width
        vec[free] = d
        for r, pj in zip(red, pivots):
            vec[pj] = -r[free]
        basis.append(primitive_int_row(vec))
    return basis


def stack(*row_groups):
    out = []
    for g in row_groups:
        out.extend(tuple(r) for r in g)
    return out


def intersect_rowspaces(rows_a, rows_b):
    """Basis of the intersection of the two row spaces, as an rref.  No library
    code calls it; it is the tests' reference meet, and perfbench traces it."""
    a, b = list(rows_a), list(rows_b)
    if not a or not b:
        return []
    # coefficient vectors c with sum_i c_i * (a + b)_i = 0
    transposed = [list(col) for col in zip(*a, *b, strict=True)]
    vecs = []
    for c in nullspace(transposed):
        # zip stops at len(a): sum_i c_i * a_i, column by column
        v = [sum(ci * x for ci, x in zip(c, col)) for col in zip(*a)]
        if any(v):
            vecs.append(v)
    return list(rref(vecs))

