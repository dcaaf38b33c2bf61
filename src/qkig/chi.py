"""Reconstruction of K-classes from sheaf Euler-characteristic tables.

A structure-sheaf class [O_Y] expands over the ideal-sheaf classes of
Schubert boundaries, with coefficients the Euler characteristics chi of the
intersections of Y with general translates of opposite Schubert varieties.
Converting back to the structure-sheaf basis is an exact integer inversion
of the Bruhat-order zeta matrix.

The chi tables implemented here cover the two families the closed formulas
expand: the special Richardson classes and the divisor products.  Running
them through the pipeline independently re-derives richardson_special_expand
and classical_chevalley.
"""

from functools import lru_cache

from .pairs import _check_n, basis_list, dual_pair, require_valid
from .ring import RingElement


@lru_cache(maxsize=None)
def ideal_to_schubert(n):
    """Basis, zeta matrix Z and its exact integer inverse M.

    Z[i][j] = 1 iff basis[j] <= basis[i] in the Bruhat order, so row i lists
    the ideal-sheaf classes entering O_{basis[i]}; Z is lower unitriangular
    in the basis order and M = Z^{-1} is integral.
    """
    _check_n(n)
    basis = basis_list(n)
    # bruhat_leq(n, basis[j], basis[i]) on trusted pairs: the product order
    z = [[1 if a <= c and b <= d else 0 for a, b in basis]
         for c, d in basis]
    m = invert_lower_unitriangular(z)
    return basis, z, m


@lru_cache(maxsize=None)
def _inverse_rows(n):
    """The nonzero (column, entry) pairs of each row of M, in column order."""
    return tuple(tuple((j, x) for j, x in enumerate(row) if x)
                 for row in ideal_to_schubert(n)[2])


@lru_cache(maxsize=None)
def _opposites(n):
    """The ``dual_pair`` of each basis pair, in basis order: the chi table
    entry that weights the ideal-sheaf class at that pair."""
    return tuple(dual_pair(n, p) for p in basis_list(n))


def invert_lower_unitriangular(z):
    """Exact integer inverse of a lower unitriangular integer matrix."""
    size = len(z)
    for i, row in enumerate(z):
        if len(row) != size or row[i] != 1 or any(row[i + 1:]):
            raise ValueError("matrix must be square and lower unitriangular;"
                             f" row {i} is {row!r}")
    m = [[0] * size for _ in range(size)]
    for i in range(size):
        row = [0] * size
        row[i] = 1
        for j in range(i):
            zij = z[i][j]
            if zij:
                mj = m[j]
                for k in range(j + 1):
                    row[k] -= zij * mj[k]
        m[i] = row
    return m


def chi_xuv(n, p, r):
    """chi of the special Richardson class against the opposite pair r.

    Total function: 0 outside the stated support, values in {0, 1, 2}.
    """
    _check_n(n)
    _check_p(n, p)
    return _chi_xuv(n, p, require_valid(n, r))


def _chi_xuv(n, p, r):
    r1, r2 = r
    s = r1 + r2
    if s < 2 * n + 1:
        return 0
    if r2 <= 2 * n - p:
        return 0
    if s == 2 * n + 2:
        return 2 if r2 > 2 * n + 1 - p else 1
    return 1


def chi_chevalley(n, q, r):
    """chi of the divisor-times-O_q Richardson against the opposite pair r."""
    return _chi_chevalley(n, require_valid(n, q), require_valid(n, r))


def _chi_chevalley(n, q, r):
    (q1, q2), (r1, r2) = q, r
    top = 2 * n
    nonempty = ((q1 + r2 >= top + 2 and q2 + r1 >= top + 1)
                or (q1 + r2 >= top + 1 and q2 + r1 >= top + 2))
    if not nonempty:
        return 0
    if q1 + q2 == r1 + r2 == q1 + r2 == q2 + r1 == top + 2:
        return 2
    return 1


def _check_p(n, p):
    if type(p) is not int or not 1 <= p <= n:
        raise ValueError(f"p must lie in [1, n], got {p!r}")


def _reconstruct(n, chis):
    """Schubert expansion of the class with the given chi table.

    ``chis`` lists the chi values in basis order: entry i is chi against
    the opposite variety ``_opposites(n)[i]``, which weights the
    ideal-sheaf class at the dual pair basis[i] (the Schubert variety
    through the same torus-fixed plane).  The expansion coefficients are
    the row vector chi^T M, accumulated over the nonzero entries of chi and
    the per-n sparse rows of M (``_inverse_rows``) only.
    """
    basis, _, _ = ideal_to_schubert(n)
    acc = [0] * len(basis)
    for c, row in zip(chis, _inverse_rows(n)):
        if c:
            for j, mij in row:
                acc[j] += c * mij
    coeffs = {(0, w): c for w, c in zip(basis, acc) if c}
    return RingElement._from_valid(n, coeffs)


def reconstruct_xuv(n, p):
    """Re-derive the special Richardson expansion from its chi table."""
    _check_n(n)
    _check_p(n, p)
    return _reconstruct(n, [_chi_xuv(n, p, r) for r in _opposites(n)])


def reconstruct_classical_chevalley(n, v):
    """Re-derive the classical divisor product on O_v from its chi table."""
    v = require_valid(n, v)
    return _reconstruct(n, [_chi_chevalley(n, v, r) for r in _opposites(n)])
