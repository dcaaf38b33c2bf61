"""Index combinatorics for the Schubert basis of IG(2, 2n).

The basis of K(IG(2, 2n)) is indexed by integer pairs (a, b) with
1 <= a < b <= 2n and a + b != 2n + 1.  The pair (2n-1, 2n) indexes the unit,
(1, 2) the point class, (2n-2, 2n) the unique Schubert divisor and (n-1, n)
the index-shift ("Seidel") class.

Everything here is a pure function on plain tuples.
"""

from functools import lru_cache


class InvalidPairError(ValueError):
    """An index pair violates the basis constraints."""


def _check_n(n):
    if not isinstance(n, int) or isinstance(n, bool) or n < 2:
        raise ValueError(f"n must be an integer >= 2, got {n!r}")


def dim_space(n):
    """Dimension of IG(2, 2n)."""
    _check_n(n)
    return 4 * n - 5


def fano_index(n):
    """Degree of c1 of the tangent bundle on a line.

    Derived constant: it is forced by the index-shift operator squaring to
    q^2 and is validated against the sign rule by the verification suites.
    """
    _check_n(n)
    return 2 * n - 1


def unit_pair(n):
    _check_n(n)
    return (2 * n - 1, 2 * n)


def divisor_pair(n):
    _check_n(n)
    return (2 * n - 2, 2 * n)


def seidel_pair(n):
    _check_n(n)
    return (n - 1, n)


def is_valid_pair(n, a, b):
    """True iff (a, b) indexes a basis class of IG(2, 2n)."""
    return explain_invalid(n, a, b) is None


def explain_invalid(n, a, b):
    """Reason string if (a, b) is not a basis pair, else None."""
    _check_n(n)
    if not (type(a) is int and type(b) is int):
        return "indices must be integers"
    if a >= b:
        return f"need a < b, got a={a}, b={b}"
    if a < 1:
        return f"need a >= 1, got a={a}"
    if b > 2 * n:
        return f"need b <= 2n = {2 * n}, got b={b}"
    if a + b == 2 * n + 1:
        return f"a + b = {a + b} = 2n + 1 is excluded"
    return None


def require_valid(n, pair):
    """Return the pair as a tuple, raising InvalidPairError if not a basis pair."""
    try:
        a, b = pair
    except (TypeError, ValueError):
        raise InvalidPairError(
            f"expected a pair (a, b), got {pair!r}") from None
    if (type(n) is int and type(a) is int and type(b) is int and n >= 2
            and 1 <= a < b <= 2 * n and a + b != 2 * n + 1):
        return (a, b)
    reason = explain_invalid(n, a, b)
    if reason is not None:
        raise InvalidPairError(f"invalid pair ({a},{b}) for n={n}: {reason}")
    return (a, b)


def dim_schubert(n, a, b):
    """Dimension of the Schubert variety indexed by (a, b)."""
    require_valid(n, (a, b))
    return _dim_schubert(n, a, b)


def _dim_schubert(n, a, b):
    """dim_schubert for a trusted basis pair."""
    return a + b - 3 - (a + b > 2 * n + 1)


def bruhat_leq(n, p, q):
    """Bruhat order on basis pairs, as the product order.

    The product order is exact for these indices: it coincides with
    containment of torus-fixed-point sets, which the geometry oracle checks
    exhaustively for small n.
    """
    a, b = require_valid(n, p)
    c, d = require_valid(n, q)
    return a <= c and b <= d


def dual_pair(n, p):
    """Index of the opposite-flag class of complementary dimension.

    (a, b) -> (2n+1-b, 2n+1-a); an involution that reverses the Bruhat order
    and satisfies dim(dual) = dim X - dim(pair).
    """
    a, b = require_valid(n, p)
    return (2 * n + 1 - b, 2 * n + 1 - a)


def richardson_nonempty(n, u, v):
    """Whether the Schubert variety of u meets the opposite variety of v.

    u indexes X_u for the standard flag, v indexes X^v for the opposite flag.
    """
    return _richardson_nonempty(n, require_valid(n, u), require_valid(n, v))


def _richardson_nonempty(n, u, v):
    """richardson_nonempty for trusted basis pairs."""
    (p1, p2), (q1, q2) = u, v
    return p1 + q2 >= 2 * n + 1 and p2 + q1 >= 2 * n + 1


def _c1(n, u, v):
    """Condition (C1) for trusted basis pairs: p1 + q1 = 2n = p2 = q2."""
    two_n = 2 * n
    return u[0] + v[0] == two_n and u[1] == two_n and v[1] == two_n


def _c2(n, u, v):
    """Condition (C2) for trusted basis pairs: p1 + q2 = 2n = p2 + q1 with
    equal index gaps >= 2 and max(dp, dq) = 1."""
    (p1, p2), (q1, q2) = u, v
    two_n = 2 * n
    return (p1 + q2 == two_n and p2 + q1 == two_n
            and p2 - p1 == q2 - q1 and p2 - p1 >= 2
            and (p1 + p2 > two_n + 1 or q1 + q2 > two_n + 1))


def richardson_dim(n, u, v):
    """Dimension of the Richardson variety X_u cap X^v."""
    if not richardson_nonempty(n, u, v):
        raise InvalidPairError(
            f"empty Richardson variety for u={tuple(u)}, v={tuple(v)}, n={n}")
    d = _dim_schubert(n, *u) + _dim_schubert(n, *v) - dim_space(n)
    assert d >= 0, (n, u, v)
    return d


@lru_cache(maxsize=None)
def basis_list(n):
    """All basis pairs in a fixed total order refining the Bruhat order.

    Sorted by (a + b, a); size 2n(n - 1).
    """
    _check_n(n)
    pairs = [(a, b)
             for a in range(1, 2 * n)
             for b in range(a + 1, 2 * n + 1)
             if a + b != 2 * n + 1]
    pairs.sort(key=lambda p: (p[0] + p[1], p[0]))
    assert len(pairs) == 2 * n * (n - 1)
    return tuple(pairs)
