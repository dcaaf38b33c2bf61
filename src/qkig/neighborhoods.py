"""Curve neighborhoods of pairs of Schubert varieties and their classification.

A degree-d neighborhood of (X_u, X^v) is the locus swept by degree-d rational
curves meeting both varieties; the broken variant restricts to chains with a
degree-1 tail.  For IG(2, 2n) every neighborhood the closed formulas describe
is either everything, empty, a "meets a coordinate subspace" variety, or is
known only through its dimension; the Descriptor type records exactly that.

The index conditions (C1), (C2) and (L1) decide whether the evaluation maps
onto these neighborhoods are birational, have rationally connected fibers, or
are generically two-to-one, which in turn pins the q-support of the products.
"""

from typing import NamedTuple

from .pairs import (
    _c1,
    _c2,
    _check_n,
    _dim_schubert,
    _richardson_nonempty,
    dim_space,
    fano_index,
    require_valid,
    richardson_dim,
    richardson_nonempty,
)


def lower_flag(n, p):
    """Index set of the coordinate subspace E_p = <e_1, ..., e_p>."""
    _check_n(n)
    if not 0 <= p <= 2 * n:
        raise ValueError(f"flag index out of range: {p}")
    return frozenset(range(1, p + 1))


def upper_flag(n, q):
    """Index set of the opposite subspace E^q = <e_{2n+1-q}, ..., e_{2n}>."""
    _check_n(n)
    if not 0 <= q <= 2 * n:
        raise ValueError(f"flag index out of range: {q}")
    return frozenset(range(2 * n + 1 - q, 2 * n + 1))


class Descriptor(NamedTuple):
    """Symbolic description of a curve neighborhood.

    kind: "whole" | "empty" | "meets" | "dim_only".  For "meets", ``indices``
    spans the coordinate subspace the 2-planes must meet and ``dim`` is the
    dimension min(4n-5, |S| + 2n - 4) of that locus.
    """
    kind: str
    indices: tuple = ()
    dim: int | None = None
    note: str = ""

    def to_dict(self):
        return {"kind": self.kind, "indices": list(self.indices),
                "dim": self.dim}


def whole_space(n):
    return Descriptor("whole", dim=dim_space(n))


def empty_locus():
    return Descriptor("empty", dim=None)


def meets_subspace(n, indices):
    """Descriptor of { z : V_z meets span(e_i : i in S) }, normalized.

    Empty S gives the empty locus; |S| >= 2n - 1 gives the whole space.
    """
    s = frozenset(indices)
    if not s:
        return empty_locus()
    if len(s) >= 2 * n - 1:
        return whole_space(n)
    return Descriptor("meets", tuple(sorted(s)),
                      min(dim_space(n), len(s) + 2 * n - 4))


def dim_only(value, note=""):
    return Descriptor("dim_only", dim=value, note=note)


def condition_C1(n, u, v):
    """p1 + q1 = 2n = p2 = q2."""
    return _c1(n, require_valid(n, u), require_valid(n, v))


def condition_C2(n, u, v):
    """p1 + q2 = 2n = p2 + q1 with equal index gaps >= 2 and max(dp, dq) = 1."""
    return _c2(n, require_valid(n, u), require_valid(n, v))


def condition_L1(n, u, v):
    """The degree-1 birationality condition on the index pairs."""
    return _l1(n, require_valid(n, u), require_valid(n, v))


def deg2_birational_case(n, u, v):
    """Which of the three degree-2 birationality cases holds, or None."""
    return _deg2_case(n, require_valid(n, u), require_valid(n, v))


# The cores below take basis pairs already validated by a public entry
# point; delta(n, a, b) = 1 is written inline as a + b > 2n + 1.

def _l1(n, u, v):
    (p1, p2), (q1, q2) = u, v
    two_n = 2 * n
    if p2 == two_n and q2 == two_n:
        return p1 + q1 <= two_n - 1
    if p1 + p2 > two_n + 1 and q1 + q2 > two_n + 1:  # min(dp, dq) = 1
        return p1 + q1 <= two_n
    return p1 + q1 <= two_n - 1


def _deg2_case(n, u, v):
    (p1, p2), (q1, q2) = u, v
    two_n = 2 * n
    a, b = p1 + q2, p2 + q1
    if a < two_n and b < two_n:
        return 1
    if p1 + p2 > two_n + 1 or q1 + q2 > two_n + 1:  # max(dp, dq) = 1
        if a == two_n and b < two_n:
            return 2
        if a < two_n and b == two_n:
            return 3
    return None


class Classification(NamedTuple):
    """Predicates for the evaluation maps of (u, v) at a fixed degree."""
    n: int
    u: tuple
    v: tuple
    degree: int
    c1: bool
    c2: bool
    l1: bool
    deg2_case: int | None
    ev_birational: bool
    ev_broken_two_to_one: bool
    gamma_equal: bool

    def to_dict(self):
        return {
            "n": self.n, "u": list(self.u), "v": list(self.v),
            "degree": self.degree,
            "C1": self.c1, "C2": self.c2, "L1": self.l1,
            "deg2_birational_case": self.deg2_case,
            "ev_birational": self.ev_birational,
            "ev_broken_two_to_one": self.ev_broken_two_to_one,
            "gamma_equal": self.gamma_equal,
        }


def classify(n, u, v, d):
    """Evaluate all predicates for the degree-d evaluation maps of (u, v)."""
    u = require_valid(n, u)
    v = require_valid(n, v)
    _check_degree(d)
    return _classify(n, u, v, d)


def _classify(n, u, v, d):
    c1 = _c1(n, u, v)
    c2 = _c2(n, u, v)
    l1 = _l1(n, u, v)
    case = _deg2_case(n, u, v)
    if d == 1:
        birational = l1
        two_to_one = c1
    elif d == 2:
        birational = case is not None
        two_to_one = c2
    else:
        birational = False
        two_to_one = False
    return Classification(n, u, v, d, c1, c2, l1, case, birational,
                          two_to_one, gamma_equal=not birational)


def dim_moduli(n, u, v, d):
    """Dimension of the space of degree-d 3-pointed curves through (X_u, X^v)."""
    u = require_valid(n, u)
    v = require_valid(n, v)
    _check_degree(d, lowest=0)
    return _dim_moduli(n, u, v, d)


def _dim_moduli(n, u, v, d):
    # dim X + d c1 - codim X_u - codim X^v, with codim = dim X - dim
    out = (d * fano_index(n) - dim_space(n)
           + _dim_schubert(n, *u) + _dim_schubert(n, *v))
    if d == 2:
        (p1, p2), (q1, q2) = u, v
        assert out == (p1 + p2 + q1 + q2 - 3 - (p1 + p2 > 2 * n + 1)
                       - (q1 + q2 > 2 * n + 1))
    return out


def _check_degree(d, lowest=1):
    """Reject a degree that is not an int (bool included) or is below lowest."""
    if type(d) is not int:
        raise ValueError(f"degree must be an integer, got {d!r}")
    if d < lowest:
        hint = (" (degree 0 is the Richardson intersection; use the index "
                "operations)") if lowest == 1 else ""
        raise ValueError(f"degree {d} is below {lowest}{hint}")


def _deg2_meets_set(n, u, v):
    p1, p2 = u
    q1, q2 = v
    return (lower_flag(n, p1)
            | (lower_flag(n, p2) & upper_flag(n, q2))
            | upper_flag(n, q1))


def gamma_pair(n, u, v, d):
    """Descriptor of the degree-d neighborhood of (X_u, X^v)."""
    u = require_valid(n, u)
    v = require_valid(n, v)
    _check_degree(d)
    return _gamma_pair(n, u, v, d)


def _gamma_pair(n, u, v, d):
    (_, p2), (_, q2) = u, v
    if d >= 4:
        return whole_space(n)
    if d == 3:
        return meets_subspace(n, lower_flag(n, p2) | upper_flag(n, q2))
    if d == 2:
        if _deg2_case(n, u, v) is not None:
            return dim_only(_dim_moduli(n, u, v, 2))
        return meets_subspace(n, _deg2_meets_set(n, u, v))
    if _c1(n, u, v):
        return whole_space(n)
    if _l1(n, u, v):
        if p2 + q2 >= 2 * n + 1:
            return dim_only(_dim_moduli(n, u, v, 1))
        return empty_locus()
    return meets_subspace(n, lower_flag(n, p2) & upper_flag(n, q2))


def gamma_broken(n, u, v, d):
    """Degree-(d-1, 1) broken-chain neighborhood: ``gamma_pair``'s, except in
    degree 2 and in degree 1 when (L1) holds without (C1)."""
    u = require_valid(n, u)
    v = require_valid(n, v)
    _check_degree(d)
    if d == 2:
        if u[1] + v[1] > 2 * n:
            return meets_subspace(n, _deg2_meets_set(n, u, v))
        return empty_locus()
    if d == 1 and _l1(n, u, v) and not _c1(n, u, v):
        if _richardson_nonempty(n, u, v):
            return dim_only(_dim_moduli(n, u, v, 1) - 1,
                            note="divisor inside the degree-1 neighborhood")
        return empty_locus()
    return _gamma_pair(n, u, v, d)


def q_support_product(n, u, v):
    """Powers of q carrying a nonzero term in O_u * O^v, as a new set; the
    rule is ``_q_support``'s."""
    return set(_q_support(n, require_valid(n, u), require_valid(n, v)))


# _SUPPORTS[mask] holds the d with bit d of mask set; _INTERVALS the six
# nonempty intervals among them, all but {0, 2}
_SUPPORTS = tuple(frozenset(d for d in range(3) if mask >> d & 1)
                  for mask in range(8))
_INTERVALS = frozenset(s for s in _SUPPORTS[1:] if max(s) - min(s) < len(s))


def _q_support(n, u, v):
    """q-support of O_u * O^v for trusted pairs, a shared frozenset of
    ``_SUPPORTS``: q^0 iff ``_richardson_nonempty``, q^1 iff ``_c1`` or
    ``_l1`` with p2 + q2 >= 2n + 1, q^2 iff ``_c2`` or a ``_deg2_case``.
    Asserted to be a nonempty interval.

    One pass over p1 + q2, p2 + q1, p1 + q1, p2 + q2 and the deltas: (C1)
    extends (L1)'s p2 = q2 = 2n branch to p1 + q1 = 2n, where both deltas
    are 1, and (C2)'s equal gaps follow from p1 + q2 = 2n = p2 + q1.
    """
    (p1, p2), (q1, q2) = u, v
    two_n = 2 * n
    a, b = p1 + q2, p2 + q1
    dp, dq = p1 + p2 > two_n + 1, q1 + q2 > two_n + 1
    support = _SUPPORTS[
        (a > two_n and b > two_n)
        | (p2 + q2 > two_n and p1 + q1 < two_n + (dp and dq)) << 1
        | (a < two_n and b < two_n
           or (dp or dq) and a <= two_n and b <= two_n
           and (a + b < 2 * two_n or p2 - p1 >= 2)) << 2]
    assert support in _INTERVALS, (n, u, v, support)
    return support


def seidel_neighborhood(n, u):
    """Minimal degree and image index for the shifted neighborhood of u.

    Returns (d_min, pair): the index-shift product contributes exactly
    q^d_min times the class of ``pair``.
    """
    p1, p2 = require_valid(n, u)
    if p2 <= n:
        return (2, (p1 + n, p2 + n))
    if p1 <= n:
        return (1, (p2 - n, p1 + n))
    return (0, (p1 - n, p2 - n))


def gamma_point_pair(n, d):
    """Membership criterion for the degree-d neighborhood of two general points.

    Returns a predicate on ds = dim(V_x + V_y + V_z), the span dimension the
    geometry oracle's ``membership_suite`` computes for each sample z and
    compares, through this predicate, with its verified witnesses.  Degrees
    d <= 1 are not covered here: membership on a line is V_z containing
    V_x cap V_y inside V_x + V_y.
    """
    _check_n(n)
    _check_degree(d, lowest=2)
    if d == 2:
        return lambda ds: ds <= 4
    if d == 3:
        return lambda ds: ds <= 5
    return lambda ds: True


def richardson_dim_or_none(n, u, v):
    """No library code calls this; perfbench's ``cli-queries`` gate does,
    and that file changes only with the benchmark."""
    return richardson_dim(n, u, v) if richardson_nonempty(n, u, v) else None
