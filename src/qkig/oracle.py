"""Exact symplectic linear algebra: sampling, witnesses and ground truth.

Points of IG(2, 2n) are rank-2 row spaces of 2 x 2n integer matrices.  A
``Plane2`` keeps the rows it was built from and computes its canonical
primitive-integer form on first use; every query that does not depend on
the basis reads the generators (see ``Plane2``).  Every arithmetic step is
exact integer arithmetic; ranks, meets and orthogonals come from the
fraction-free elimination of ``linalg``, with three shortcuts: the rank of
two rows is read off their 2 x 2 minors, ``gram_rank`` reads the
symplectic rank of two planes off one Pfaffian, and a membership trial
reduces z's generators against its echelon span once and reads both
dim(V_x + V_y + V_z) and the degree-3 meet off the residues.  An opposite
Schubert variety or cell is the standard one in reversed coordinates.  The
constructions mirror the curve-chain arguments behind the closed formulas:
two-line chains through general points, degree-3 and degree-4 witnesses
drawn inside V_x + V_y, Richardson and line points built from flag
intersections.  Constructors only build; the
public ``verify_*`` functions check a witness against the incidence and
isotropy conditions it claims, and ``membership_suite`` runs each check
once, comparing the outcomes with the point-pair criteria of
``neighborhoods.gamma_point_pair``.

Randomness is always seeded; suite reports embed the seed for exact replay.
"""

import random
from functools import lru_cache
from math import gcd
from operator import mul

from .linalg import nullspace, primitive_int_row, rank, row_basis, rref, stack
from .neighborhoods import gamma_point_pair
from .pairs import _check_n, basis_list, require_valid

_COORD_BOUND = 100  # sampled numerators stay small; ranks are on tiny matrices
_MAX_TRIES = 64


class GeometryError(ValueError):
    """Degenerate input configuration for a geometric construction."""


class SamplingError(RuntimeError):
    """A seeded sampler exhausted its retry budget."""


def omega(n, u, v):
    """Value of the symplectic form on two coordinate vectors."""
    # pairs u_i with v_{2n-1-i} for i < n, both factors sliced at C level
    return (sum(map(mul, u[:n], v[2 * n - 1:n - 1:-1]))
            - sum(map(mul, u[2 * n - 1:n - 1:-1], v[:n])))


def _independent(u, v):
    """Whether two rows are independent: some 2 x 2 minor is nonzero."""
    i = next((k for k, x in enumerate(u) if x), None)
    return i is not None and any(u[i] * y - v[i] * x for x, y in zip(u, v))


def _rank2(u, v):
    """Rank of two rows, from minors: 2 if independent, else 1 if nonzero."""
    return _independent(u, v) + (any(u) or any(v))


class Plane2:
    """An exact rank-2 row space in the 2n-dimensional ambient space.

    ``gens`` are two independent integer rows spanning it.  ``rows``, the
    canonical basis (reduced echelon, primitive integers), is computed on
    first use and kept; equality, hashing, ``repr``, ``matrix`` and the
    constructions whose output depends on the basis read it, so two planes
    are equal iff they have the same row space.  Isotropy, ``dim_sum``,
    ``dim_intersect``, ``gram_rank``, ``in_schubert``, the cell profile
    check and a membership trial's residues read ``gens``.  Isotropy is a
    property to test, not an invariant of the type.
    """

    __slots__ = ("n", "gens", "_rows")

    def __init__(self, n, rows):
        _check_n(n)
        gens = tuple(map(tuple, rows))
        if any(len(r) != 2 * n for r in gens):
            raise GeometryError(f"rows must have length 2n = {2 * n}")
        self._rows = None
        # a nonzero minor needs no elimination; gcd refuses what rref does
        if not (len(gens) == 2 and gcd(*gens[0], *gens[1])
                and _independent(*gens)):
            self._rows = gens = rref(gens)
            if len(gens) != 2:
                raise GeometryError(
                    f"rows span a space of dimension {len(gens)}, need 2")
        self.n = n
        self.gens = gens

    @property
    def rows(self):
        if self._rows is None:
            self._rows = rref(self.gens)
        return self._rows

    def is_isotropic(self):
        return omega(self.n, *self.gens) == 0

    def matrix(self):
        return [list(r) for r in self.rows]

    def __eq__(self, other):
        return (isinstance(other, Plane2)
                and self.n == other.n and self.rows == other.rows)

    def __hash__(self):
        return hash((self.n, self.rows))

    def __repr__(self):
        return f"Plane2(n={self.n}, rows={self.rows})"


def dim_sum(*planes):
    """Dimension of the span of the planes, which must share one n."""
    if len(ns := {p.n for p in planes}) > 1:
        raise GeometryError(f"planes of different n: {min(ns)} and {max(ns)}")
    return rank([r for p in planes for r in p.gens])


def dim_intersect(x, y):
    return 4 - dim_sum(x, y)


def gram_rank(n, x, y):
    """Rank of the symplectic form on V_x + V_y, for two planes of this n.

    Their 4 x 4 antisymmetric Gram matrix has even rank and det = Pf^2, so
    rank 4 iff Pf = ab.cd - ac.bd + ad.bc is nonzero, else 2 iff some entry
    is.  For raw rows, take ``linalg.rank`` of their Gram matrix.
    """
    if not x.n == y.n == n:
        dim_sum(x, y)  # raises for planes of different n
        raise GeometryError(f"planes lie in IG(2, 2n) for n = {x.n}, "
                            f"not n = {n}")
    a, b, c, d = *x.gens, *y.gens
    ab, ac, ad = omega(n, a, b), omega(n, a, c), omega(n, a, d)
    bc, bd, cd = omega(n, b, c), omega(n, b, d), omega(n, c, d)
    if ab * cd - ac * bd + ad * bc:
        return 4
    return 2 if ab or ac or ad or bc or bd or cd else 0


def _unit_rows(length, idxs):
    """Coordinate vectors e_i of the given length, for 0-based i in ``idxs``."""
    return [[int(j == i) for j in range(length)] for i in idxs]


def coordinate_plane(n, i, j):
    return Plane2(n, _unit_rows(2 * n, (i - 1, j - 1)))


def _dim_meet_prefix(rows, k):
    """dim of the span of two independent rows met with <e_1, ..., e_k>."""
    return 2 - _rank2(*(r[k:] for r in rows))


def _reversed(rows):
    """Rows in reversed coordinates, e_i <-> e_{2n+1-i}: E^k maps onto E_k."""
    return [r[::-1] for r in rows]


def in_schubert(n, plane, pair, opposite=False):
    """Exact membership of a plane in the (closed) Schubert variety of ``pair``.

    The opposite variety is the standard one in reversed coordinates.
    """
    a, b = require_valid(n, pair)
    if plane.n != n:
        raise GeometryError(f"plane lies in IG(2, 2n) for n = {plane.n}, "
                            f"not n = {n}")
    rows = _reversed(plane.gens) if opposite else plane.gens
    return _dim_meet_prefix(rows, b) == 2 and _dim_meet_prefix(rows, a) >= 1


def _rng_of(seed, rng):
    if rng is not None:
        return rng
    return random.Random(0 if seed is None else seed)


def _random_vector(rng, length, support=None):
    """Random nonzero integer vector, optionally on a 1-based support set."""
    idxs = list(range(length)) if support is None else [i - 1 for i in support]
    for _ in range(_MAX_TRIES):
        v = [0] * length
        for i in idxs:
            v[i] = rng.randint(-_COORD_BOUND, _COORD_BOUND)
        if any(v):
            return v
    raise SamplingError("could not draw a nonzero vector")


def _combination(span, rng):
    """Random integer combination of the rows of ``span``, coefficients in [-9, 9]."""
    coeffs = [rng.randint(-9, 9) for _ in span]
    return [sum(map(mul, coeffs, col)) for col in zip(*span)]


def _partner_plane(n, a, candidate, within=None):
    """Isotropic plane <a, b>, or None when the construction degenerates.

    b is ``candidate`` or, when c = omega(a, candidate) is nonzero,
    d.candidate - c.u for the first u in ``within`` (basis vectors; default
    the ambient coordinates) with d = omega(a, u) nonzero.  Either way
    omega(a, b) = 0 (d.c - c.d), so the plane is isotropic.  None when no
    such u exists, or when b is zero or parallel to a.
    """
    b = candidate
    c = omega(n, a, candidate)
    if c != 0:
        for u in _unit_rows(2 * n, range(2 * n)) if within is None else within:
            d = omega(n, a, u)
            if d != 0:
                b = [d * x - c * y for x, y in zip(candidate, u)]
                break
        else:
            return None  # a pairs to zero with the whole span; candidate unusable
    if not _independent(a, b):  # b is zero or parallel to a
        return None
    return Plane2(n, [a, b])


def random_isotropic_plane(n, seed=None, rng=None):
    """Seeded random point of IG(2, 2n) with small integer coordinates."""
    rng = _rng_of(seed, rng)
    two_n = 2 * n
    for _ in range(_MAX_TRIES):
        v1 = _random_vector(rng, two_n)
        plane = _partner_plane(n, v1, _random_vector(rng, two_n))
        if plane is not None:
            return plane
    raise SamplingError(f"random isotropic plane failed for n={n}")


def random_point_in_cell(n, pair, *, seed=None, rng=None):
    """Point of the open cell of ``pair``: meets E_a in dimension exactly 1,
    sits inside E_b, and meets no smaller flag subspace than forced.

    A point of the opposite cell, for the E^ flag, is such a point in
    reversed coordinates, as ``in_schubert`` treats the opposite variety.
    Verified post-hoc; resamples on genericity failure.
    """
    rng = _rng_of(seed, rng)
    a, b = require_valid(n, pair)
    two_n = 2 * n
    e_basis = _unit_rows(two_n, range(b))
    for _ in range(_MAX_TRIES):
        v1 = _random_vector(rng, two_n, support=range(1, a + 1))
        if v1[a - 1] == 0:
            continue
        cand = _random_vector(rng, two_n, support=range(1, b + 1))
        plane = _partner_plane(n, v1, cand, within=e_basis)
        if plane is None:
            continue
        # also rejects a partner inside E_{b-1}: it meets E_{b-1} in dimension 2
        if all(_dim_meet_prefix(plane.gens, k) == (k >= a) + (k >= b)
               for k in range(1, two_n + 1)):
            return plane
    raise SamplingError(f"cell sampling failed for n={n}, pair={pair}")


def general_position_pair(n, seed=None, rng=None):
    """Two isotropic planes spanning a 4-space on which omega has rank 4."""
    rng = _rng_of(seed, rng)
    for _ in range(_MAX_TRIES):
        x = random_isotropic_plane(n, rng=rng)
        y = random_isotropic_plane(n, rng=rng)
        if gram_rank(n, x, y) == 4:  # which also makes x + y a 4-space
            return x, y
    raise SamplingError(f"general-position pair failed for n={n}")


def chain2_through(x, y):
    """Middle point of a two-line chain through general points x and y.

    Picks a in V_x and the (unique up to scale) b in V_y with omega(a, b) = 0;
    the plane <a, b> is isotropic, meets both V_x and V_y, and lies in their
    span.  Requires V_x and V_y transverse with omega of rank 4 on the span.
    """
    n = x.n
    if gram_rank(n, x, y) != 4:  # a common line makes omega degenerate too
        raise GeometryError("x and y must span a 4-space (got a common line)"
                            if dim_intersect(x, y) else
                            "omega is degenerate on the span of x and y")
    a = x.rows[0]
    r0, r1 = y.gens
    c0, c1 = omega(n, a, r0), omega(n, a, r1)
    # rank-4 pairing makes omega(a, .) nonzero on V_y; its kernel is a line
    b = [c1 * p - c0 * q for p, q in zip(r0, r1)]
    if not any(b):
        raise GeometryError("degenerate pairing against V_y")
    return Plane2(n, [a, b])


def verify_two_line_chain(x, y, t):
    """Check the incidences claimed for a two-line chain middle point."""
    return (t.is_isotropic()
            and dim_intersect(t, x) >= 1
            and dim_intersect(t, y) >= 1
            and dim_sum(x, y, t) <= 4)


def _gamma3_in_span(n, span, z, residues):
    """Degree-3 witness inside ``span``, an echelon basis of V_x + V_y, or
    None when V_z misses the span: v, the first rref row of the meet, paired
    with a vector of the span omega-orthogonal to V_z.  With (r_u, c_u) and
    (r_w, c_w) the ``residues`` of z's generators u, w against ``span``,
    a.r_u + b.r_w = 0 gives the meet vector a.c_u.u + b.c_w.w; if both
    vanish, V_z lies in the span and its first rref row vanishes in its
    second pivot column q.  v is primitive and the slice an rref, so
    neither depends on the basis of ``span``."""
    (ru, cu), (rw, cw) = residues
    if _rank2(ru, rw) == 2:
        return None
    u, w = z.gens
    k = next((j for j, x in enumerate(ru) if x), None)
    if k is None and not any(rw):
        p = next(j for j, (a, b) in enumerate(zip(u, w)) if a or b)
        q = next(j for j in range(p + 1, 2 * n) if u[p] * w[j] - w[p] * u[j])
        a, b = w[q], -u[q]
    else:
        a, b = (1, 0) if k is None else (rw[k] * cu, -ru[k] * cw)
    v = primitive_int_row([a * s + b * t for s, t in zip(u, w)])
    # c . span lies in the omega-orthogonal of V_z iff c kills this pairing
    pairing = [[omega(n, s, r) for s in span] for r in z.gens]
    orth = rref([[sum(map(mul, c, col)) for col in zip(*span)]
                 for c in nullspace(pairing)])
    # the slice has dimension >= 2, so some row is independent of v
    return Plane2(n, [v, next(c for c in orth if _independent(v, c))])


def verify_gamma3_witness(x, y, z, t):
    """Check the incidences claimed for a degree-3 witness."""
    return (t.is_isotropic()
            and dim_sum(x, y, t) <= 4
            and dim_intersect(t, z) >= 1)


def _gamma4_in_span(n, span, z, rng):
    """Degree-4 middle point drawn inside ``span``, the row basis of V_x + V_y."""
    for _ in range(_MAX_TRIES):
        a = _combination(span, rng)
        if not any(a):
            continue
        t = _partner_plane(n, a, _combination(span, rng), within=span)
        if t is not None and gram_rank(n, t, z) == 4:
            return t
    return None


def verify_gamma4_witness(x, y, z, t):
    return (t.is_isotropic()
            and dim_sum(x, y, t) <= 4
            and gram_rank(x.n, x, y) == 4
            and gram_rank(x.n, t, z) == 4)


@lru_cache(maxsize=None)
def _geometric_fixed_points(n, pair):
    """Fixed coordinate planes inside the Schubert variety, by membership."""
    return frozenset(
        (i, j) for (i, j) in basis_list(n)
        if in_schubert(n, coordinate_plane(n, i, j), pair))


def bruhat_oracle(n, p, q):
    """Containment of torus-fixed-point sets, computed geometrically."""
    p = require_valid(n, p)
    q = require_valid(n, q)
    return _geometric_fixed_points(n, p) <= _geometric_fixed_points(n, q)


def richardson_witness(n, u, v, seed=None, rng=None):
    """Construct a point of X_u cap X^v from flag intersections, or None.

    Builds V = <a', b'> with a' in E_{p1} cap E^{q2} and b' in
    E_{p2} cap E^{q1} orthogonal to a'.  Returns None exactly when one of
    the two index intervals is empty.
    """
    rng = _rng_of(seed, rng)
    p1, p2 = require_valid(n, u)
    q1, q2 = require_valid(n, v)
    two_n = 2 * n
    lo1 = max(1, two_n + 1 - q2)
    lo2 = max(1, two_n + 1 - q1)
    if lo1 > p1 or lo2 > p2:
        return None
    support1 = list(range(lo1, p1 + 1))
    support2 = list(range(lo2, p2 + 1))
    if len(support2) == 1:
        # b' is forced to e_{p2}; a' must avoid the coordinate pairing with it
        k = two_n + 1 - p2
        support1 = [i for i in support1 if i != k]
        if not support1:
            raise SamplingError(
                f"no isotropic witness support for u={u}, v={v}, n={n}")
    units2 = _unit_rows(two_n, (k - 1 for k in support2))
    for _ in range(_MAX_TRIES):
        a = _random_vector(rng, two_n, support=support1)
        piv = next((i for i, e in enumerate(units2) if omega(n, a, e)), None)
        if piv is None:
            b = _random_vector(rng, two_n, support=support2)
        else:
            # e_piv's entry stays 0; _partner_plane solves for it
            b = [0] * two_n
            for i, k in enumerate(support2):
                if i != piv:
                    b[k - 1] = rng.randint(-_COORD_BOUND, _COORD_BOUND)
        plane = _partner_plane(n, a, b, within=units2)
        if (plane is not None
                and in_schubert(n, plane, u)
                and in_schubert(n, plane, v, opposite=True)):
            return plane
    raise SamplingError(f"richardson witness failed for u={u}, v={v}, n={n}")


def line_witness(n, u, v, seed=None, rng=None):
    """Points of X_u and X^v on a common line, built from flag data, or None.

    The common direction is drawn from E_{p2} cap E^{q2} and extended into
    each variety by an orthogonal vector from the smaller flag subspace, so
    success is exactly p2 + q2 >= 2n + 1: the nonemptiness criterion for the
    degree-1 neighborhood of the pair.
    """
    rng = _rng_of(seed, rng)
    p1, p2 = require_valid(n, u)
    q1, q2 = require_valid(n, v)
    two_n = 2 * n
    lo = max(1, two_n + 1 - q2)
    if lo > p2:
        return None
    support = range(lo, p2 + 1)
    lower = _unit_rows(two_n, range(p1))
    upper = _unit_rows(two_n, range(two_n - 1, two_n - 1 - q1, -1))
    for _ in range(_MAX_TRIES):
        direction = _random_vector(rng, two_n, support=support)
        # both candidates are drawn before either plane is tested
        x = _partner_plane(n, direction,
                           _random_vector(rng, two_n, support=range(1, p1 + 1)),
                           within=lower)
        y = _partner_plane(n, direction,
                           _random_vector(rng, two_n,
                                          support=range(two_n + 1 - q1, two_n + 1)),
                           within=upper)
        if (x is not None and y is not None
                and in_schubert(n, x, u)
                and in_schubert(n, y, v, opposite=True)
                and dim_intersect(x, y) >= 1):
            return x, y
    raise SamplingError(f"line witness failed for u={u}, v={v}, n={n}")


def _sample_z(n, span, mode, rng):
    """Sample a test plane: inside ``span`` (the row basis of V_x + V_y),
    touching it, or free."""
    if mode == "generic":
        return random_isotropic_plane(n, rng=rng)
    for _ in range(_MAX_TRIES):
        a = _combination(span, rng)
        if not any(a):
            continue
        if mode == "inside":
            plane = _partner_plane(n, a, _combination(span, rng), within=span)
        else:  # touch: one direction inside the span, one outside
            plane = _partner_plane(n, a, _random_vector(rng, 2 * n))
        if plane is not None:
            return plane
    raise SamplingError(f"z sampling failed for mode {mode!r}, n={n}")


def _residues(span, z):
    """(r, c) per generator g of z, reduced fraction-free against ``span``,
    an echelon basis each of whose rows starts right of the one before:
    r = c.g + (a vector of the span), c the product of the pivots used.  r
    vanishes in the span's pivot columns: the two r have the rank of V_z
    modulo the span."""
    u, w = z.gens
    cu = cw = 1
    for s in span:
        p = next(j for j, x in enumerate(s) if x)
        if f := u[p]:
            u = [s[p] * a - f * b for a, b in zip(u, s)]
            cu *= s[p]
        if f := w[p]:
            w = [s[p] * a - f * b for a, b in zip(w, s)]
            cw *= s[p]
    return (u, cu), (w, cw)


def membership_suite(n, trials, seed):
    """Compare verified witnesses with the point-pair criteria of
    ``neighborhoods.gamma_point_pair``.

    Each trial draws a general pair (x, y), verifies the two-line chain
    through them, then tests three z-samples against the degree 2, 3 and 4
    criteria; every witness is checked once by its ``verify_*`` function.
    Returns a JSON-ready report; failures embed the offending matrices and
    the per-trial seed.
    """
    _check_n(n)
    failures = []
    checks = 0
    criteria = {f"deg{d}": gamma_point_pair(n, d) for d in (2, 3, 4)}
    outcomes = {what: {"true": 0, "false": 0} for what in criteria}

    def fail(trial_seed, what, x, y, z, extra=None):
        failures.append({
            "what": what, "trial_seed": trial_seed,
            "x": x.matrix(), "y": y.matrix(),
            "z": z.matrix() if z is not None else None,
            "extra": extra,
        })

    for trial in range(trials):
        trial_seed = seed * 1_000_003 + trial
        rng = random.Random(trial_seed)
        x, y = general_position_pair(n, rng=rng)
        span = row_basis(stack(x.rows, y.rows))
        checks += 1
        try:
            mid = chain2_through(x, y)
            if not verify_two_line_chain(x, y, mid):
                fail(trial_seed, "two_line_chain", x, y, None)
        except GeometryError as exc:
            fail(trial_seed, "two_line_chain", x, y, None, extra=str(exc))
        for mode in ("inside", "touch", "generic"):
            z = _sample_z(n, span, mode, rng)
            residues = (ru, _), (rw, _) = _residues(span, z)
            ds = len(span) + _rank2(ru, rw)
            t3 = _gamma3_in_span(n, span, z, residues)
            t4 = _gamma4_in_span(n, span, z, rng)
            witnessed = {
                # general_position_pair gives gram rank 4 on V_x + V_y
                "deg2": z.is_isotropic() and ds == 4,
                "deg3": t3 is not None and verify_gamma3_witness(x, y, z, t3),
                "deg4": t4 is not None and verify_gamma4_witness(x, y, z, t4),
            }
            checks += 3
            for what, criterion in criteria.items():
                expected = criterion(ds)
                outcomes[what]["true" if expected else "false"] += 1
                if witnessed[what] != expected:
                    fail(trial_seed, what, x, y, z, extra={"dim_sum": ds})
    return {"suite": "membership", "n": n, "trials": trials, "seed": seed,
            "checks": checks, "outcomes": outcomes, "failures": failures}
