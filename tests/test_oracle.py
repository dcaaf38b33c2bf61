import hashlib
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qkig.linalg import (
    intersect_rowspaces,
    nullspace,
    primitive_int_row,
    rank,
    row_basis,
    rref,
    stack,
)
from qkig.oracle import (
    GeometryError,
    Plane2,
    bruhat_oracle,
    chain2_through,
    coordinate_plane,
    dim_intersect,
    dim_sum,
    general_position_pair,
    gram_rank,
    in_schubert,
    line_witness,
    membership_suite,
    omega,
    random_isotropic_plane,
    random_point_in_cell,
    richardson_witness,
    verify_gamma3_witness,
    verify_gamma4_witness,
    verify_two_line_chain,
)
from qkig.pairs import basis_list, bruhat_leq, richardson_nonempty


def _reference_rref(rows):
    """Nonzero rows of the reduced echelon form, by Fraction Gauss-Jordan."""
    m = [[Fraction(x) for x in r] for r in rows]
    rk = 0
    for col in range(len(m[0])):
        piv = next((r for r in range(rk, len(m)) if m[r][col]), None)
        if piv is None:
            continue
        m[rk], m[piv] = m[piv], m[rk]
        m[rk] = [x / m[rk][col] for x in m[rk]]
        for r in range(len(m)):
            f = m[r][col]
            if r != rk and f:
                m[r] = [x - f * y for x, y in zip(m[r], m[rk])]
        rk += 1
    return m[:rk]


def _primitive(row):
    """A reference rref row (pivot 1) scaled to a primitive integer row."""
    den = math.lcm(*(x.denominator for x in row))
    ints = [int(x * den) for x in row]
    g = math.gcd(*ints)
    return tuple(x // g for x in ints)


_ENTRIES = st.one_of(st.just(0), st.integers(-6, 6))


def test_linalg_basics():
    assert primitive_int_row([2, 4, -6]) == (1, 2, -3)
    assert primitive_int_row([-2, 4]) == (1, -2)
    assert primitive_int_row([0, 0]) == (0, 0)
    assert rank([[1, 0], [0, 1], [1, 1]]) == 2
    assert rank([[0, 0]]) == 0
    # rref rows are primitive integer rows
    assert rref([[2, 2], [1, 1]]) == ((1, 1),)
    rows = row_basis([[2, 4, 0], [1, 2, 0], [0, 0, 5]])
    assert len(rows) == 2
    assert nullspace([[1, 2, 3]]) == [(2, -1, 0), (3, 0, -1)]
    assert intersect_rowspaces([[1, 0, 0], [0, 1, 0]],
                               [[0, 2, 2], [0, 0, 1]]) == [(0, 1, 0)]
    for empty in ([], iter(())):
        assert intersect_rowspaces(empty, [[1, 0, 0]]) == []
        assert intersect_rowspaces([[1, 0, 0]], empty) == []


@settings(max_examples=200, derandomize=True)
@given(st.data())
def test_linalg_kernel_matches_fraction_reference(data):
    ncols = data.draw(st.integers(1, 6))
    # entries in {-1, 0, 1} give unit pivots that repeat, and zeroed
    # columns leave rows with a zero below or above a pivot
    entries = data.draw(st.sampled_from([_ENTRIES, st.integers(-1, 1)]))
    matrices = st.lists(st.lists(entries, min_size=ncols, max_size=ncols),
                        min_size=1, max_size=5)
    m, other = data.draw(matrices), data.draw(matrices)
    for c in data.draw(st.sets(st.integers(0, ncols - 1), max_size=ncols - 1)):
        for r in m:
            r[c] = 0
    ref = _reference_rref(m)
    assert rank(m) == len(ref)
    assert rref(m) == tuple(_primitive(r) for r in ref)
    assert rref(row_basis(m)) == rref(m)
    kernel = nullspace(m)
    assert len(kernel) == ncols - len(ref) and rank(kernel) == len(kernel)
    assert all(sum(x * y for x, y in zip(r, v)) == 0
               for r in m for v in kernel)
    meet = intersect_rowspaces(m, other)
    assert len(meet) == rank(m) + rank(other) - rank(stack(m, other))
    # every meet vector lies in both row spaces: adding it keeps the rank
    assert all(rank(s + [v]) == rank(s) for v in meet for s in (m, other))


def test_omega_form():
    n = 3
    e = [[1 if j == i else 0 for j in range(6)] for i in range(6)]
    for i in range(6):
        for j in range(6):
            val = omega(n, e[i], e[j])
            if i + j == 5:  # 1-based indices summing to 2n + 1
                assert val == (1 if i < j else -1)
            else:
                assert val == 0
            assert val == -omega(n, e[j], e[i])


def test_plane_construction_and_isotropy():
    assert coordinate_plane(3, 1, 2).is_isotropic()
    assert not coordinate_plane(3, 1, 6).is_isotropic()
    with pytest.raises(GeometryError):
        Plane2(3, [[1, 0, 0, 0, 0, 0], [2, 0, 0, 0, 0, 0]])  # rank 1
    # canonical form: equal row spaces compare equal
    p = Plane2(2, [[1, 2, 0, 0], [0, 0, 1, 1]])
    q = Plane2(2, [[1, 2, 1, 1], [0, 0, 2, 2]])
    assert p == q


@pytest.mark.parametrize("bad", [Fraction(1, 2), 0.5])
def test_plane_constructor_errors(bad):
    # a non-integer entry is refused whether or not the two rows are
    # independent, and with three rows as well
    for rows in ([[1, bad, 0, 0], [0, 0, 1, 0]],
                 [[bad, 0, 0, 0], [1, 0, 0, 0]],
                 [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, bad, 0]]):
        with pytest.raises(TypeError):
            Plane2(2, rows)
    e = [[int(i == j) for j in range(4)] for i in range(4)]
    for rows, k in (([[0] * 4, e[1]], 1), ([[0] * 4, [0] * 4], 0),
                    ([e[0], [-3, 0, 0, 0]], 1), ([e[2]], 1), ([], 0),
                    ([e[0], [2, 0, 0, 0], [0, 0, 0, 0]], 1)):
        with pytest.raises(GeometryError,
                           match=f"dimension {k}, need 2$"):
            Plane2(2, rows)
    three = Plane2(2, [e[0], [1, 1, 0, 0], e[1]])
    assert three == Plane2(2, [e[1], [2, 1, 0, 0]])
    assert three.rows == coordinate_plane(2, 1, 2).rows == ((1, 0, 0, 0),
                                                            (0, 1, 0, 0))
    for rows in ([e[0], [0, 1, 0]], [e[0] + [0], e[1] + [0]]):
        with pytest.raises(GeometryError, match="length 2n = 4"):
            Plane2(2, rows)


def _fraction_rank(rows):
    return len(_reference_rref(rows)) if rows else 0


@settings(max_examples=100, derandomize=True)
@given(st.data())
def test_plane_queries_ignore_generators(data):
    # a plane is its row space: the rows it is built from, and any G . rows
    # with det G != 0, give the same canonical form and the same answers
    n = data.draw(st.integers(2, 4))
    vec = st.lists(st.integers(-4, 4), min_size=2 * n, max_size=2 * n)
    pair = st.lists(vec, min_size=2, max_size=2).filter(
        lambda rows: _fraction_rank(rows) == 2)
    gens = data.draw(pair)
    g = data.draw(st.lists(st.integers(-3, 3), min_size=4, max_size=4).filter(
        lambda g: g[0] * g[3] != g[1] * g[2]))
    mixed = [[g[0] * a + g[1] * b for a, b in zip(*gens)],
             [g[2] * a + g[3] * b for a, b in zip(*gens)]]
    p, q = Plane2(n, gens), Plane2(n, mixed)
    assert p == q and hash(p) == hash(q)
    canonical = tuple(_primitive(r) for r in _reference_rref(gens))
    assert p.rows == q.rows == canonical
    assert p.matrix() == q.matrix() and repr(p) == repr(q)
    assert p.is_isotropic() == q.is_isotropic() == (omega(n, *gens) == 0)
    # a third plane sharing a line with p, or not
    other = data.draw(pair)
    if data.draw(st.booleans()):
        other[0] = gens[data.draw(st.integers(0, 1))]
    if _fraction_rank(other) < 2:
        other[1] = data.draw(vec.filter(
            lambda v: _fraction_rank([other[0], v]) == 2))
    third = Plane2(n, other)
    both = gens + other
    span_dim = _fraction_rank(both)
    gram = _fraction_rank([[omega(n, u, v) for v in both] for u in both])
    for plane in (p, q):
        assert dim_sum(plane, third) == dim_sum(third, plane) == span_dim
        assert dim_intersect(plane, third) == 4 - span_dim
        assert gram_rank(n, plane, third) == gram_rank(n, third, plane) == gram


def test_dim_helpers():
    x = coordinate_plane(3, 1, 2)
    assert dim_sum(x, x) == 2
    assert dim_intersect(x, coordinate_plane(3, 1, 6)) == 1
    meet = intersect_rowspaces(x.rows, coordinate_plane(3, 2, 3).rows)
    assert len(meet) == 1
    # planes of two ambient spaces have no common span
    other = coordinate_plane(4, 3, 4)
    for helper in (dim_sum, dim_intersect, lambda a, b: gram_rank(3, a, b)):
        with pytest.raises(GeometryError, match="n: 3 and 4"):
            helper(x, other)
        with pytest.raises(GeometryError, match="n: 3 and 4"):
            helper(other, x)


def test_random_isotropic_plane_seeded():
    p1 = random_isotropic_plane(3, seed=5)
    p2 = random_isotropic_plane(3, seed=5)
    assert p1 == p2 and p1.is_isotropic()
    assert random_isotropic_plane(3, seed=6) != p1


def test_random_point_in_cell():
    assert random_point_in_cell(2, (1, 2), seed=3) == coordinate_plane(2, 1, 2)
    p = random_point_in_cell(3, (2, 4), seed=4)
    assert p.is_isotropic() and in_schubert(3, p, (2, 4))
    # exact cell membership: meets E_2 in dimension one, not contained in E_3
    assert in_schubert(3, p, (1, 4)) is False
    assert in_schubert(3, p, (2, 3)) is False
    # a point of the opposite cell is a cell point in reversed coordinates
    from qkig.oracle import _reversed
    q = Plane2(3, _reversed(p.gens))
    assert q.is_isotropic() and in_schubert(3, q, (2, 4), opposite=True)
    assert not in_schubert(3, q, (1, 4), opposite=True)
    # a top-cell sample avoids every proper Schubert subvariety
    top = random_point_in_cell(3, (5, 6), seed=11)
    for pair in basis_list(3):
        if pair != (5, 6):
            assert not in_schubert(3, top, pair)
    # a plane of another ambient space has no answer here
    with pytest.raises(GeometryError, match="n = 4, not n = 3"):
        in_schubert(3, coordinate_plane(4, 1, 2), (1, 2))
    with pytest.raises(GeometryError, match="n = 2, not n = 3"):
        in_schubert(3, coordinate_plane(2, 1, 2), (1, 2), opposite=True)
    # the seed is keyword-only: a third positional argument is refused
    with pytest.raises(TypeError, match="positional"):
        random_point_in_cell(3, (2, 4), "opposite")


@pytest.mark.parametrize("n", [2, 3, 4])
def test_every_cell_is_sampleable(n):
    # the flag profile of a cell point jumps exactly at the two indices
    from qkig.oracle import _dim_meet_prefix
    for pair in basis_list(n):
        a, b = pair
        p = random_point_in_cell(n, pair, seed=13)
        assert p.is_isotropic() and in_schubert(n, p, pair)
        profile = [_dim_meet_prefix(p.rows, k) for k in range(1, 2 * n + 1)]
        assert profile == [(k >= a) + (k >= b) for k in range(1, 2 * n + 1)]


def test_bruhat_suite_checks_cell_points(monkeypatch):
    from qkig import oracle, verify
    rep = verify.run_suite("bruhat", 3, seed=5)[0]
    # per n: the basis, then the fixed-point order, one cell point per class,
    # and the Richardson and line witnesses, each over all N^2 pairs
    assert rep["failures"] == []
    assert rep["checks"] == 4 * (4 ** 2 + 12 ** 2) + 2
    # a sampler stuck on the point cell: its point lies in every X_v, so
    # each pair with u not <= v fails, in the order of the pairs
    real = oracle.random_point_in_cell
    monkeypatch.setattr(oracle, "random_point_in_cell",
                        lambda n, u, seed: real(n, (1, 2), seed=seed))
    bad = verify.run_suite("bruhat", 3, seed=5)[0]["failures"]
    assert bad == [{"n": n, "u": u, "v": v, "what": "cell"}
                   for n in (2, 3) for u in basis_list(n)
                   for v in basis_list(n) if not bruhat_leq(n, u, v)]


def test_chain2_through():
    x = coordinate_plane(3, 1, 2)
    y = coordinate_plane(3, 5, 6)
    t = chain2_through(x, y)
    assert verify_two_line_chain(x, y, t)
    assert t.is_isotropic()
    with pytest.raises(GeometryError):
        chain2_through(x, x)
    with pytest.raises(GeometryError):
        # spans a 4-space but omega degenerates on it
        chain2_through(coordinate_plane(3, 1, 2), coordinate_plane(3, 3, 4))


def _gamma3_witness(x, y, z):
    """The degree-3 witness a membership trial builds on V_x + V_y."""
    from qkig.oracle import _gamma3_in_span, _residues
    span = row_basis(stack(x.rows, y.rows))
    return _gamma3_in_span(x.n, span, z, _residues(span, z))


def _gamma4_witness(x, y, z, rng):
    """The degree-4 witness a membership trial draws inside V_x + V_y."""
    from qkig.oracle import _gamma4_in_span
    return _gamma4_in_span(x.n, row_basis(stack(x.rows, y.rows)), z, rng)


def test_gamma3_witness():
    x = coordinate_plane(3, 1, 2)
    y = coordinate_plane(3, 5, 6)
    t = _gamma3_witness(x, y, x)
    assert t is not None and verify_gamma3_witness(x, y, x, t)
    # the construction pairs a vector of V_z with one of its perp: isotropic
    assert t.is_isotropic()
    rng = random.Random(11)
    seen_none = False
    for _ in range(12):
        z = random_isotropic_plane(3, rng=rng)
        w = _gamma3_witness(x, y, z)
        if dim_sum(x, y, z) <= 5:
            assert w is not None and verify_gamma3_witness(x, y, z, w)
        else:
            assert w is None
            seen_none = True
    assert seen_none


def _reference_gamma3(n, x, y, z):
    """The degree-3 witness built in the ambient space: the omega-orthogonal
    of V_z as a nullspace of its dual rows, then met with V_x + V_y."""
    span = stack(x.rows, y.rows)
    meet = intersect_rowspaces(span, z.rows)
    if not meet:
        return None
    units = [[int(j == i) for j in range(2 * n)] for i in range(2 * n)]
    dual = [[omega(n, r, e) for e in units] for r in z.rows]
    perp = nullspace(dual)
    w = next(c for c in intersect_rowspaces(span, perp)
             if rank([meet[0], c]) == 2)
    return Plane2(n, [meet[0], w])


def test_gamma3_witness_matches_reference():
    from qkig.oracle import _gamma3_in_span, _residues, _sample_z
    for n in (2, 3, 4, 5):
        for seed in range(20):
            rng = random.Random(seed)
            x, y = general_position_pair(n, rng=rng)
            span = row_basis(stack(x.rows, y.rows))
            for mode in ("inside", "touch", "generic"):
                z = _sample_z(n, span, mode, rng)
                expected = _reference_gamma3(n, x, y, z)
                assert _gamma3_in_span(n, span, z, _residues(span, z)) == \
                    expected, (n, seed, mode)


def test_gamma3_meet_edge_cases():
    # every way V_z can meet V_x + V_y: inside it, in a line given by one
    # generator or by a combination of both, or not at all
    from qkig.oracle import _combination, _gamma3_in_span, _residues
    seen = set()
    for n in (2, 3, 4, 5):
        for seed in range(10):
            rng = random.Random(seed)
            x, y = general_position_pair(n, rng=rng)
            span = row_basis(stack(x.rows, y.rows))
            s1, s2 = _combination(span, rng), _combination(span, rng)
            # for n >= 3, o and b are (for these seeds) outside the span
            o, b = ([rng.randint(-5, 5) for _ in range(2 * n)] for _ in "ob")
            zs = [x, y, Plane2(n, [x.gens[0], b]),
                  Plane2(n, [s1, o]), Plane2(n, [o, s1]),
                  # both residues are multiples of o's: nonzero and parallel
                  Plane2(n, [[p + q for p, q in zip(o, s1)],
                             [3 * p + q for p, q in zip(o, s2)]]),
                  Plane2(n, [o, b])]
            zs += [coordinate_plane(n, i, j)
                   for i in range(1, 2 * n + 1)
                   for j in range(i + 1, 2 * n + 1) if (i + j + seed) % 3 == 0]
            for z in zs:
                expected = _reference_gamma3(n, x, y, z)
                assert _gamma3_in_span(n, span, z, _residues(span, z)) == \
                    expected, (n, seed, z)
                seen.add((dim_sum(x, y, z), expected is None))
    assert seen == {(4, False), (5, False), (6, True)}


def test_gamma4_witness_always_succeeds():
    rng = random.Random(2)
    for n in (2, 3):
        x, y = general_position_pair(n, rng=rng)
        for _ in range(5):
            z = random_isotropic_plane(n, rng=rng)
            t = _gamma4_witness(x, y, z, rng)
            assert t is not None and verify_gamma4_witness(x, y, z, t)


def test_planted_violation_detected():
    x = coordinate_plane(3, 1, 2)
    y = coordinate_plane(3, 5, 6)
    z = coordinate_plane(3, 1, 3)
    t = _gamma3_witness(x, y, z)
    assert t is not None
    # replace the witness by a non-isotropic plane: verification rejects it
    bad = Plane2(3, [[1, 0, 0, 0, 0, 0], [0, 0, 0, 0, 0, 1]])
    assert not bad.is_isotropic()
    assert not verify_gamma3_witness(x, y, z, bad)
    # and by an isotropic plane missing the incidence with z
    miss = coordinate_plane(3, 5, 6)
    assert miss.is_isotropic()
    assert not verify_gamma3_witness(x, y, coordinate_plane(3, 3, 4), miss)
    # two-line chain: the same non-isotropic plane meets both V_x and V_y
    assert dim_intersect(bad, x) == dim_intersect(bad, y) == 1
    assert not verify_two_line_chain(x, y, bad)
    # and an isotropic plane meeting V_x but missing V_y
    assert not verify_two_line_chain(x, y, z)
    # degree 4, on a general pair and a general z
    rng = random.Random(3)
    x, y = general_position_pair(3, rng=rng)
    z = random_isotropic_plane(3, rng=rng)
    t = _gamma4_witness(x, y, z, rng)
    assert t is not None and verify_gamma4_witness(x, y, z, t)
    # non-isotropic plane inside V_x + V_y
    a = x.rows[0]
    bad = Plane2(3, [a, next(r for r in y.rows if omega(3, a, r))])
    assert not bad.is_isotropic()
    assert not verify_gamma4_witness(x, y, z, bad)
    # isotropic plane outside V_x + V_y
    assert z.is_isotropic() and dim_sum(x, y, z) > 4
    assert not verify_gamma4_witness(x, y, z, z)
    # no conic through t and z when z = t
    assert not verify_gamma4_witness(x, y, t, t)
    # x and y not in general position
    assert not verify_gamma4_witness(x, x, z, t)


def test_membership_suite_records_planted_failures(monkeypatch):
    # a non-isotropic plane passed off as every degree-3 and degree-4 witness
    from qkig import oracle
    bad = Plane2(3, [[1, 0, 0, 0, 0, 0], [0, 0, 0, 0, 0, 1]])
    monkeypatch.setattr(oracle, "_gamma3_in_span",
                        lambda n, span, z, residues: bad)
    monkeypatch.setattr(oracle, "_gamma4_in_span", lambda n, span, z, rng: bad)
    rep = membership_suite(3, 2, seed=5)
    s0, s1 = 5 * 1_000_003, 5 * 1_000_003 + 1
    found = [(f["what"], f["trial_seed"]) for f in rep["failures"]]
    # every z is swept in degree 4, so all three z-samples of a trial fail
    assert sorted(s for what, s in found if what == "deg4") == [s0] * 3 + [s1] * 3
    assert {what for what, _ in found} == {"deg3", "deg4"}
    assert {s for _, s in found} == {s0, s1}


@pytest.mark.parametrize("n", [2, 3])
def test_bruhat_oracle_matches_product_order(n):
    for u in basis_list(n):
        for v in basis_list(n):
            assert bruhat_oracle(n, u, v) == bruhat_leq(n, u, v)


@pytest.mark.parametrize("n", [2, 3])
def test_richardson_witness_matches_predicate(n):
    for u in basis_list(n):
        for v in basis_list(n):
            w = richardson_witness(n, u, v, seed=7)
            assert (w is not None) == richardson_nonempty(n, u, v)
            if w is not None:
                assert w.is_isotropic()
                assert in_schubert(n, w, u)
                assert in_schubert(n, w, v, opposite=True)


def test_richardson_witness_examples():
    w = richardson_witness(3, (2, 6), (4, 6), seed=1)
    assert w is not None
    assert richardson_witness(2, (1, 2), (1, 2), seed=1) is None


def _reference_richardson(n, u, v, seed):
    """``richardson_witness`` with b built by hand: off-pivot coefficients
    drawn in order, scaled by a's pairing with e_piv, the first support
    vector a pairs with, and e_piv's entry solved for omega(a, b) = 0."""
    from qkig.oracle import (
        _COORD_BOUND, _MAX_TRIES, SamplingError, _random_vector)
    rng = random.Random(seed)
    (p1, p2), (q1, q2) = u, v
    two_n = 2 * n
    lo1, lo2 = max(1, two_n + 1 - q2), max(1, two_n + 1 - q1)
    if lo1 > p1 or lo2 > p2:
        return None
    support1 = list(range(lo1, p1 + 1))
    support2 = list(range(lo2, p2 + 1))
    if len(support2) == 1:
        support1 = [i for i in support1 if i != two_n + 1 - p2]
        if not support1:
            raise SamplingError("no support")
    units2 = [[int(j == k - 1) for j in range(two_n)] for k in support2]
    for _ in range(_MAX_TRIES):
        a = _random_vector(rng, two_n, support=support1)
        pairing = [omega(n, a, e) for e in units2]
        if all(c == 0 for c in pairing):
            b = _random_vector(rng, two_n, support=support2)
        else:
            piv = next(i for i, c in enumerate(pairing) if c != 0)
            b = [0] * two_n
            acc = 0
            for i, k in enumerate(support2):
                if i == piv:
                    continue
                coef = rng.randint(-_COORD_BOUND, _COORD_BOUND)
                b[k - 1] = coef * pairing[piv]
                acc += coef * pairing[i]
            b[support2[piv] - 1] = -acc
        assert omega(n, a, b) == 0
        if rank([a, b]) == 2:
            plane = Plane2(n, [a, b])
            if in_schubert(n, plane, u) and in_schubert(
                    n, plane, v, opposite=True):
                return plane
    raise SamplingError("no witness")


def test_richardson_witness_draws_are_unchanged():
    for n in (2, 3, 4):
        for u in basis_list(n):
            for v in basis_list(n):
                for seed in range(10):
                    assert _rows(richardson_witness(n, u, v, seed=seed)) == \
                        _rows(_reference_richardson(n, u, v, seed)), \
                        (n, u, v, seed)


def test_witness_preconditions():
    x = coordinate_plane(3, 1, 2)
    with pytest.raises(GeometryError, match=r"\(got a common line\)"):
        chain2_through(x, x)
    with pytest.raises(GeometryError, match="omega is degenerate"):
        chain2_through(x, coordinate_plane(3, 3, 4))
    with pytest.raises(GeometryError, match="planes of different n: 3 and 4"):
        chain2_through(x, coordinate_plane(4, 7, 8))
    with pytest.raises(GeometryError, match=r"planes lie in IG\(2, 2n\) "
                       r"for n = 4, not n = 3"):
        gram_rank(3, coordinate_plane(4, 1, 3), coordinate_plane(4, 7, 8))


@pytest.mark.parametrize("n", [2, 3])
def test_line_witness_matches_degree1_nonemptiness(n):
    from qkig.oracle import line_witness
    for u in basis_list(n):
        for v in basis_list(n):
            got = line_witness(n, u, v, seed=21)
            assert (got is not None) == (u[1] + v[1] >= 2 * n + 1)
            if got is not None:
                x, y = got
                assert x.is_isotropic() and y.is_isotropic()
                assert in_schubert(n, x, u)
                assert in_schubert(n, y, v, opposite=True)
                assert dim_intersect(x, y) >= 1


def test_membership_suite_reproducible_and_clean():
    rep = membership_suite(3, 40, seed=9)
    assert rep["failures"] == []
    assert rep["checks"] == 40 * 10
    assert rep == membership_suite(3, 40, seed=9)
    # degrees 2 and 3 see both outcomes at n = 3
    assert rep["outcomes"]["deg2"]["true"] > 0
    assert rep["outcomes"]["deg2"]["false"] > 0
    assert rep["outcomes"]["deg3"]["true"] > 0
    assert rep["outcomes"]["deg3"]["false"] > 0
    assert rep["outcomes"]["deg4"]["false"] == 0
    import json
    json.dumps(rep)  # report is JSON-serializable


def test_membership_suite_n2_all_inside():
    # the ambient space has dimension 4, so every triple spans at most 4
    rep = membership_suite(2, 25, seed=3)
    assert rep["failures"] == []
    assert rep["outcomes"]["deg2"]["false"] == 0
    assert rep["outcomes"]["deg3"]["false"] == 0


def _rows(obj):
    if obj is None:
        return None
    if isinstance(obj, Plane2):
        return obj.rows
    return tuple(_rows(o) for o in obj)


def test_seeded_planes_are_pinned():
    # the canonical rows of every plane the seeded constructions build; a
    # change of canonical form or of any draw changes the digest
    from qkig.oracle import _sample_z
    built = []
    for n in (2, 3, 4):
        for seed in (1, 2, 3):
            rng = random.Random(seed)
            x, y = general_position_pair(n, rng=rng)
            built += [(x, y), chain2_through(x, y)]
            span = row_basis(stack(x.rows, y.rows))
            for mode in ("inside", "touch", "generic"):
                z = _sample_z(n, span, mode, rng)
                built += [z, _gamma3_witness(x, y, z),
                          _gamma4_witness(x, y, z, rng)]
        for u in basis_list(n):
            built.append(random_point_in_cell(n, u, seed=n))
            for v in basis_list(n):
                built += [richardson_witness(n, u, v, seed=5),
                          line_witness(n, u, v, seed=5)]
    digest = hashlib.sha256(repr([_rows(b) for b in built]).encode())
    assert digest.hexdigest() == (
        "1da609c4b5606fcf196ff1c56fa66371fad5cdc3a5229572870bf9992678d057")


def test_sample_z_modes_and_partner_plane():
    from qkig.oracle import _partner_plane, _sample_z
    for n in (2, 3, 4):
        for seed in range(6):
            rng = random.Random(seed)
            x, y = general_position_pair(n, rng=rng)
            span = row_basis(stack(x.rows, y.rows))
            inside = _sample_z(n, span, "inside", rng)
            touch = _sample_z(n, span, "touch", rng)
            generic = _sample_z(n, span, "generic", rng)
            assert all(z.is_isotropic() for z in (inside, touch, generic))
            assert dim_sum(x, y, inside) == 4
            assert intersect_rowspaces(stack(x.rows, y.rows), touch.rows)
            for within in (None, x.rows + y.rows):
                a = [rng.randint(-3, 3) for _ in range(2 * n)]
                cand = [rng.randint(-3, 3) for _ in range(2 * n)]
                t = _partner_plane(n, a, cand, within=within)
                if t is not None:
                    assert t.is_isotropic()
                    assert rank([*t.gens, a]) == 2  # a lies in t
    # a pairs to zero with all of ``within`` while the candidate does not
    e = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    assert _partner_plane(2, e[0], e[3], within=[e[1]]) is None
    assert _partner_plane(2, e[0], e[0]) is None  # b parallel to a
    assert _partner_plane(2, e[0], e[1]) == coordinate_plane(2, 1, 2)
    # e_1 pairs with e_4 only: the adjustment removes the e_4 component
    assert _partner_plane(2, e[0], [0, 1, 0, 1]) == coordinate_plane(2, 1, 2)


@settings(max_examples=300, derandomize=True)
@given(st.data())
def test_partner_plane_is_isotropic_by_construction(data):
    # a plane _partner_plane returns is isotropic and contains a, whatever
    # the candidate and ``within``; the construction needs no isotropy test
    from qkig.oracle import _partner_plane
    n = data.draw(st.integers(2, 5))
    vec = st.lists(_ENTRIES, min_size=2 * n, max_size=2 * n)
    a = data.draw(vec.filter(any))
    kind = data.draw(st.sampled_from(["random", "zero", "multiple"]))
    if kind == "random":
        cand = data.draw(vec)
    elif kind == "zero":
        cand = [0] * (2 * n)
    else:
        cand = [data.draw(st.integers(-3, 3)) * x for x in a]
    within = data.draw(st.sampled_from(["none", "units", "span"]))
    if within == "none":
        within = None
    elif within == "units":
        idxs = data.draw(st.lists(st.integers(0, 2 * n - 1), unique=True))
        within = [[int(j == i) for j in range(2 * n)] for i in idxs]
    else:
        within = data.draw(st.lists(vec, min_size=1, max_size=4))
    t = _partner_plane(n, a, cand, within=within)
    assert t is None or (t.is_isotropic() and rank([*t.gens, a]) == 2)


def test_partner_plane_tests_no_isotropy(monkeypatch):
    # only the suite's own checks test isotropy, not the plane constructions
    calls = []
    is_isotropic = Plane2.is_isotropic

    def counting(plane):
        calls.append(plane)
        return is_isotropic(plane)

    monkeypatch.setattr(Plane2, "is_isotropic", counting)
    reports = [membership_suite(n, 10, 3) for n in (2, 3, 4)]
    assert all(not r["failures"] for r in reports)
    assert len(calls) == 280  # 520, before


def test_gram_rank():
    x = coordinate_plane(3, 1, 2)
    y = coordinate_plane(3, 5, 6)
    assert gram_rank(3, x, y) == 4
    assert gram_rank(3, x, x) == 0  # isotropic plane
    assert gram_rank(3, x, coordinate_plane(3, 3, 4)) == 2
    # two planes of another n
    with pytest.raises(GeometryError, match=r"planes lie in IG\(2, 2n\) "
                       r"for n = 4, not n = 3"):
        gram_rank(3, coordinate_plane(4, 1, 2), coordinate_plane(4, 7, 8))


def test_seeded_membership_reports_are_pinned():
    # the whole seeded report: checks, outcome counts and failure lists
    import json
    reports = [membership_suite(n, 5, seed)
               for n in (2, 3, 4) for seed in (0, 1, 2)]
    canon = json.dumps(reports, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(canon.encode()).hexdigest() == (
        "a49825aa20435ead1d76cd03edbd9c463816a668589198ef3559d793f500eb27")


def test_membership_suite_reduces_only_canonical_forms(monkeypatch):
    # planes are put in canonical form only where the basis matters: the
    # trial span, the chain's first row, the degree-3 orthogonal slice
    import qkig.oracle as oracle
    calls = []

    def counting_rref(rows):
        calls.append(len(rows))
        return rref(rows)

    monkeypatch.setattr(oracle, "rref", counting_rref)
    reports = [membership_suite(n, 10, 3) for n in (2, 3, 4)]
    assert all(not r["failures"] for r in reports)
    assert len(calls) <= 150  # one per plane built, 410, before


def test_membership_suite_intersects_no_row_spaces(monkeypatch):
    # the degree-3 meet is read off z's residues, with no elimination
    import qkig.linalg
    import qkig.oracle
    calls = []

    def counting(a, b):
        calls.append((a, b))
        return intersect_rowspaces(a, b)

    for module in (qkig.linalg, qkig.oracle):
        monkeypatch.setattr(module, "intersect_rowspaces", counting,
                            raising=False)
    reports = [membership_suite(n, 10, 3) for n in (2, 3, 4)]
    assert all(not r["failures"] for r in reports)
    assert calls == []  # 90, before


def test_membership_suite_reduces_each_z_once(monkeypatch):
    # one reduction of z against the span gives its dimension and the meet
    import qkig.oracle as oracle
    calls = []
    residues = oracle._residues

    def counting(span, z):
        calls.append(z)
        return residues(span, z)

    monkeypatch.setattr(oracle, "_residues", counting)
    reports = [membership_suite(n, 10, 3) for n in (2, 3, 4)]
    assert all(not r["failures"] for r in reports)
    assert len(calls) == 90  # three z per trial; 180, before


@settings(max_examples=300, derandomize=True)
@given(st.data())
def test_rank2_matches_rank(data):
    from qkig.oracle import _rank2
    width = data.draw(st.integers(1, 8))
    row = st.lists(st.integers(-5, 5), min_size=width, max_size=width)
    u = data.draw(st.one_of(row, st.just([0] * width)))
    kind = data.draw(st.sampled_from(["free", "zero", "parallel"]))
    if kind == "free":
        v = data.draw(row)
    elif kind == "zero":
        v = [0] * width
    else:
        v = [data.draw(st.integers(-3, 3)) * x for x in u]
    if data.draw(st.booleans()):
        u, v = v, u
    assert _rank2(u, v) == rank([u, v])


def test_span_dim_from_residues_matches_dim_sum():
    from qkig.oracle import _rank2, _residues, _sample_z
    seen = set()
    for n in (2, 3, 4):
        for seed in range(31):
            rng = random.Random(seed)
            x, y = general_position_pair(n, rng=rng)
            span = row_basis(stack(x.rows, y.rows))
            zs = [_sample_z(n, span, mode, rng)
                  for mode in ("inside", "touch", "generic")]
            a, b = ([rng.randint(-3, 3) for _ in range(2 * n)] for _ in "ab")
            a[0], b[0], b[-1] = 1, 0, 1  # independent by these entries
            zs += [x, y, random_isotropic_plane(n, rng=rng),
                   Plane2(n, [a, b]), Plane2(n, [x.gens[0], b]),
                   coordinate_plane(n, 1, 2 * n)]
            for z in zs:
                ds = dim_sum(x, y, z)
                (ru, _), (rw, _) = _residues(span, z)
                assert len(span) + _rank2(ru, rw) == ds
                seen.add(ds)
    assert seen == {4, 5, 6}


@settings(max_examples=200, derandomize=True)
@given(st.data())
def test_gram_rank_of_two_planes_matches_full_gram(data):
    # four rows of every kind that two planes can be built from, against
    # the Fraction rank of the whole 4 x 4 Gram matrix
    n = data.draw(st.integers(2, 5))
    vec = st.lists(st.integers(-6, 6), min_size=2 * n, max_size=2 * n)
    rows = data.draw(st.lists(vec, min_size=4, max_size=4))
    kind = data.draw(st.sampled_from(
        ["random", "isotropic", "coordinate", "dependent"]))
    if kind == "isotropic":
        seeds = st.integers(0, 10**6)
        x = random_isotropic_plane(n, seed=data.draw(seeds))
        y = data.draw(st.sampled_from(
            [x, random_isotropic_plane(n, seed=data.draw(seeds))]))
        rows = [list(r) for r in x.rows + y.rows]
    elif kind == "coordinate":
        pairs = st.sampled_from(basis_list(n))
        rows = [list(r) for p in (data.draw(pairs), data.draw(pairs))
                for r in coordinate_plane(n, *p).rows]
    elif kind == "dependent":
        k = data.draw(st.integers(0, 3))
        others = rows[:k] + rows[k + 1:]
        coeffs = data.draw(st.lists(st.integers(-3, 3), min_size=3,
                                    max_size=3))
        rows[k] = [sum(c * r[i] for c, r in zip(coeffs, others))
                   for i in range(2 * n)]
    gram = [[omega(n, u, v) for v in rows] for u in rows]
    expected = len(_reference_rref(gram))
    if _fraction_rank(rows[:2]) == _fraction_rank(rows[2:]) == 2:
        x, y = Plane2(n, rows[:2]), Plane2(n, rows[2:])
        assert gram_rank(n, x, y) == gram_rank(n, y, x) == expected


@settings(max_examples=100, derandomize=True)
@given(st.data())
def test_omega_matches_index_formula(data):
    n = data.draw(st.integers(2, 8))
    vec = st.lists(st.integers(-9, 9), min_size=2 * n, max_size=2 * n)
    u, v = data.draw(vec), data.draw(vec)
    expected = sum(u[i] * v[2 * n - 1 - i] - u[2 * n - 1 - i] * v[i]
                   for i in range(n))
    assert omega(n, u, v) == omega(n, tuple(u), tuple(v)) == expected


@pytest.mark.parametrize("bad", [Fraction(1, 2), 0.5])
def test_linalg_rejects_non_integer_entries(bad):
    # rows of unequal length are refused as well, not truncated
    ragged = [[1, 0, 0], [0, 1]]
    for routine in (rank, rref, row_basis, nullspace):
        with pytest.raises(ValueError):
            routine(ragged)
    for a, b in ((ragged, [[1, 1, 1]]), ([[1, 0, 0]], [[0, 1]])):
        with pytest.raises(ValueError):
            intersect_rowspaces(a, b)
    m = [[1, bad], [0, 1]]
    for routine in (rank, rref, row_basis, nullspace):
        with pytest.raises(TypeError):
            routine(m)
    with pytest.raises(TypeError):
        intersect_rowspaces(m, [[1, 1]])
    with pytest.raises(TypeError):
        intersect_rowspaces([[1, 1]], m)
    with pytest.raises(TypeError):
        primitive_int_row([1, bad])


@settings(max_examples=100, derandomize=True)
@given(st.data())
def test_linalg_does_not_mutate_input(data):
    import copy
    from qkig.chi import invert_lower_unitriangular
    ncols = data.draw(st.integers(1, 5))
    matrices = st.lists(st.lists(_ENTRIES, min_size=ncols, max_size=ncols),
                        min_size=1, max_size=4)
    m, other = data.draw(matrices), data.draw(matrices)
    size = data.draw(st.integers(1, 4))
    tri = [[int(i == j) if j >= i else data.draw(st.integers(-4, 4))
            for j in range(size)] for i in range(size)]
    calls = [(primitive_int_row, m[0]), (rank, m), (row_basis, m), (rref, m),
             (nullspace, m), (stack, m, other), (intersect_rowspaces, m, other),
             (invert_lower_unitriangular, tri)]
    for routine, *args in calls:
        before = copy.deepcopy(args)
        routine(*args)
        assert repr(args) == repr(before), routine.__name__
