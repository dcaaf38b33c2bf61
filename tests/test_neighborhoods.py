import itertools

import pytest

from qkig.neighborhoods import (
    Descriptor,
    classify,
    condition_C1,
    condition_C2,
    condition_L1,
    deg2_birational_case,
    dim_moduli,
    dim_only,
    empty_locus,
    gamma_broken,
    gamma_pair,
    gamma_point_pair,
    lower_flag,
    meets_subspace,
    q_support_product,
    seidel_neighborhood,
    upper_flag,
    whole_space,
)
from qkig.pairs import (
    InvalidPairError,
    basis_list,
    dim_schubert,
    dim_space,
    divisor_pair,
    richardson_dim,
    richardson_nonempty,
    seidel_pair,
)
from qkig.ring import (
    RingElement,
    product_C1,
    product_C2,
    quantum_chevalley,
    seidel,
)


def test_flag_index_sets():
    assert lower_flag(3, 2) == frozenset({1, 2})
    assert upper_flag(3, 2) == frozenset({5, 6})
    assert upper_flag(3, 0) == frozenset()
    for flag in (lower_flag, upper_flag):
        assert flag(3, 6) == frozenset(range(1, 7))
        for p in (-1, 7):
            with pytest.raises(ValueError, match=f"out of range: {p}"):
                flag(3, p)


def test_meets_subspace_normalization():
    assert meets_subspace(3, ()).kind == "empty"
    assert meets_subspace(3, range(1, 6)).kind == "whole"  # |S| = 2n - 1
    d = meets_subspace(3, {3, 4, 5, 6})
    assert d == Descriptor("meets", (3, 4, 5, 6), 6)
    assert d.to_dict() == {"kind": "meets", "indices": [3, 4, 5, 6], "dim": 6}


def test_conditions():
    assert condition_C1(3, (2, 6), (4, 6))
    assert not condition_C1(3, (2, 6), (3, 6))
    assert condition_C2(3, (1, 3), (3, 5))
    assert not condition_C2(3, (2, 4), (2, 4))  # max(delta) = 0
    assert condition_L1(3, (4, 6), (1, 4))
    assert not condition_L1(3, (4, 6), (2, 6))
    assert deg2_birational_case(3, (1, 2), (1, 2)) == 1
    assert deg2_birational_case(3, (1, 3), (3, 5)) is None


def test_gamma_pair_examples():
    assert gamma_pair(3, (1, 3), (3, 5), 2).kind == "whole"
    assert gamma_pair(3, (2, 6), (4, 6), 1).kind == "whole"
    assert gamma_broken(3, (2, 6), (4, 6), 1).kind == "whole"
    assert gamma_broken(3, (1, 2), (1, 2), 2).kind == "empty"
    for d in (4, 5, 9):
        assert gamma_pair(3, (1, 2), (1, 2), d).kind == "whole"
        assert gamma_broken(3, (1, 2), (1, 2), d).kind == "whole"
    with pytest.raises(ValueError):
        gamma_pair(3, (1, 2), (1, 2), 0)
    with pytest.raises(InvalidPairError):
        gamma_pair(3, (1, 6), (1, 2), 2)


def test_gamma_pair_degree3_set():
    # E_3 + E^3 fills the space at n = 3 but not at n = 4
    assert gamma_pair(3, (1, 3), (1, 3), 3).kind == "whole"
    d = gamma_pair(4, (1, 3), (1, 3), 3)
    assert d.kind == "meets" and set(d.indices) == {1, 2, 3, 6, 7, 8}
    assert d.dim == 10


def test_gamma_degree1_l1_branches():
    # birational with nonempty neighborhood: dimension record only
    d = gamma_pair(3, (4, 6), (1, 4), 1)
    assert d.kind == "dim_only" and d.dim == dim_moduli(3, (4, 6), (1, 4), 1) == 6
    b = gamma_broken(3, (4, 6), (1, 4), 1)
    assert b.kind == "dim_only" and b.dim == 5
    # L1 with too-small indices: no line meets both
    assert gamma_pair(3, (1, 3), (1, 3), 1).kind == "empty"
    assert gamma_broken(3, (2, 6), (1, 3), 1).kind == "empty"  # empty Richardson
    assert gamma_pair(3, (2, 6), (1, 3), 1).kind == "dim_only"


def test_classify_examples():
    c = classify(3, (4, 6), (1, 4), 1)
    assert c.l1 and c.ev_birational and not c.ev_broken_two_to_one
    c = classify(3, (1, 3), (3, 5), 2)
    assert c.c2 and not c.ev_birational and c.ev_broken_two_to_one
    assert c.gamma_equal
    c = classify(3, (1, 3), (3, 5), 3)
    assert not c.ev_birational and c.gamma_equal
    d = c.to_dict()
    assert d["C2"] and d["degree"] == 3


@pytest.mark.parametrize("n", [2, 3, 4])
def test_classify_symmetric_under_swap(n):
    for u, v in itertools.product(basis_list(n), repeat=2):
        for d in (1, 2, 3):
            a = classify(n, u, v, d)
            b = classify(n, v, u, d)
            assert (a.c1, a.c2, a.l1, a.ev_birational,
                    a.ev_broken_two_to_one) == \
                   (b.c1, b.c2, b.l1, b.ev_birational, b.ev_broken_two_to_one)


def test_q_support_product_examples():
    assert q_support_product(3, (2, 6), (4, 6)) == {0, 1}
    assert q_support_product(3, (1, 3), (3, 5)) == {1, 2}
    assert q_support_product(2, (1, 2), (1, 2)) == {2}


@pytest.mark.parametrize("n", range(2, 7))
def test_q_support_product_interval_and_symmetric(n):
    for u, v in itertools.product(basis_list(n), repeat=2):
        sup = q_support_product(n, u, v)
        assert sup and sup <= {0, 1, 2}
        assert max(sup) - min(sup) + 1 == len(sup)
        assert sup == q_support_product(n, v, u)


def test_q_support_asserts_on_a_gapped_support(monkeypatch):
    import qkig.neighborhoods as nb
    # no pair of n <= 8 has the support {0, 1, 2}, so the gap is planted in
    # the kernel's lookup: the {1, 2} entry (mask 6) reads {0, 2}
    n, u, v = 3, (1, 3), (3, 5)
    assert nb._q_support(n, u, v) == {1, 2}
    supports = list(nb._SUPPORTS)
    supports[6] = frozenset({0, 2})
    monkeypatch.setattr(nb, "_SUPPORTS", tuple(supports))
    assert nb._q_support(n, (2, 6), (4, 6)) == {0, 1}
    with pytest.raises(AssertionError):
        nb._q_support(n, u, v)
    with pytest.raises(AssertionError):
        q_support_product(n, list(u), list(v))


@pytest.mark.parametrize("n", range(2, 11))
def test_q_support_kernel_matches_the_predicates(n):
    # the one-pass kernel against the rule as its docstring states it
    import qkig.neighborhoods as nb
    from qkig.pairs import _c1, _c2, _richardson_nonempty
    for u, v in itertools.product(basis_list(n), repeat=2):
        bits = (_richardson_nonempty(n, u, v),
                _c1(n, u, v) or nb._l1(n, u, v) and u[1] + v[1] >= 2 * n + 1,
                _c2(n, u, v) or nb._deg2_case(n, u, v) is not None)
        expected = {d for d, bit in enumerate(bits) if bit}
        assert nb._q_support(n, u, v) == expected, (u, v)
        public = q_support_product(n, u, v)
        assert type(public) is set and public == expected
        public.add(7)  # a caller's set, not the kernel's shared frozenset
        assert nb._q_support(n, u, v) == expected


@pytest.mark.parametrize("n", range(2, 7))
def test_q_support_matches_closed_forms(n):
    dv, sd = divisor_pair(n), seidel_pair(n)
    for v in basis_list(n):
        e = RingElement.basis(n, v)
        assert q_support_product(n, dv, v) == quantum_chevalley(n, e).q_support()
        assert q_support_product(n, sd, v) == seidel(n, e).q_support()
    for u, v in itertools.product(basis_list(n), repeat=2):
        if condition_C1(n, u, v):
            assert q_support_product(n, u, v) == product_C1(n, u, v).q_support()
        if condition_C2(n, u, v):
            assert q_support_product(n, u, v) == product_C2(n, u, v).q_support()


def test_seidel_neighborhood_cases():
    assert seidel_neighborhood(3, (1, 3)) == (2, (4, 6))
    assert seidel_neighborhood(3, (2, 4)) == (1, (1, 5))
    assert seidel_neighborhood(3, (4, 6)) == (0, (1, 3))
    with pytest.raises(InvalidPairError):
        seidel_neighborhood(3, (2, 5))


@pytest.mark.parametrize("n", range(2, 7))
def test_seidel_neighborhood_matches_ring_operator(n):
    regimes = set()
    for u in basis_list(n):
        d_min, image = seidel_neighborhood(n, u)
        regimes.add(d_min)
        assert seidel(n, RingElement.basis(n, u)) == \
            RingElement.basis(n, image, d=d_min)
    assert regimes == {0, 1, 2}


def test_dim_moduli():
    assert dim_moduli(3, (4, 6), (1, 4), 1) == 6
    # degree 0 count agrees with the Richardson dimension when nonempty
    for n in (2, 3, 4):
        for u, v in itertools.product(basis_list(n), repeat=2):
            if richardson_nonempty(n, u, v):
                assert dim_moduli(n, u, v, 0) == richardson_dim(n, u, v)
    # past degree 2 only the general count applies: d(2n - 1) - (4n - 5)
    # plus both dimensions
    for n in range(2, 6):
        for u, v in itertools.product(basis_list(n), repeat=2):
            for d in (3, 4):
                assert dim_moduli(n, u, v, d) == d * (2 * n - 1) - \
                    (4 * n - 5) + dim_schubert(n, *u) + dim_schubert(n, *v)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_descriptor_dimension_consistency(n):
    for u, v in itertools.product(basis_list(n), repeat=2):
        d3 = gamma_pair(n, u, v, 3)
        d4 = gamma_pair(n, u, v, 4)
        assert d4.kind == "whole"
        assert d3.dim is not None and d3.dim <= d4.dim
        assert d3 == gamma_broken(n, u, v, 3)
        # broken degree-2 emptiness criterion
        assert (gamma_broken(n, u, v, 2).kind == "empty") == \
            (u[1] + v[1] <= 2 * n)
        for deg in (1, 2, 3):
            c = classify(n, u, v, deg)
            pure = gamma_pair(n, u, v, deg)
            broken = gamma_broken(n, u, v, deg)
            if not c.ev_birational:
                assert pure == broken  # the two neighborhoods coincide
            if c.ev_birational and deg in (1, 2) and pure.kind != "empty":
                assert pure.dim == dim_moduli(n, u, v, deg)
            if pure.kind == "meets":
                assert pure.dim <= dim_space(n)
                assert 0 < len(pure.indices) < 2 * n - 1


def test_gamma_point_pair():
    # the criteria are predicates on ds = dim(V_x + V_y + V_z)
    from qkig.oracle import coordinate_plane, dim_sum
    x = coordinate_plane(3, 1, 2)
    y = coordinate_plane(3, 5, 6)
    assert gamma_point_pair(3, 2)(dim_sum(x, y, x))
    assert gamma_point_pair(3, 4)(dim_sum(x, y, coordinate_plane(3, 3, 6)))
    # a plane meeting the span in one direction: degree 3 yes, degree 2 no
    ds = dim_sum(x, y, coordinate_plane(3, 1, 3))
    assert ds == 5
    assert gamma_point_pair(3, 3)(ds)
    assert not gamma_point_pair(3, 2)(ds)
    assert [gamma_point_pair(3, d)(6) for d in (2, 3, 4)] == \
        [False, False, True]
    for bad in (1, 0, 2.0, True):
        with pytest.raises(ValueError, match="degree"):
            gamma_point_pair(3, bad)


@pytest.mark.parametrize("call", [
    lambda d: gamma_pair(3, (1, 3), (3, 5), d),
    lambda d: gamma_broken(3, (1, 3), (3, 5), d),
    lambda d: classify(3, (1, 3), (3, 5), d),
    lambda d: dim_moduli(3, (1, 3), (3, 5), d),
])
@pytest.mark.parametrize("d", [2.5, 1.5, True, False, "2", None])
def test_non_integer_degree_is_rejected(call, d):
    with pytest.raises(ValueError, match=f"degree must be an integer, got {d!r}"):
        call(d)


def test_degree_lower_bounds():
    u, v = (1, 3), (3, 5)
    for fn in (gamma_pair, gamma_broken, classify):
        with pytest.raises(ValueError, match="degree 0 is below 1"):
            fn(3, u, v, 0)
        assert fn(3, u, v, 1) is not None
    with pytest.raises(ValueError, match="degree -1 is below 0"):
        dim_moduli(3, u, v, -1)
    assert dim_moduli(3, u, v, 0) == 7 - 6 - 3  # dim X - codims
    # an invalid pair is reported before the degree
    with pytest.raises(InvalidPairError):
        classify(3, (1, 6), v, 2.5)


def _counting(monkeypatch, module):
    from qkig.pairs import require_valid
    calls = []

    def counting(n, pair):
        calls.append(pair)
        return require_valid(n, pair)

    monkeypatch.setattr(module, "require_valid", counting)
    return calls


def test_sweeps_do_not_revalidate(monkeypatch):
    import qkig.neighborhoods
    from qkig import verify
    calls = _counting(monkeypatch, qkig.neighborhoods)
    for report in (verify.run_suite(s, 6)[0] for s in ("interval", "signs")):
        assert report["checks"] > 0 and report["failures"] == []
    assert calls == []


def test_reconstruction_validates_once(monkeypatch):
    import qkig.chi
    from qkig import verify
    calls = _counting(monkeypatch, qkig.chi)
    reconstructions = []
    for name in ("reconstruct_xuv", "reconstruct_classical_chevalley"):
        original = getattr(qkig.chi, name)

        def counted(*args, _original=original):
            reconstructions.append(args)
            return _original(*args)

        monkeypatch.setattr(qkig.chi, name, counted)
    report = verify.run_suite("brion", 6)[0]
    assert report["checks"] == len(reconstructions) > 0
    assert report["failures"] == []
    assert len(calls) <= len(reconstructions)


def _neighborhoods_record(n, u, v):
    return [
        condition_C1(n, u, v), condition_C2(n, u, v), condition_L1(n, u, v),
        deg2_birational_case(n, u, v), sorted(q_support_product(n, u, v)),
        [classify(n, u, v, d).to_dict() for d in (1, 2, 3)],
        [gamma_pair(n, u, v, d).to_dict() for d in (1, 2, 3, 4)],
        [gamma_broken(n, u, v, d).to_dict() for d in (1, 2, 3, 4)],
    ]


def _reference_gamma_broken(n, u, v, d):
    """``gamma_broken`` with each of its rules written out in full."""
    (p1, p2), (q1, q2) = u, v
    if d >= 4:
        return whole_space(n)
    if d == 3:
        return meets_subspace(n, lower_flag(n, p2) | upper_flag(n, q2))
    if d == 2:
        if p2 + q2 > 2 * n:
            return meets_subspace(n, lower_flag(n, p1)
                                  | (lower_flag(n, p2) & upper_flag(n, q2))
                                  | upper_flag(n, q1))
        return empty_locus()
    if condition_C1(n, u, v):
        return whole_space(n)
    if condition_L1(n, u, v):
        if richardson_nonempty(n, u, v):
            return dim_only(dim_moduli(n, u, v, 1) - 1,
                            note="divisor inside the degree-1 neighborhood")
        return empty_locus()
    return meets_subspace(n, lower_flag(n, p2) & upper_flag(n, q2))


def test_gamma_broken_matches_reference():
    # whole Descriptors, note included: the pinned digest below hashes
    # to_dict(), which drops the note
    for n in range(2, 9):
        for u, v in itertools.product(basis_list(n), repeat=2):
            for d in range(1, 6):
                assert gamma_broken(n, u, v, d) == \
                    _reference_gamma_broken(n, u, v, d), (n, u, v, d)


def test_neighborhoods_outputs_are_pinned():
    # every predicate, support, classification and descriptor over all
    # ordered pairs at n = 2..8; a change of any output changes the digest
    import hashlib
    import json
    records = [[n, u, v, _neighborhoods_record(n, u, v)]
               for n in range(2, 9)
               for u, v in itertools.product(basis_list(n), repeat=2)]
    canon = json.dumps(records, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(canon.encode()).hexdigest() == (
        "71d7d6c50bac34f18a0477701a3beeef4e0992555377571872ce32265d3d4d2d")


def test_record_types_repr_equality_hash_and_immutability():
    meets = meets_subspace(3, [2, 1])
    assert repr(meets) == \
        "Descriptor(kind='meets', indices=(1, 2), dim=4, note='')"
    assert repr(Descriptor("empty")) == \
        "Descriptor(kind='empty', indices=(), dim=None, note='')"
    assert repr(Descriptor("dim_only", dim=5, note="x")) == \
        "Descriptor(kind='dim_only', indices=(), dim=5, note='x')"
    c = classify(3, (1, 3), (3, 5), 1)
    assert repr(c) == (
        "Classification(n=3, u=(1, 3), v=(3, 5), degree=1, c1=False, "
        "c2=True, l1=True, deg2_case=None, ev_birational=True, "
        "ev_broken_two_to_one=False, gamma_equal=False)")
    # value equality and value hashing, so records work as set/dict keys
    again = Descriptor("meets", (1, 2), 4)
    assert meets == again and hash(meets) == hash(again)
    assert meets != Descriptor("meets", (1, 2), 4, note="x")
    assert meets != Descriptor("meets", (1, 3), 4)
    assert len({meets, again, Descriptor("empty")}) == 2
    assert c == classify(3, (1, 3), (3, 5), 1)
    assert hash(c) == hash(classify(3, (1, 3), (3, 5), 1))
    assert c != classify(3, (1, 3), (3, 5), 2)
    assert len({c, classify(3, (1, 3), (3, 5), 1)}) == 1
    # immutable: neither a field nor a new attribute can be set
    for record, name in ((meets, "kind"), (meets, "extra"),
                         (c, "degree"), (c, "extra")):
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
    assert meets.kind == "meets" and c.degree == 1
