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
    gamma_broken,
    gamma_pair,
    gamma_point_pair,
    lower_flag,
    meets_subspace,
    q_support_product,
    seidel_neighborhood,
    upper_flag,
)
from qkig.pairs import (
    InvalidPairError,
    basis_list,
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
    from qkig.oracle import coordinate_plane
    x = coordinate_plane(3, 1, 2)
    y = coordinate_plane(3, 5, 6)
    assert gamma_point_pair(3, 2)(x, y, x)
    assert gamma_point_pair(3, 4)(x, y, coordinate_plane(3, 3, 6))
    # a plane meeting the span in one direction: degree 3 yes, degree 2 no
    z = coordinate_plane(3, 1, 3)
    assert gamma_point_pair(3, 3)(x, y, z)
    assert not gamma_point_pair(3, 2)(x, y, z)
    with pytest.raises(ValueError):
        gamma_point_pair(3, 1)
