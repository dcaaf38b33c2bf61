import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from qkig.pairs import (
    InvalidPairError,
    basis_list,
    dim_schubert,
    dim_space,
    divisor_pair,
    fano_index,
    is_valid_pair,
    unit_pair,
)
from qkig.ring import (
    NormalizedTerm,
    RingElement,
    UnsupportedFamilyError,
    apply_word,
    chevalley_q_part_geometric,
    classical_chevalley,
    normalize_extended,
    product_C1,
    product_C2,
    quantum_chevalley,
    richardson_special_expand,
    seidel,
    sign_check,
    special_product,
)

E = RingElement


def O(n, pair, d=0, coeff=1):
    return E.basis(n, pair, d=d, coeff=coeff)


def codim(n, pair):
    return dim_space(n) - dim_schubert(n, *pair)


def test_normalize_examples():
    assert normalize_extended(3, 0, 4) == NormalizedTerm(1, (4, 6))
    # the public form keeps its named fields over the kernel's plain tuple
    assert type(normalize_extended(3, 0, 4)) is NormalizedTerm
    assert normalize_extended(3, -2, 0) == NormalizedTerm(2, (4, 6))
    out = normalize_extended(3, 1, 6)
    assert out.pair is None and out.antidiagonal
    assert normalize_extended(3, 2, 4) == NormalizedTerm(0, (2, 4))
    # a = 0, b = 2n collapses to a degenerate equal-index pair
    out = normalize_extended(3, 0, 6)
    assert out.pair is None and not out.antidiagonal
    # b beyond the quasi-periodic range with a positive
    out = normalize_extended(3, 2, 7)
    assert out.pair is None and not out.antidiagonal
    with pytest.raises(InvalidPairError):
        normalize_extended(3, 4, 4)
    for a, b in ((1.0, 2.0), (True, 2)):
        with pytest.raises(InvalidPairError, match="indices must be integers"):
            normalize_extended(3, a, b)


def test_normalize_extended_is_pinned():
    # every a < b in [-3n, 4n] at n = 2..6, with the shift of each zero term,
    # which no kernel reads
    out = [normalize_extended(n, a, b) for n in range(2, 7)
           for a in range(-3 * n, 4 * n + 1) for b in range(a + 1, 4 * n + 1)]
    assert len(out) == 2275
    assert hashlib.sha256(repr(out).encode()).hexdigest() == (
        "e8d9d8b37bb92d244b462de5d799652bffe48041fd7cc523c6f59b6ccc1020df")
    assert normalize_extended(2, 1, 5) == NormalizedTerm(0, None, False)


@settings(max_examples=300, derandomize=True)
@given(st.integers(2, 8), st.data())
def test_normalize_shift_bound(n, data):
    a = data.draw(st.integers(-2 * n + 1, 2 * n - 1))
    b = data.draw(st.integers(a + 1, 2 * n))
    out = normalize_extended(n, a, b)
    assert 0 <= out.shift <= 2
    if out.pair is not None:
        x, y = out.pair
        assert 1 <= x < y <= 2 * n and x + y != 2 * n + 1
        # shift trades 2n per step on the first index
        assert (x + y) % (2 * n) == (a + b) % (2 * n)


def test_classical_chevalley_examples():
    assert classical_chevalley(3, O(3, (2, 3))) == O(3, (1, 3))
    assert classical_chevalley(3, O(3, (1, 4))) == O(3, (1, 3))
    got = classical_chevalley(3, O(3, (3, 6)))
    assert got == E(3, {(0, (2, 6)): 1, (0, (3, 5)): 1, (0, (2, 4)): -1,
                        (0, (1, 5)): -1, (0, (1, 4)): 1})


def test_quantum_chevalley_examples():
    got = quantum_chevalley(3, O(3, (1, 4)))
    assert got == E(3, {(0, (1, 3)): 1, (1, (4, 6)): 1, (1, (3, 6)): -1})
    got = quantum_chevalley(3, O(3, (2, 6)))
    assert got == E(3, {(0, (1, 5)): 2, (0, (2, 4)): 1, (0, (1, 4)): -2,
                        (1, (5, 6)): -1, (1, (4, 6)): 1})
    assert quantum_chevalley(3, O(3, (5, 6))) == O(3, (4, 6))
    # the point class picks up a pure q term
    assert quantum_chevalley(3, O(3, (1, 2))) == O(3, (2, 6), d=1)


def test_quantum_chevalley_six_term_case():
    # the generic six-term branch first occurs at n = 4, on (3, 7)
    got = quantum_chevalley(4, O(4, (3, 7)))
    assert got == E(4, {(0, (2, 6)): 2, (0, (1, 7)): 1, (0, (3, 5)): 1,
                        (0, (1, 6)): -2, (0, (2, 5)): -2, (0, (1, 5)): 1})


def test_quantum_chevalley_n2_collision():
    # (2, 4) is both "q1 = 2, q2 = 2n" and "q1 = n" at n = 2
    got = quantum_chevalley(2, O(2, (2, 4)))
    assert got == E(2, {(0, (1, 3)): 2, (0, (1, 2)): -1,
                        (1, (3, 4)): -1, (1, (2, 4)): 1})
    assert got == product_C1(2, (2, 4), (2, 4))


def test_seidel_examples():
    assert seidel(3, O(3, (4, 6))) == O(3, (1, 3))
    assert seidel(3, O(3, (1, 3))) == O(3, (4, 6), d=2)
    assert seidel(3, O(3, (2, 3))) == O(3, (5, 6), d=2)
    assert seidel(3, E.unit(3)) == O(3, (2, 3))


@pytest.mark.parametrize("n", range(2, 7))
def test_seidel_algebra_small(n):
    for v in basis_list(n):
        e = O(n, v)
        assert seidel(n, seidel(n, e)) == e.times_q(2)
        assert seidel(n, quantum_chevalley(n, e)) == \
            quantum_chevalley(n, seidel(n, e))


def test_richardson_special_expand():
    assert richardson_special_expand(3, 2) == \
        E(3, {(0, (2, 4)): 1, (0, (1, 5)): 2, (0, (1, 4)): -2})
    assert richardson_special_expand(3, 3) == \
        E(3, {(0, (1, 5)): 2, (0, (2, 4)): 2, (0, (2, 3)): -1,
              (0, (1, 4)): -3, (0, (1, 3)): 1})
    assert richardson_special_expand(3, 4) == richardson_special_expand(3, 2)
    assert richardson_special_expand(3, 1) == O(3, (1, 5))
    for bad in (0, 6, -1, 1.5, True):
        with pytest.raises(ValueError, match=f"got {bad!r}"):
            richardson_special_expand(3, bad)


def _richardson_reference(n, p):
    # the list-and-filter construction: sum the terms on basis pairs
    if p > n:
        p = 2 * n - p
    terms = [(1, (p, 2 * n - p)), (-1 if p == n else -2, (p - 1, 2 * n - p))]
    terms += [(2, (k, 2 * n - k)) for k in range(1, p)]
    for k in range(1, p - 1):
        terms += [(-3, (k, 2 * n - 1 - k)), (1, (k, 2 * n - 2 - k))]
    out = {}
    for coeff, (a, b) in terms:
        if is_valid_pair(n, a, b):
            key = (0, (a, b))
            out[key] = out.get(key, 0) + coeff
    return out


def test_richardson_special_expand_matches_the_filtered_list():
    for n in range(2, 17):
        for p in range(1, 2 * n):
            assert richardson_special_expand(n, p) == \
                E(n, _richardson_reference(n, p)), (n, p)


def test_product_c1():
    got = product_C1(3, (2, 6), (4, 6))
    assert got == E(3, {(0, (2, 4)): 1, (0, (1, 5)): 2, (0, (1, 4)): -2,
                        (1, (5, 6)): -1, (1, (4, 6)): 1})
    assert got.q_support() == {0, 1}
    with pytest.raises(UnsupportedFamilyError):
        product_C1(3, (2, 6), (3, 6))


def test_product_c2():
    got = product_C2(3, (1, 3), (3, 5))
    assert got == E(3, {(1, (2, 4)): 1, (1, (1, 5)): 2, (1, (1, 4)): -2,
                        (2, (5, 6)): -1, (2, (4, 6)): 1})
    assert got.q_support() == {1, 2}
    assert got.at_q0() == E.zero(3)  # matches the empty Richardson
    with pytest.raises(UnsupportedFamilyError):
        product_C2(3, (1, 3), (3, 6))


def test_special_product_dispatch():
    assert special_product(3, (2, 6), (4, 6)) == product_C1(3, (2, 6), (4, 6))
    assert special_product(3, (1, 3), (3, 5)) == product_C2(3, (1, 3), (3, 5))
    with pytest.raises(UnsupportedFamilyError):
        special_product(3, (1, 4), (2, 3))


def test_chevalley_q_part_geometric():
    assert chevalley_q_part_geometric(3, (1, 4)) == \
        E(3, {(1, (4, 6)): 1, (1, (3, 6)): -1})
    assert chevalley_q_part_geometric(3, (2, 6)) == \
        E(3, {(1, (5, 6)): -1, (1, (4, 6)): 1})
    assert chevalley_q_part_geometric(3, (2, 4)) == E.zero(3)
    # for the point class the boundary Richardson is empty: single term
    assert chevalley_q_part_geometric(3, (1, 2)) == O(3, (2, 6), d=1)


@pytest.mark.parametrize("n", range(2, 7))
def test_quantum_reduces_to_classical(n):
    for v in basis_list(n):
        e = O(n, v)
        q = quantum_chevalley(n, e)
        assert q.at_q0() == classical_chevalley(n, e)
        assert q.q_part(1) == chevalley_q_part_geometric(n, v)
        assert q.q_support() <= {0, 1}


def test_sign_check_pass_and_fail():
    prod = product_C1(3, (2, 6), (4, 6))
    cu, cv = codim(3, (2, 6)), codim(3, (4, 6))
    ok, bad = sign_check(prod, cu, cv)
    assert ok and bad == []
    # flip one coefficient: detected with the exact term reported
    flipped = prod + O(3, (1, 4), coeff=4)  # -2 -> +2
    ok, bad = sign_check(flipped, cu, cv)
    assert not ok
    assert bad == [{"q": 0, "pair": (1, 4), "coeff": 2, "parity": 1}]


def _sign_check_reference(element, cu, cv):
    # the sorted loop: every term in (d, a + b, a) order, one record per
    # violation
    n = element.n
    r, top = fano_index(n), dim_space(n)
    violations = []
    for (d, pair), coeff in element.sorted_terms():
        parity = (cu + cv + top - dim_schubert(n, *pair) + d * r) % 2
        if (-1) ** parity * coeff < 0:
            violations.append({"q": d, "pair": pair, "coeff": coeff,
                               "parity": parity})
    return (not violations, violations)


@settings(max_examples=300, derandomize=True)
@given(st.integers(2, 10), st.data())
def test_sign_check_matches_the_sorted_loop(n, data):
    keys = st.tuples(st.integers(0, 3), st.sampled_from(basis_list(n)))
    terms = data.draw(st.dictionaries(
        keys, st.integers(-3, 3).filter(bool), max_size=16))
    cu, cv = data.draw(st.integers(0, 20)), data.draw(st.integers(0, 20))
    element = E(n, terms)
    assert sign_check(element, cu, cv) == \
        _sign_check_reference(element, cu, cv)


def test_q_support_and_zero():
    assert E.zero(3).q_support() == set()
    assert product_C2(3, (1, 3), (3, 5)).q_support() == {1, 2}
    assert quantum_chevalley(3, O(3, (1, 4))).q_support() == {0, 1}


def test_apply_word():
    n = 3
    via_word = apply_word(n, ["seidel", "divisor", ("scalar", 2)])
    direct = quantum_chevalley(n, seidel(n, E.unit(n))).scale(2)
    assert via_word == direct
    assert apply_word(n, ["q", "q"]) == E.unit(n).times_q(2)
    with pytest.raises(ValueError):
        apply_word(n, ["frobenius"])


def test_apply_word_rejects_a_start_of_another_n():
    # checked before the first letter, whatever the word holds
    for word in (["q"], [], ["divisor"], ["seidel"], ["frobenius"]):
        with pytest.raises(ValueError, match="start element has n=4, expected 3"):
            apply_word(3, word, E.unit(4))


_TOKENS = st.one_of(
    st.sampled_from(["divisor", "seidel", "q"]),
    st.tuples(st.just("q"), st.integers(0, 3)),
    st.tuples(st.just("scalar"), st.integers(-3, 3)),
)


@st.composite
def _start_and_word(draw):
    n = draw(st.integers(2, 12))
    keys = st.tuples(st.integers(0, 3), st.sampled_from(basis_list(n)))
    coeffs = st.integers(-5, 5).filter(bool)
    terms = draw(st.dictionaries(keys, coeffs, min_size=1, max_size=8))
    return n, terms, draw(st.lists(_TOKENS, max_size=40))


def _fold(n, word, element):
    """apply_word one letter at a time, through the public operators."""
    for token in word:
        if token == "divisor":
            element = quantum_chevalley(n, element)
        elif token == "seidel":
            element = seidel(n, element)
        elif token == "q":
            element = element.times_q(1)
        elif token[0] == "q":
            element = element.times_q(token[1])
        else:
            element = element.scale(token[1])
    return element


@settings(max_examples=100, derandomize=True, deadline=None)
@given(_start_and_word())
@example((2, {(0, (2, 4)): 1, (1, (1, 3)): -2},  # the n = 2 (2, 4) collision
          ["divisor", "seidel", "divisor", ("scalar", 3), "divisor", "q"]))
def test_apply_word_matches_operator_fold(case):
    n, terms, word = case
    start = E(n, terms)
    assert apply_word(n, word, start) == _fold(n, word, start)


def test_element_lookups_and_mixed_arguments():
    e = O(3, (2, 4)) + O(3, (1, 3), d=1, coeff=-2)
    assert e.coefficient(1, [1, 3]) == -2 and e.coefficient(0, (1, 3)) == 0
    assert hash(e) == hash(O(3, (1, 3), d=1, coeff=-2) + O(3, (2, 4)))
    assert len({e, -(-e), O(3, (2, 4))}) == 2
    other = O(4, (2, 4))
    for mixed in (lambda: e + other, lambda: e - other):
        with pytest.raises(ValueError,
                           match="mixed ambient parameters: 3 vs 4"):
            mixed()
    with pytest.raises(TypeError):
        e * 1.5
    for op in (quantum_chevalley, classical_chevalley, seidel):
        with pytest.raises(ValueError, match="element has n=3, expected 4"):
            op(4, e)


def test_element_validation_and_canonical_form():
    with pytest.raises(InvalidPairError):
        E(3, {(0, (2, 5)): 1})
    with pytest.raises(ValueError):
        E(3, {(-1, (2, 4)): 1})
    with pytest.raises(ValueError):
        E(3, {(True, (2, 4)): 1})  # a bool is not a q-power
    with pytest.raises(ValueError):
        E.basis(3, (2, 4), d=True)
    with pytest.raises(TypeError):
        E(3, {(0, (2, 4)): 1.5})
    for key in ((0, 1, 2), 5):  # not a (q-power, pair) 2-tuple
        with pytest.raises(ValueError, match=re.escape(f"key, got {key!r}")):
            E(3, {key: 1})
    e = E(3, {(1, (4, 6)): 1, (0, (1, 5)): 2, (0, (2, 4)): 1, (0, (1, 4)): -2})
    assert [t for t, _ in e.sorted_terms()] == \
        [(0, (1, 4)), (0, (1, 5)), (0, (2, 4)), (1, (4, 6))]
    assert e.to_dict()["terms"][0] == {"q": 0, "pair": [1, 4], "coeff": -2}
    assert e.to_text() == "-2*O_{1,4} + 2*O_{1,5} + O_{2,4} + q*O_{4,6}"
    assert E(3, {(0, (2, 4)): 0}) == E.zero(3)
    # derived elements skip key validation but not the scalar checks
    with pytest.raises(TypeError):
        e.scale(1.5)
    with pytest.raises(ValueError):
        e.times_q(-1)
    with pytest.raises(ValueError):
        e.times_q(1.5)
    with pytest.raises(ValueError):
        e.times_q(True)  # a bool is not a q-shift
    with pytest.raises(TypeError):
        e.scale(True)
    with pytest.raises(InvalidPairError):
        E.basis(3, (True, 5))
    with pytest.raises(InvalidPairError, match="expected a pair"):
        E(3, {(0, (1, 2, 3)): 1})


def test_to_json_is_the_sorted_dump():
    def dump(e):
        return json.dumps(e.to_dict(), sort_keys=True)

    elements = [E.zero(3), E.unit(3), E.zero(16), E.unit(16)]
    for n in range(2, 9):
        for v in basis_list(n):
            o_v = E.basis(n, v)
            elements += [quantum_chevalley(n, o_v), classical_chevalley(n, o_v),
                         seidel(n, o_v)]
    # multi-digit and negative coefficients, q-powers of 10 and more
    for n in (3, 7, 12):
        elements += [apply_word(n, ["divisor"] * 12),
                     apply_word(n, ["divisor"] * 12 + [("q", 11),
                                                       ("scalar", -13)]),
                     apply_word(n, ["seidel", ("q", 11), "divisor", "divisor",
                                    ("scalar", -13), "divisor"] * 3)]
    assert any(abs(c) >= 10 for e in elements for c in e._terms.values())
    assert any(c <= -10 for e in elements for c in e._terms.values())
    assert any(d >= 10 for e in elements for d, _ in e._terms)
    for e in elements:
        assert e.to_json() == dump(e)
        assert e._terms_json() == json.dumps(e.to_dict()["terms"],
                                             sort_keys=True)


def test_operators_do_not_mutate_inputs():
    e = O(3, (2, 6))
    before = dict(e.sorted_terms())
    quantum_chevalley(3, e)
    seidel(3, e)
    e + e
    3 * e
    assert dict(e.sorted_terms()) == before


def test_unsupported_family_message_names_family():
    with pytest.raises(UnsupportedFamilyError, match="unsupported family"):
        special_product(4, (1, 4), (2, 5))


@settings(max_examples=120, derandomize=True)
@given(st.integers(2, 7), st.data())
def test_sign_parity_matches_length_form(n, data):
    # parity of cu + cv + cw equals the parity of dim u + codim v + dim w
    # because the ambient dimension 4n - 5 is odd
    basis = basis_list(n)
    u = data.draw(st.sampled_from(basis))
    v = data.draw(st.sampled_from(basis))
    w = data.draw(st.sampled_from(basis))
    cu, cv, cw = (codim(n, p) for p in (u, v, w))
    ell_form = dim_schubert(n, *u) + codim(n, v) + dim_schubert(n, *w)
    assert dim_space(n) % 2 == 1
    assert (cu + cv + cw) % 2 == ell_form % 2


def test_unit_and_divisor_roundtrip():
    n = 4
    assert quantum_chevalley(n, E.unit(n)) == O(n, divisor_pair(n))
    assert unit_pair(n) == (7, 8)


@settings(max_examples=150, derandomize=True)
@given(st.integers(2, 7), st.data())
def test_operators_are_termwise_linear(n, data):
    keys = st.tuples(st.integers(0, 3), st.sampled_from(basis_list(n)))
    terms = data.draw(st.dictionaries(keys, st.integers(-5, 5), max_size=12))
    e = E(n, terms)
    for op in (quantum_chevalley, classical_chevalley, seidel):
        expected = E.zero(n)
        for (d, pair), coeff in terms.items():
            expected = expected + op(n, O(n, pair)).times_q(d).scale(coeff)
        assert op(n, e) == expected


def _summed(terms):
    """Kernel terms summed by (shift, pair) key, zero sums dropped."""
    out = {}
    for shift, pair, c in terms:
        key = (shift, pair)
        out[key] = out.get(key, 0) + c
    return {key: c for key, c in out.items() if c}


def _raw_cases(n, pair, quantum):
    """The kernel's raw divisor cases; the quantum rule at (2, 2n) for n >= 3
    is written out here as its own five-term list."""
    from qkig.ring import _chevalley_raw_cases
    top = 2 * n
    if quantum and n >= 3 and pair == (2, top):
        return [(2, (1, top - 1)), (1, (2, top - 2)), (-2, (1, top - 2)),
                (-1, (0, top - 1)), (1, (0, top - 2))]
    return _chevalley_raw_cases(n, *pair)


def _reference_chevalley(n, pair, quantum):
    """The raw divisor cases rewritten by the public normalize_extended;
    the classical rule keeps only the raw indices that are basis pairs."""
    if quantum and n == 2 and pair == (2, 4):
        # both sum-(2n + 2) special cases collide on (2, 4) at n = 2: the
        # classical product plus q(O_{2n-2,2n} - 1)
        return {(0, (1, 3)): 2, (0, (1, 2)): -1, (1, (3, 4)): -1,
                (1, (2, 4)): 1}
    terms = []
    for coeff, (a, b) in _raw_cases(n, pair, quantum):
        nt = normalize_extended(n, a, b)
        assert not nt.antidiagonal, (n, pair, (a, b))
        if nt.pair is not None and (quantum or nt.shift == 0):
            terms.append((nt.shift, nt.pair, coeff))
    return _summed(terms)


def test_kernels_match_normalize_reference():
    from qkig.ring import (
        _classical_chevalley_pair,
        _quantum_chevalley_pair,
        _seidel_pair,
    )
    traded = set()  # n at which a raw first index 0 trades for a power of q
    for n in range(2, 17):
        for pair in basis_list(n):
            a, b = pair
            assert _summed(_quantum_chevalley_pair(n, pair)) == \
                _reference_chevalley(n, pair, quantum=True), (n, pair)
            assert _summed(_classical_chevalley_pair(n, pair)) == \
                _reference_chevalley(n, pair, quantum=False), (n, pair)
            nt = normalize_extended(n, a - n, b - n)
            assert _seidel_pair(n, pair) == [(nt.shift, nt.pair, 1)]
            for _, (x, y) in _raw_cases(n, pair, quantum=True):
                if x == 0 and normalize_extended(n, x, y).pair is not None:
                    traded.add(n)
    # the n = 2 collision at (2, 4) is one of the pairs compared above
    assert traded == set(range(2, 17))


def test_single_operators_are_pinned():
    import random

    # every basis pair at n = 6..16, and seeded elements that hold each of
    # their pairs at q^0, q^1 and q^2
    inputs = [O(n, p) for n in range(6, 17) for p in basis_list(n)]
    rng = random.Random(5)
    for n in range(2, 13):
        for _ in range(4):
            pairs = rng.sample(basis_list(n), 4)
            inputs.append(E(n, {(d, p): rng.choice((-2, -1, 1, 3))
                                for p in pairs for d in range(3)}))
    digest = hashlib.sha256()
    for e in inputs:
        for op in (classical_chevalley, quantum_chevalley, seidel):
            digest.update(repr(op(e.n, e).to_dict()).encode())
    assert len(inputs) == 2640 + 44
    assert digest.hexdigest() == (
        "4df7f5871c2aa0c5221266f6e583e4c585eff77d61ebcfc17af7d5793f1f3c2d")


def test_cancelled_terms_are_dropped():
    e = quantum_chevalley(4, O(4, (3, 7)))
    assert (e - e)._terms == {} and e.scale(0)._terms == {}
    # O_{1,3} cancels between the images of O_{2,3} and O_{1,4}
    x = E(3, {(0, (2, 3)): 1, (0, (1, 4)): -1})
    got = quantum_chevalley(3, x)
    assert 0 not in got._terms.values()
    assert got == E(3, {(1, (4, 6)): -1, (1, (3, 6)): 1})
    total = quantum_chevalley(3, O(3, (2, 3))) - quantum_chevalley(3, O(3, (1, 4)))
    assert 0 not in total._terms.values() and total == got


def test_apply_word_does_not_revalidate(monkeypatch):
    import qkig.ring
    from qkig.pairs import require_valid

    calls = []

    def counting(n, pair):
        calls.append(pair)
        return require_valid(n, pair)

    start = E.unit(6)
    monkeypatch.setattr(qkig.ring, "require_valid", counting)
    word = ["divisor", "seidel", "divisor", ("q", 1)] * 6
    out = apply_word(6, word, start)
    assert len(word) == 24 and len(out.sorted_terms()) > 1
    assert calls == []


def test_apply_word_computes_each_image_once(monkeypatch):
    import qkig.ring

    calls = []

    def counting(kernel):
        def wrapper(n, pair):
            calls.append((kernel.__name__, pair))
            return kernel(n, pair)
        return wrapper

    for name in ("_quantum_chevalley_pair", "_seidel_pair"):
        monkeypatch.setattr(qkig.ring, name, counting(getattr(qkig.ring, name)))
    monkeypatch.setattr(qkig.ring, "_STORES", {})
    start = E(6, {(0, (2, 12)): 1, (1, (5, 9)): -2, (0, (1, 4)): 3})
    word = ["divisor", "seidel", "divisor", ("q", 1)] * 6
    out = apply_word(6, word, start)
    assert len(word) == 24 and len(out.sorted_terms()) > 1
    assert {name for name, _ in calls} == {"_quantum_chevalley_pair",
                                           "_seidel_pair"}
    assert len(calls) == len(set(calls))


def _kept_pairs(images, n):
    """The pairs whose packed key a * (2n + 1) + b holds an image."""
    assert len(images) == (2 * n + 1) ** 2
    return {divmod(i, 2 * n + 1) for i, x in enumerate(images) if x is not None}


def test_apply_word_keeps_images_across_words(monkeypatch):
    import qkig.ring

    word = ["divisor", "seidel", "divisor", ("q", 1)] * 3
    start = E(6, {(0, (2, 12)): 1, (1, (5, 9)): -2, (0, (1, 4)): 3})
    other = E(6, {(0, (3, 11)): 1, (2, (1, 2)): 5})
    expected = [_fold(6, word, start), _fold(6, word[::-1], other)]
    calls = []

    def counting(kernel):
        def wrapper(n, pair):
            calls.append((kernel.__name__, n, pair))
            return kernel(n, pair)
        return wrapper

    names = ("_quantum_chevalley_pair", "_seidel_pair")
    for name in names:
        monkeypatch.setattr(qkig.ring, name, counting(getattr(qkig.ring, name)))
    monkeypatch.setattr(qkig.ring, "_STORES", {})
    apply_word(3, word, E.unit(3))
    apply_word(6, word, start)
    seen = set(calls)
    assert len(calls) == len(seen)  # each image once per pair and n
    # an image is kept at its pair's packed key, and only there
    for n in (3, 6):
        for name, images in zip(names, qkig.ring._STORES[n]):
            assert _kept_pairs(images, n) == {
                p for name_, n_, p in seen if (name_, n_) == (name, n)}
    calls.clear()
    # a later word at the same n reads the images of the pairs seen before
    assert apply_word(6, word, start) == expected[0]
    assert calls == []
    assert apply_word(6, word[::-1], other) == expected[1]
    assert calls and seen.isdisjoint(calls) and len(calls) == len(set(calls))


def test_apply_word_at_a_new_n_builds_no_basis(monkeypatch):
    import random

    import qkig.pairs
    import qkig.ring
    from qkig.ring import _quantum_chevalley_pair, _seidel_pair

    n, top = 61, 122
    rng = random.Random(61)
    terms = {}
    while len(terms) < 3:
        a = rng.randint(1, top - 1)
        b = rng.randint(a + 1, top)
        if a + b != top + 1:
            terms[(rng.randint(0, 2), (a, b))] = rng.choice((-2, -1, 1, 3))
    word = ["divisor", "seidel", "q", "divisor", ("scalar", -2), "divisor",
            "seidel", ("q", 2), "divisor"]
    monkeypatch.setattr(qkig.ring, "_STORES", {})
    touched = {"divisor": set(), "seidel": set()}
    for start in (E.unit(n), E(n, terms)):
        cached = qkig.pairs.basis_list.cache_info().currsize
        out = apply_word(n, word, start)
        assert qkig.pairs.basis_list.cache_info().currsize == cached
        assert out == _fold(n, word, start) and len(out.sorted_terms()) > 3
        # the pairs each operator letter meets, cancelled terms included
        keys = set(start._terms)
        for token in word:
            kernel = {"divisor": _quantum_chevalley_pair,
                      "seidel": _seidel_pair}.get(token)
            if kernel is not None:
                touched[token] |= {p for _, p in keys}
                keys = {(d + s, image) for d, p in keys
                        for s, image, _ in kernel(n, p)}
            elif token[0] == "q":
                keys = {(d + (1 if token == "q" else token[1]), p)
                        for d, p in keys}
    divisor, shifts = qkig.ring._STORES[n]
    assert _kept_pairs(divisor, n) == touched["divisor"]
    assert _kept_pairs(shifts, n) == touched["seidel"]


def _every_pair(n):
    return E(n, {(0, p): 1 for p in basis_list(n)})


def test_kept_images_stay_lean(monkeypatch):
    import gc
    import tracemalloc

    import qkig.ring

    def snapshot():
        return ({n: [list(images) for images in lists]
                 for n, lists in qkig.ring._STORES.items()},
                dict(qkig.ring._TERMS))

    apply_word(3, ["divisor", "seidel"], _every_pair(3))
    before = snapshot()
    for n in range(2, 17):
        for op in (quantum_chevalley, seidel, classical_chevalley):
            op(n, _every_pair(n))
    assert snapshot() == before  # the single operators keep no images

    # fresh stores, filled for every pair at n = 3..12
    monkeypatch.setattr(qkig.ring, "_STORES", {})
    monkeypatch.setattr(qkig.ring, "_TERMS", {})
    starts = {n: _every_pair(n) for n in range(3, 13)}
    tracemalloc.start()
    try:
        gc.collect()  # empties the free lists, which would hide allocations
        floor = tracemalloc.get_traced_memory()[0]
        for n, start in starts.items():
            apply_word(n, ["divisor"], start)
            apply_word(n, ["seidel"], start)
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - floor
    finally:
        tracemalloc.stop()
    assert kept <= 500_000, kept
    terms = []
    for n, (divisor, shifts) in qkig.ring._STORES.items():
        # one image per basis pair, at its packed key
        assert _kept_pairs(divisor, n) == _kept_pairs(shifts, n) == \
            set(basis_list(n))
        terms += [term for image in divisor if image is not None
                  for term in image]
    # equal (offset, coeff) terms held by the stores are one object
    assert len({id(x) for x in terms}) == len(set(terms)) < len(terms)


# sends (1, 3) where (2, 3) goes, so Seidel is no longer injective on keys
_BROKEN_SEIDEL = """
import qkig.ring as r
kernel = r._seidel_pair
r._seidel_pair = lambda n, pair: kernel(n, (2, 3) if pair == (1, 3) else pair)
try:
    r.seidel(3, r.RingElement(3, {(0, (1, 3)): 1, (0, (2, 3)): 1}))
except RuntimeError as exc:
    print(__debug__, exc)
"""


def test_seidel_is_a_bijection_on_keys(monkeypatch):
    import qkig.ring

    for n in range(2, 17):
        every = {(d, v): 1 for d in (0, 1) for v in basis_list(n)}
        image = seidel(n, E(n, every))
        assert len(image.sorted_terms()) == 2 * len(basis_list(n))
        assert set(image._terms.values()) == {1}
    kernel = qkig.ring._seidel_pair
    monkeypatch.setattr(qkig.ring, "_seidel_pair", lambda n, pair: kernel(
        n, (2, 3) if pair == (1, 3) else pair))
    monkeypatch.setattr(qkig.ring, "_STORES", {})
    both = E(3, {(0, (1, 3)): 1, (0, (2, 3)): 1})
    # coefficients that cancel on the shared key must raise as well
    cancelling = E(3, {(0, (1, 3)): 1, (0, (2, 3)): -1})
    for op in (lambda e: seidel(3, e), lambda e: apply_word(3, ["seidel"], e)):
        for e in (both, cancelling):
            with pytest.raises(RuntimeError, match="seidel sent two terms of"):
                op(e)
    # the check is a raise, not an assert: it holds under python -O too
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parent.parent / "src"))
    out = subprocess.run([sys.executable, "-O", "-c", _BROKEN_SEIDEL], env=env,
                         check=True, capture_output=True, text=True, timeout=60)
    assert out.stdout.startswith("False seidel sent two terms of"), out.stdout



def _raised(call):
    with pytest.raises(Exception) as info:
        call()
    return type(info.value), str(info.value)


def test_apply_word_token_errors_match_the_element_methods():
    # a bad q or scalar letter raises times_q's or scale's own error, on the
    # unit, on a zero element and after a divisor letter
    n = 3
    bad = [(("q", k), lambda e, k=k: e.times_q(k)) for k in (-1, 1.5, True)]
    bad += [(("scalar", k), lambda e, k=k: e.scale(k)) for k in (1.5, True)]
    prefixes = [([], E.unit(n)), ([("scalar", 0)], E.zero(n)),
                (["divisor"], quantum_chevalley(n, E.unit(n)))]
    for token, method in bad:
        want = _raised(lambda: method(E.unit(n)))
        assert want[0] in (ValueError, TypeError), want
        for prefix, element in prefixes:
            assert _raised(lambda: method(element)) == want
            assert _raised(lambda: apply_word(n, prefix + [token])) == want


def test_apply_word_seidel_collision_message_matches_seidel(monkeypatch):
    import qkig.ring

    reprs = []
    plain_repr = E.__repr__
    monkeypatch.setattr(E, "__repr__", lambda e: reprs.append(e) or plain_repr(e))
    apply_word(6, ["seidel", "divisor", "seidel", "q"] * 4)
    assert reprs == []  # the message is built only when a collision happens
    monkeypatch.undo()

    kernel = qkig.ring._seidel_pair
    monkeypatch.setattr(qkig.ring, "_seidel_pair", lambda n, pair: kernel(
        n, (2, 3) if pair == (1, 3) else pair))
    monkeypatch.setattr(qkig.ring, "_STORES", {})
    # (1, 3) and (2, 3) both occur in D * O_{2,4}, a mid-word element
    for word, start, before in (
            (["seidel"], E(3, {(0, (1, 3)): 1, (0, (2, 3)): 1}), None),
            (["divisor", "seidel"], O(3, (2, 4), coeff=2),
             quantum_chevalley(3, O(3, (2, 4), coeff=2)))):
        before = start if before is None else before
        want = _raised(lambda: seidel(3, before))
        assert want[0] is RuntimeError and repr(before) in want[1], want
        assert _raised(lambda: apply_word(3, word, start)) == want

def test_sign_rule_and_expansions_do_not_revalidate(monkeypatch):
    import qkig.pairs
    import qkig.ring
    from qkig import verify
    from qkig.pairs import require_valid

    calls = []

    def counting(n, pair):
        calls.append(pair)
        return require_valid(n, pair)

    prod = product_C1(6, (3, 12), (9, 12))
    cu, cv = codim(6, (3, 12)), codim(6, (9, 12))
    for module in (qkig.pairs, qkig.ring):
        monkeypatch.setattr(module, "require_valid", counting)
    assert sign_check(prod, cu, cv)[0] and len(prod.sorted_terms()) > 1
    assert richardson_special_expand(6, 4) and calls == []
    # what is left: one RingElement.basis per v and the public products
    verify.run_suite("signs", 6)
    assert len(calls) <= 310
    # one RingElement.basis and one chevalley_q_part_geometric per v
    calls.clear()
    verify.run_suite("chevalley", 6)
    assert len(calls) <= 280


def test_products_match_the_full_pair_scan(monkeypatch):
    import qkig.ring
    from qkig import verify
    from qkig.pairs import _c1, _c2

    # only the (u, v) sequence is compared: products become their family
    monkeypatch.setattr(verify, "_images", lambda n: iter(()))
    monkeypatch.setattr(qkig.ring, "product_C1", lambda n, u, v: "C1")
    monkeypatch.setattr(qkig.ring, "product_C2", lambda n, u, v: "C2")
    sizes = []
    for n in range(2, 17):
        basis = basis_list(n)
        scan = [(u, v, "C1" if _c1(n, u, v) else "C2")
                for u in basis for v in basis
                if _c1(n, u, v) or _c2(n, u, v)]
        assert list(verify._products(n)) == scan, n
        sizes.append(len(scan))
    assert sizes == [2 * n * n - 6 * n + 5 for n in range(2, 17)]


def test_signs_and_interval_report_a_wrong_product(monkeypatch):
    import qkig.neighborhoods
    import qkig.ring
    from qkig import verify
    from qkig.neighborhoods import condition_C2

    # negated, a (C2) product breaks the sign rule and has chi = -q^d
    monkeypatch.setattr(qkig.ring, "product_C2",
                        lambda n, u, v: -product_C2(n, u, v))
    planted = {(n, u, v) for n in range(2, 5)
               for u in basis_list(n) for v in basis_list(n)
               if condition_C2(n, u, v)}
    signs, interval = (verify.run_suite(suite, 4)[0]
                       for suite in ("signs", "interval"))
    assert len(planted) == 10  # 0, 2 and 8 pairs at n = 2, 3, 4
    for report, key in ((signs, "violations"), (interval, "what")):
        assert {(f["n"], f["u"], f["v"]) for f in report["failures"]} == \
            planted
        assert all(key in f for f in report["failures"])
    assert {f["what"] for f in interval["failures"]} == {"euler"}
    # an empty prediction, as _q_support returns with its assert stripped,
    # is a failure rather than an error
    monkeypatch.setattr(qkig.neighborhoods, "_q_support",
                        lambda n, u, v: set())
    failures = verify.run_suite("interval", 2)[0]["failures"]
    assert {"n": 2, "u": divisor_pair(2), "v": (1, 2), "what": "euler"} in \
        failures
