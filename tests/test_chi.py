import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qkig.chi import (
    chi_chevalley,
    chi_xuv,
    ideal_to_schubert,
    invert_lower_unitriangular,
    reconstruct_classical_chevalley,
    reconstruct_xuv,
)
from qkig.pairs import InvalidPairError, basis_list, richardson_nonempty
from qkig.ring import RingElement, classical_chevalley, richardson_special_expand


@pytest.mark.parametrize("n", range(2, 9))
def test_zeta_times_inverse_is_identity(n):
    basis, z, m = ideal_to_schubert(n)
    size = len(basis)
    for i in range(size):
        row = [sum(z[i][j] * m[j][k] for j in range(size)) for k in range(size)]
        assert row == [1 if k == i else 0 for k in range(size)]


def test_zeta_structure():
    basis, z, m = ideal_to_schubert(2)
    point = basis.index((1, 2))
    # the point class decomposes as its own ideal sheaf alone
    assert z[point] == [1, 0, 0, 0]
    # n = 2 is a 4-chain: the inverse is bidiagonal with entries in {-1, 0, 1}
    assert m == [[1, 0, 0, 0], [-1, 1, 0, 0], [0, -1, 1, 0], [0, 0, -1, 1]]


def test_zeta_matrix_is_the_bruhat_order_without_revalidation(monkeypatch):
    import qkig.chi
    import qkig.pairs
    from qkig.pairs import bruhat_leq, require_valid
    for n in range(2, 9):
        basis, z, _ = ideal_to_schubert(n)
        assert z == [[int(bruhat_leq(n, p, q)) for p in basis] for q in basis]
    calls = []

    def counting(n, pair):
        calls.append(pair)
        return require_valid(n, pair)

    for module in (qkig.pairs, qkig.chi):
        monkeypatch.setattr(module, "require_valid", counting)
    basis, _, _ = ideal_to_schubert.__wrapped__(6)  # bypasses the cache
    assert len(basis) == 60 and calls == []


@pytest.mark.parametrize("n", range(2, 7))
def test_inverse_is_unitriangular_integer(n):
    basis, z, m = ideal_to_schubert(n)
    for i, row in enumerate(m):
        assert row[i] == 1
        assert all(isinstance(x, int) for x in row)
        assert all(x == 0 for x in row[i + 1:])


def test_ideal_to_schubert_is_pinned():
    tables = repr([ideal_to_schubert(n) for n in range(2, 9)])
    assert hashlib.sha256(tables.encode()).hexdigest() == (
        "fc2d97424486aba3d02553b1b45921803b243278ec99e5c903f2e0569a2b7154")


# one matrix per defect: above the diagonal, on it, and three not square
_NOT_UNITRIANGULAR = """
from qkig.chi import invert_lower_unitriangular
for z in ([[1, 5], [0, 1]], [[2]], [[1, 0]], [[1], [0, 1]],
          [[1, 0], [0, 1], [0, 0]]):
    try:
        print(invert_lower_unitriangular(z))
    except ValueError as exc:
        print(str(exc).split(";")[0])
"""


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_inverse_rejects_what_is_not_lower_unitriangular(flags):
    assert invert_lower_unitriangular([[1, 0], [3, 1]]) == [[1, 0], [-3, 1]]
    # a raise, not an assert: it holds under python -O too
    src = Path(__file__).parent.parent / "src"
    out = subprocess.run([sys.executable, *flags, "-c", _NOT_UNITRIANGULAR],
                         env=dict(os.environ, PYTHONPATH=str(src)), check=True,
                         capture_output=True, text=True, timeout=60)
    assert out.stdout.splitlines() == \
        ["matrix must be square and lower unitriangular"] * 5


def test_chi_xuv_table():
    assert chi_xuv(3, 2, (2, 6)) == 2   # sum = 2n + 2, r2 > 2n + 1 - p
    assert chi_xuv(3, 2, (3, 6)) == 1   # sum > 2n + 2, r2 > 2n - p
    assert chi_xuv(3, 2, (3, 5)) == 1   # sum = 2n + 2, r2 = 2n + 1 - p
    assert chi_xuv(3, 2, (1, 3)) == 0   # sum below the threshold
    assert chi_xuv(3, 1, (3, 5)) == 0   # sum large but r2 too small
    with pytest.raises(InvalidPairError):
        chi_xuv(3, 2, (1, 6))
    with pytest.raises(ValueError):
        chi_xuv(3, 4, (2, 6))
    for bad in (1.5, True, 0):
        with pytest.raises(ValueError, match=f"got {bad!r}"):
            chi_xuv(3, bad, (2, 6))
        with pytest.raises(ValueError, match=f"got {bad!r}"):
            reconstruct_xuv(3, bad)
    # n is checked before p, which is compared with it
    with pytest.raises(ValueError, match="n must be an integer >= 2"):
        chi_xuv("3", 1, (1, 3))
    with pytest.raises(ValueError, match="n must be an integer >= 2"):
        reconstruct_xuv("3", 1)


def test_chi_chevalley_table():
    assert chi_chevalley(3, (2, 6), (2, 6)) == 2
    assert chi_chevalley(3, (1, 4), (3, 6)) == 0
    assert chi_chevalley(3, (1, 4), (4, 6)) == 1


@pytest.mark.parametrize("n", range(2, 6))
def test_chi_values_and_support(n):
    for v in basis_list(n):
        for r in basis_list(n):
            x = chi_chevalley(n, v, r)
            assert x in (0, 1, 2)
            nonempty = ((v[0] + r[1] >= 2 * n + 2 and v[1] + r[0] >= 2 * n + 1)
                        or (v[0] + r[1] >= 2 * n + 1 and v[1] + r[0] >= 2 * n + 2))
            assert (x == 0) == (not nonempty)
        for p in range(1, n + 1):
            assert chi_xuv(n, p, v) in (0, 1, 2)


def test_reconstruct_examples():
    assert reconstruct_xuv(3, 2) == \
        RingElement(3, {(0, (2, 4)): 1, (0, (1, 5)): 2, (0, (1, 4)): -2})
    got = reconstruct_classical_chevalley(3, (3, 6))
    assert got == classical_chevalley(3, RingElement.basis(3, (3, 6)))
    assert reconstruct_classical_chevalley(2, (3, 4)) == \
        RingElement.basis(2, (2, 4))


@pytest.mark.parametrize("n", range(2, 9))
def test_reconstructions_match_closed_forms(n):
    for p in range(1, n + 1):
        assert reconstruct_xuv(n, p) == richardson_special_expand(n, p)
    for v in basis_list(n):
        assert reconstruct_classical_chevalley(n, v) == \
            classical_chevalley(n, RingElement.basis(n, v))


@pytest.mark.parametrize("n", range(2, 9))
def test_inverse_rows_are_the_nonzero_entries_of_m(n):
    from qkig.chi import _inverse_rows
    _, _, m = ideal_to_schubert(n)
    assert [list(row) for row in _inverse_rows(n)] == \
        [[(j, x) for j, x in enumerate(row) if x] for row in m]
    assert max(map(len, _inverse_rows(n))) <= 6


def test_brion_checks_the_sparse_rows(monkeypatch):
    import qkig.chi
    from qkig import verify
    real = qkig.chi._inverse_rows
    rows = list(real(3))
    # row 0 weights the opposite pair (2n - 1, 2n), where every chi_xuv
    # table is nonzero; plant one wrong entry there
    assert rows[0] == ((0, 1),)
    rows[0] = ((0, 2),)
    monkeypatch.setattr(qkig.chi, "_inverse_rows",
                        lambda n: tuple(rows) if n == 3 else real(n))
    report = verify.run_suite("brion", 4)[0]
    assert report["checks"] == 49
    assert report["failures"] and {f["n"] for f in report["failures"]} == {3}


@pytest.mark.parametrize("n", [2, 3, 4])
def test_chevalley_chi_nonzero_needs_crossing_pairs(n):
    # a nonzero entry forces the two index pairs to cross, which is the
    # nonemptiness criterion for the corresponding Richardson intersection
    for v in basis_list(n):
        for r in basis_list(n):
            if chi_chevalley(n, v, r) > 0:
                assert richardson_nonempty(n, v, r)
