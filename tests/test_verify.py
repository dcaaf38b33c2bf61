"""The verify suites' check counts and failure records."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qkig.neighborhoods as nb
from qkig import verify
from qkig.pairs import basis_list, richardson_nonempty


@pytest.mark.parametrize("suite, checks", [
    ("chevalley", 280), ("seidel", 425), ("signs", 365),
    ("interval", 13_332), ("brion", 160)])
def test_check_counts_are_pinned(suite, checks):
    # a restructured sweep must not drop checks silently
    [report] = verify.run_suite(suite, 6)
    assert report["checks"] == checks and report["failures"] == []


def _reference_sweep(n_max):
    """The prediction sweep of the interval suite, one ordered pair at a time:
    its check count and failure records, in order."""
    checks = 0
    failures = []
    for n in range(2, n_max + 1):
        basis = basis_list(n)
        for i, u in enumerate(basis):
            for v in basis[i:]:
                sup_uv = nb._q_support(n, u, v)
                ordered = [(u, v, sup_uv)]
                if v != u:
                    ordered.append((v, u, nb._q_support(n, v, u)))
                symmetric = ordered[-1][2] == sup_uv
                for a, b, sup in ordered:
                    checks += 2
                    if not (sup and max(sup) - min(sup) + 1 == len(sup)):
                        failures.append({"n": n, "u": a, "v": b,
                                         "what": "predicted_interval"})
                    if not symmetric:
                        failures.append({"n": n, "u": a, "v": b,
                                         "what": "symmetry"})
    return checks, failures


def test_sweep_failure_records_match_the_ordered_pair_loop(monkeypatch):
    real = nb._q_support
    gapped, one_way, asymmetric, diagonal = (
        ((1, 2), (2, 6)), ((1, 4), (3, 5)), ((1, 5), (2, 4)), (5, 6))
    planted = {
        gapped: {0, 2}, gapped[::-1]: {0, 2},  # symmetric, not an interval
        one_way: {0, 2},                       # gapped one way, asymmetric
        asymmetric: {5}, asymmetric[::-1]: {6},  # intervals, asymmetric
        (diagonal, diagonal): {0, 2},
    }
    products = [(n, u, v) for n in (2, 3) for u, v, _ in verify._products(n)]
    assert not {(3, u, v) for u, v in planted} & set(products)

    def patched(n, u, v):
        if n == 3 and (u, v) in planted:
            return planted[u, v]
        return real(n, u, v)

    monkeypatch.setattr(nb, "_q_support", patched)
    report = verify.run_suite("interval", 3)[0]
    checks, failures = _reference_sweep(3)
    assert report["checks"] == 4 * len(products) + checks
    assert report["failures"] == failures
    gap, sym = "predicted_interval", "symmetry"
    assert sorted((f["u"], f["v"], f["what"]) for f in failures) == sorted([
        (*gapped, gap), (*gapped[::-1], gap),
        (*one_way, gap), (*one_way, sym), (*one_way[::-1], sym),
        (*asymmetric, sym), (*asymmetric[::-1], sym),
        (diagonal, diagonal, gap)])


# --- a planted fault in each check's callee fails that check alone


def _failures(suite, n_max, **kwargs):
    [report] = verify.run_suite(suite, n_max, **kwargs)
    return report["failures"]


def _planted(real, n, target, wrong):
    """real, except that it returns wrong(result) on the target n and args."""
    def patched(m, *args):
        result = real(m, *args)
        return wrong(result) if (m, *args) == (n, *target) else result
    return patched


def test_chevalley_reports_a_wrong_classical_product(monkeypatch):
    from qkig import ring
    e = ring.RingElement.basis(3, (2, 4))
    monkeypatch.setattr(ring, "classical_chevalley", _planted(
        ring.classical_chevalley, 3, (e,), lambda x: x + e))
    assert _failures("chevalley", 4) == [
        {"n": 3, "v": (2, 4), "what": "q0_reduction"}]


def test_chevalley_reports_a_wrong_geometric_q_part(monkeypatch):
    from qkig import ring
    e = ring.RingElement.basis(3, (2, 4))
    monkeypatch.setattr(ring, "chevalley_q_part_geometric", _planted(
        ring.chevalley_q_part_geometric, 3, ((2, 4),), lambda x: x + e))
    assert _failures("chevalley", 4) == [
        {"n": 3, "v": (2, 4), "what": "q1_geometric"}]


def test_seidel_reports_a_wrong_unit_image(monkeypatch):
    real = verify.seidel_pair
    monkeypatch.setattr(verify, "seidel_pair",
                        lambda n: (1, 2) if n == 3 else real(n))
    assert _failures("seidel", 4) == [{"n": 3, "what": "unit_image"}]


def test_seidel_reports_a_wrong_square(monkeypatch):
    from qkig import ring
    real = ring.RingElement.times_q
    o_v = ring.RingElement.basis(3, (1, 4))
    monkeypatch.setattr(ring.RingElement, "times_q", lambda self, k: (
        real(self, k) + o_v if self == o_v and k == 2 else real(self, k)))
    assert _failures("seidel", 4) == [
        {"n": 3, "v": (1, 4), "what": "square"}]


def test_seidel_reports_a_broken_commutation(monkeypatch):
    from qkig import ring
    real = ring.quantum_chevalley
    # the sweep's O_v carry no q; D is wrong only on S*O_v with a q-power
    monkeypatch.setattr(ring, "quantum_chevalley", lambda n, e: (
        -real(n, e) if n == 3 and e.q_support() != {0} else real(n, e)))
    shifted = [v for v in basis_list(3) if nb.seidel_neighborhood(3, v)[0]]
    failures = _failures("seidel", 4)
    assert failures == [{"n": 3, "v": v, "what": "commutation"}
                        for v in shifted]
    assert len(shifted) == 9


def test_seidel_reports_a_wrong_neighborhood(monkeypatch):
    monkeypatch.setattr(nb, "seidel_neighborhood", _planted(
        nb.seidel_neighborhood, 3, ((3, 5),), lambda x: (x[0] + 1, x[1])))
    assert _failures("seidel", 4) == [
        {"n": 3, "v": (3, 5), "what": "neighborhood"}]


def test_brion_reads_the_opposite_pair_from_dual_pair(monkeypatch):
    # the chi tables are indexed by dual_pair: one of its +-1 mutants, which
    # no other suite reads, fails both reconstructions at every n
    from qkig import chi
    monkeypatch.setattr(chi, "dual_pair", lambda n, p: (
        2 * n + 2 - p[1], 2 * n + 1 - p[0]), raising=False)
    chi._opposites.cache_clear()
    try:
        failures = _failures("brion", 4)
    finally:
        chi._opposites.cache_clear()
    assert {(f["n"], f["what"]) for f in failures} == {
        (n, what) for n in (2, 3, 4) for what in ("xuv", "chevalley")}


def test_bruhat_reports_a_wrong_fixed_point_order(monkeypatch):
    from qkig import oracle
    monkeypatch.setattr(oracle, "bruhat_oracle", _planted(
        oracle.bruhat_oracle, 3, ((1, 4), (2, 6)), lambda x: not x))
    assert _failures("bruhat", 3, seed=5) == [
        {"n": 3, "u": (1, 4), "v": (2, 6), "what": "bruhat"}]


def test_bruhat_reports_a_missing_richardson_witness(monkeypatch):
    from qkig import oracle
    real = oracle.richardson_witness
    assert richardson_nonempty(3, (1, 4), (3, 6))
    monkeypatch.setattr(oracle, "richardson_witness", lambda n, u, v, seed: (
        None if (n, u, v) == (3, (1, 4), (3, 6)) else real(n, u, v, seed)))
    assert _failures("bruhat", 3, seed=5) == [
        {"n": 3, "u": (1, 4), "v": (3, 6), "what": "richardson"}]


def test_bruhat_reports_a_missing_line(monkeypatch):
    from qkig import oracle
    real = oracle.line_witness
    assert nb.gamma_pair(3, (2, 6), (1, 4), 1).kind != "empty"
    monkeypatch.setattr(oracle, "line_witness", lambda n, u, v, seed: (
        None if (n, u, v) == (3, (2, 6), (1, 4)) else real(n, u, v, seed)))
    assert _failures("bruhat", 3, seed=5) == [
        {"n": 3, "u": (2, 6), "v": (1, 4), "what": "line"}]


def _mutant_basis(n, b_from):
    """basis_list with its b loop started at b_from(a), run under -O."""
    two_n = 2 * n
    pairs = [(a, b) for a in range(1, two_n)
             for b in range(b_from(a), two_n + 1) if a + b != two_n + 1]
    return tuple(sorted(pairs, key=lambda p: (p[0] + p[1], p[0])))


@pytest.mark.parametrize("fault", [
    lambda n, basis: tuple(p for p in basis if p[0] < n),  # a loop to n - 1
    lambda n, basis: basis + basis[:1],                    # a repeated pair
], ids=["a_below_n", "repeat"])
def test_bruhat_reports_a_wrong_basis(monkeypatch, fault):
    real = verify.basis_list
    monkeypatch.setattr(verify, "basis_list", lambda n: fault(n, real(n)))
    assert _failures("bruhat", 3, seed=5) == [
        {"n": 2, "what": "basis"}, {"n": 3, "what": "basis"}]


def test_bruhat_reports_a_basis_with_repeated_indices(monkeypatch):
    assert all(_mutant_basis(n, lambda a: a + 1) == basis_list(n)
               for n in (2, 3))
    monkeypatch.setattr(verify, "basis_list",
                        lambda n: _mutant_basis(n, lambda a: a))
    assert verify.basis_list(2)[0] == (1, 1)
    bad = _failures("bruhat", 3, seed=5)
    # (1, 1) comes first and no kernel accepts it
    assert [(f["n"], f["what"]) for f in bad] == [
        (2, "basis"), (2, "exception"), (3, "basis"), (3, "exception")]


def test_a_reversal_that_is_not_an_involution_fails_bruhat(capsys,
                                                          monkeypatch):
    # the opposite flag is the standard one in reversed coordinates; a
    # rotation in place of the reversal breaks every opposite-flag test, and
    # the Richardson and line witnesses, which build points of X^v, catch it
    from qkig import cli, oracle
    monkeypatch.setattr(oracle, "_reversed",
                        lambda rows: [r[1:] + r[:1] for r in rows])
    code = cli.main(["verify", "--suite", "bruhat", "--n-max", "4"])
    capsys.readouterr()
    assert code in (cli.EXIT_SUITE_FAILURE, cli.EXIT_SAMPLING)


# --- a kernel error fails its n and the sweep goes on


def test_kernel_error_is_a_failure_of_its_n(monkeypatch):
    from qkig import ring
    real = ring.chevalley_q_part_geometric

    def broken(n, v):
        if n == 3:
            raise ValueError("planted")
        return real(n, v)

    monkeypatch.setattr(ring, "chevalley_q_part_geometric", broken)
    [report] = verify.run_suite("chevalley", 4)
    # n = 2 and 4 keep their checks; n = 3 is one record
    assert report["checks"] == 2 * (4 + 24)
    assert report["failures"] == [
        {"n": 3, "what": "exception", "error": "ValueError: planted"}]


def test_a_seidel_kernel_error_fails_only_the_seidel_suite(monkeypatch):
    from qkig import ring

    def broken(n, pair):
        raise ValueError("planted")

    monkeypatch.setattr(ring, "_seidel_pair", broken)
    [report] = verify.run_suite("chevalley", 4)
    assert report["checks"] == 2 * (4 + 12 + 24) == 80
    assert report["failures"] == []
    [report] = verify.run_suite("seidel", 4)
    assert report["checks"] == 0
    assert report["failures"] == [
        {"n": n, "what": "exception", "error": "ValueError: planted"}
        for n in (2, 3, 4)]


def test_geometry_error_in_bruhat_exits_1_naming_each_n(capsys, monkeypatch):
    from qkig import cli, oracle

    def degenerate(n, u, v, seed=None):
        raise oracle.GeometryError(f"planted at n = {n}")

    monkeypatch.setattr(oracle, "line_witness", degenerate)
    code = cli.main(["verify", "--suite", "bruhat", "--n-max", "3"])
    out, err = capsys.readouterr()
    assert code == 1 and err == ""
    head, records = out.splitlines()
    assert head.startswith("bruhat: FAIL (0 checks, 2 failures")
    assert json.loads(records) == [
        {"n": n, "what": "exception",
         "error": f"GeometryError: planted at n = {n}"} for n in (2, 3)]


# sends (1, 3) where (2, 3) goes: a kernel assert fires at n = 2 (a TypeError
# under -O), and at n = 3 and 4 the sweep's records precede the collision
# check's RuntimeError
_BROKEN_SEIDEL = """
import sys
import qkig.ring as r
from qkig import cli
kernel = r._seidel_pair
r._seidel_pair = lambda n, pair: kernel(n, (2, 3) if pair == (1, 3) else pair)
sys.exit(cli.main(["verify", "--suite", "seidel", "--n-max", "4"]))
"""


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_broken_seidel_kernel_exits_1_naming_each_n(flags):
    src = Path(__file__).parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, *flags, "-c", _BROKEN_SEIDEL],
                         env=env, capture_output=True, text=True, timeout=60)
    assert out.returncode == 1 and out.stderr == "", out.stderr
    head, records = out.stdout.splitlines()
    assert head.startswith("seidel: FAIL")
    failures = json.loads(records)
    assert {f["n"] for f in failures} == {2, 3, 4}
    errors = [(f["n"], f["error"].split(":")[0])
              for f in failures if f["what"] == "exception"]
    assert errors == [(2, "TypeError" if flags else "AssertionError"),
                      (3, "RuntimeError"), (4, "RuntimeError")]
