"""The verify suites' check counts and failure records."""

import pytest

import qkig.neighborhoods as nb
from qkig import verify
from qkig.pairs import basis_list


@pytest.mark.parametrize("suite, checks", [
    ("chevalley", 280), ("seidel", 425), ("signs", 365),
    ("interval", 13_332), ("brion", 160)])
def test_check_counts_are_pinned(suite, checks):
    # a restructured sweep must not drop checks silently
    [report] = verify.run_suite(suite, 6)
    assert report["checks"] == checks and report["failures"] == []


def _reference_sweep(n_max):
    """The prediction sweep of run_interval, one ordered pair at a time:
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
    report = verify.run_interval(3)
    checks, failures = _reference_sweep(3)
    assert report["checks"] == 4 * len(products) + checks
    assert report["failures"] == failures
    gap, sym = "predicted_interval", "symmetry"
    assert sorted((f["u"], f["v"], f["what"]) for f in failures) == sorted([
        (*gapped, gap), (*gapped[::-1], gap),
        (*one_way, gap), (*one_way, sym), (*one_way[::-1], sym),
        (*asymmetric, sym), (*asymmetric[::-1], sym),
        (diagonal, diagonal, gap)])
