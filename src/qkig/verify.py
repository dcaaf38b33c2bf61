"""Verification suites: the ring identities and oracle equivalences.

Each suite is a sweep over one n: it returns its number of checks and
appends a record to the report's failures for each check that fails.
``run_suite`` owns the only loop over n.  It caps n per suite and returns
JSON-ready reports {"suite", "params", "checks", "failures"}.  An exception
raised while sweeping one n adds the failure {"n", "what": "exception",
"error"} in place of that n's check count, and the loop goes on to the next
n; only the oracle's ``SamplingError`` propagates.  The command line exposes
the suites under ``verify``; the acceptance tests assert on them.
"""

import sys

from . import neighborhoods as nb, ring
from .pairs import (
    _c1,
    _c2,
    _dim_schubert,
    basis_list,
    bruhat_leq,
    dim_space,
    divisor_pair,
    richardson_nonempty,
    seidel_pair,
)


def _images(n):
    """(v, O_v, D*O_v, S*O_v) for every basis pair v."""
    for v in basis_list(n):
        e = ring.RingElement._from_valid(n, {(0, v): 1})
        yield v, e, ring.quantum_chevalley(n, e), ring.seidel(n, e)


def _products(n):
    """(u, v, O_u * O_v) for every implemented product: the divisor and
    Seidel products, then every pair meeting (C1) or (C2).  For u = (p1, p2),
    (C1) forces v = (2n - p1, 2n) and (C2) v = (2n - p2, 2n - p1)."""
    dv, sd = divisor_pair(n), seidel_pair(n)
    for v, _, de, se in _images(n):
        yield dv, v, de
        yield sd, v, se
    basis = basis_list(n)
    valid = set(basis)
    two_n = 2 * n
    for u in basis:
        p1, p2 = u
        for v, cond, product in (
                ((two_n - p1, two_n), _c1, ring.product_C1),
                ((two_n - p2, two_n - p1), _c2, ring.product_C2)):
            if v in valid and cond(n, u, v):
                yield u, v, product(n, u, v)


def _chevalley(n, trials, seed, report):
    """Quantum vs classical at q = 0, and the geometric q-part, exhaustively."""
    fail = report["failures"].append
    for v in basis_list(n):  # D alone: a Seidel fault is not a Chevalley one
        e = ring.RingElement._from_valid(n, {(0, v): 1})
        quantum = ring.quantum_chevalley(n, e)
        if quantum.at_q0() != ring.classical_chevalley(n, e):
            fail({"n": n, "v": v, "what": "q0_reduction"})
        if quantum.q_part(1) != ring.chevalley_q_part_geometric(n, v):
            fail({"n": n, "v": v, "what": "q1_geometric"})
    return 2 * len(basis_list(n))


def _seidel(n, trials, seed, report):
    """Shift squares to q^2, commutes with the divisor, matches (d_min, image)."""
    fail = report["failures"].append
    unit = ring.RingElement.unit(n)
    if ring.seidel(n, unit) != ring.RingElement.basis(n, seidel_pair(n)):
        fail({"n": n, "what": "unit_image"})
    for v, e, de, se in _images(n):
        if ring.seidel(n, se) != e.times_q(2):
            fail({"n": n, "v": v, "what": "square"})
        if ring.seidel(n, de) != ring.quantum_chevalley(n, se):
            fail({"n": n, "v": v, "what": "commutation"})
        d_min, image = nb.seidel_neighborhood(n, v)
        if se != ring.RingElement.basis(n, image, d=d_min):
            fail({"n": n, "v": v, "what": "neighborhood"})
    return 1 + 3 * len(basis_list(n))


def _signs(n, trials, seed, report):
    """Codimension-alternating signs on every implemented product."""
    top = dim_space(n)  # codimension = top - dimension, on basis pairs
    checks = 0
    for u, v, prod in _products(n):
        ok, bad = ring.sign_check(prod, top - _dim_schubert(n, *u),
                                  top - _dim_schubert(n, *v))
        checks += 1
        if not ok:
            report["failures"].append(
                {"n": n, "u": u, "v": v, "violations": bad})
    return checks


def _is_interval(support):
    return bool(support) and max(support) - min(support) + 1 == len(support)


def _euler(element):
    """chi(element) as {q-power: coefficient sum}, zero sums dropped; chi is
    the Z[q]-linear map with chi(O_w) = 1."""
    sums = {}
    for (d, _), c in element._terms.items():
        sums[d] = sums.get(d, 0) + c
    return {d: c for d, c in sums.items() if c}


def _interval(n, trials, seed, report):
    """Degree bound, interval property, the predicted q-supports, and the
    Euler-characteristic rule chi(O_u * O_v) = q^d with d the least power
    of q predicted (Buch-Chung-Li-Mihalcea)."""
    fail = report["failures"].append
    checks = 0
    for u, v, prod in _products(n):
        sup, predicted = prod.q_support(), nb._q_support(n, u, v)
        checks += 4
        # an empty prediction (its assert stripped under -O) fails too
        euler = bool(predicted) and _euler(prod) == {min(predicted): 1}
        for what, ok in (("bound", sup <= {0, 1, 2}),
                         ("interval", _is_interval(sup)),
                         ("support_agreement", sup == predicted),
                         ("euler", euler)):
            if not ok:
                fail({"n": n, "u": u, "v": v, "what": what})
    # the prediction sweep, one pass per symmetric interval pair; it calls
    # _q_support again on the product pairs: keeping their supports would
    # cost a dict lookup per swept pair, more than those calls
    basis = basis_list(n)
    for i, u in enumerate(basis):
        for v in basis[i:]:
            diagonal = v is u  # basis[i:] starts at u itself
            sup_uv = nb._q_support(n, u, v)
            sup_vu = sup_uv if diagonal else nb._q_support(n, v, u)
            checks += 2 if diagonal else 4
            if sup_uv == sup_vu and sup_uv in nb._INTERVALS:
                continue
            for a, b, sup in ((u, v, sup_uv),
                              (v, u, sup_vu))[:1 if diagonal else 2]:
                if not _is_interval(sup):
                    fail({"n": n, "u": a, "v": b,
                          "what": "predicted_interval"})
                if sup_uv != sup_vu:
                    fail({"n": n, "u": a, "v": b, "what": "symmetry"})
    return checks


def _brion(n, trials, seed, report):
    """Euler-characteristic reconstructions equal the closed formulas."""
    from . import chi
    fail = report["failures"].append
    for p in range(1, n + 1):
        if chi.reconstruct_xuv(n, p) != ring.richardson_special_expand(n, p):
            fail({"n": n, "p": p, "what": "xuv"})
    basis = basis_list(n)
    for v in basis:
        if chi.reconstruct_classical_chevalley(n, v) != \
                ring.classical_chevalley(n, ring.RingElement.basis(n, v)):
            fail({"n": n, "v": v, "what": "chevalley"})
    return n + len(basis)


def _geometry(n, trials, seed, report):
    """Witness constructions against the span-dimension criteria."""
    from . import oracle
    rep = oracle.membership_suite(n, trials, seed)
    report["failures"].extend(rep["failures"])
    report.setdefault("outcomes", {})[n] = rep["outcomes"]
    return rep["checks"]


def _bruhat(n, trials, seed, report):
    """The basis against the torus-fixed points; per pair, the geometric
    fixed-point order and a cell point vs the product order; Richardson and
    line witnesses up to n = 4."""
    from . import oracle
    fail = report["failures"].append
    basis = basis_list(n)
    # the torus-fixed points are the isotropic coordinate planes
    fixed = {(i, j) for i in range(1, 2 * n) for j in range(i + 1, 2 * n + 1)
             if oracle.coordinate_plane(n, i, j).is_isotropic()}
    if len(set(basis)) != len(basis) or set(basis) != fixed:
        fail({"n": n, "what": "basis"})
    witnesses = n <= 4
    for u in basis:
        # a point of the cell of u lies in X_v exactly when u <= v
        point = oracle.random_point_in_cell(n, u, seed=seed)
        for v in basis:
            leq = bruhat_leq(n, u, v)
            if oracle.bruhat_oracle(n, u, v) != leq:
                fail({"n": n, "u": u, "v": v, "what": "bruhat"})
            if oracle.in_schubert(n, point, v) != leq:
                fail({"n": n, "u": u, "v": v, "what": "cell"})
            if not witnesses:
                continue
            witness = oracle.richardson_witness(n, u, v, seed=seed)
            if (witness is not None) != richardson_nonempty(n, u, v):
                fail({"n": n, "u": u, "v": v, "what": "richardson"})
            line = oracle.line_witness(n, u, v, seed=seed)
            expected = nb.gamma_pair(n, u, v, 1).kind != "empty"
            if (line is not None) != expected:
                fail({"n": n, "u": u, "v": v, "what": "line"})
    return 1 + (4 if witnesses else 2) * len(basis) ** 2


# name: (sweep over one n, cap on n or None, the params its report lists)
SUITES = {
    "chevalley": (_chevalley, None, ("n_max",)),
    "seidel": (_seidel, None, ("n_max",)),
    "signs": (_signs, None, ("n_max",)),
    "interval": (_interval, None, ("n_max",)),
    "brion": (_brion, 8, ("n_max",)),
    "geometry": (_geometry, 4, ("n_max", "trials", "seed")),
    "bruhat": (_bruhat, 5, ("n_max", "seed")),
}


def run_suite(name, n_max, trials=100, seed=0):
    """The reports of suite ``name``, or of every suite for "all", each over
    n = 2 up to n_max or the suite's cap."""
    reports = []
    for key in (SUITES if name == "all" else [name]):
        sweep, cap, params = SUITES[key]
        given = {"n_max": n_max if cap is None else min(n_max, cap),
                 "trials": trials, "seed": seed}
        report = {"suite": key, "params": {p: given[p] for p in params},
                  "checks": 0, "failures": []}
        for n in range(2, given["n_max"] + 1):
            try:
                report["checks"] += sweep(n, trials, seed, report)
            except Exception as exc:  # a kernel error fails this n alone
                oracle = sys.modules.get(f"{__package__}.oracle")
                if oracle and isinstance(exc, oracle.SamplingError):
                    raise  # a sampler out of retries is exit 4, not a finding
                report["failures"].append({
                    "n": n, "what": "exception",
                    "error": f"{type(exc).__name__}: {exc}"})
        reports.append(report)
    return reports
