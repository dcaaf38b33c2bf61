"""Verification suites: the ring identities and oracle equivalences.

Each suite sweeps an exhaustive or seeded family of checks and returns a
JSON-ready report {"suite", "params", "checks", "failures"}.  The command
line exposes them under ``verify``; the acceptance tests assert on them.
"""

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


def _report(name, params, checks, failures):
    return {"suite": name, "params": params, "checks": checks,
            "failures": failures}


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


def run_chevalley(n_max):
    """Quantum vs classical at q = 0, and the geometric q-part, exhaustively."""
    checks = 0
    failures = []
    for n in range(2, n_max + 1):
        for v, e, quantum, _ in _images(n):
            checks += 2
            if quantum.at_q0() != ring.classical_chevalley(n, e):
                failures.append({"n": n, "v": v, "what": "q0_reduction"})
            if quantum.q_part(1) != ring.chevalley_q_part_geometric(n, v):
                failures.append({"n": n, "v": v, "what": "q1_geometric"})
    return _report("chevalley", {"n_max": n_max}, checks, failures)


def run_seidel(n_max):
    """Shift squares to q^2, commutes with the divisor, matches (d_min, image)."""
    checks = 0
    failures = []
    for n in range(2, n_max + 1):
        unit = ring.RingElement.unit(n)
        if ring.seidel(n, unit) != ring.RingElement.basis(n, seidel_pair(n)):
            failures.append({"n": n, "what": "unit_image"})
        checks += 1
        for v, e, de, se in _images(n):
            checks += 3
            if ring.seidel(n, se) != e.times_q(2):
                failures.append({"n": n, "v": v, "what": "square"})
            if ring.seidel(n, de) != ring.quantum_chevalley(n, se):
                failures.append({"n": n, "v": v, "what": "commutation"})
            d_min, image = nb.seidel_neighborhood(n, v)
            if se != ring.RingElement.basis(n, image, d=d_min):
                failures.append({"n": n, "v": v, "what": "neighborhood"})
    return _report("seidel", {"n_max": n_max}, checks, failures)


def run_signs(n_max):
    """Codimension-alternating signs on every implemented product."""
    checks = 0
    failures = []
    for n in range(2, n_max + 1):
        top = dim_space(n)  # codimension = top - dimension, on basis pairs
        for u, v, prod in _products(n):
            ok, bad = ring.sign_check(prod, top - _dim_schubert(n, *u),
                                      top - _dim_schubert(n, *v))
            checks += 1
            if not ok:
                failures.append({"n": n, "u": u, "v": v, "violations": bad})
    return _report("signs", {"n_max": n_max}, checks, failures)


def _is_interval(support):
    return bool(support) and max(support) - min(support) + 1 == len(support)


def _euler(element):
    """chi(element) as {q-power: coefficient sum}, zero sums dropped; chi is
    the Z[q]-linear map with chi(O_w) = 1."""
    sums = {}
    for (d, _), c in element._terms.items():
        sums[d] = sums.get(d, 0) + c
    return {d: c for d, c in sums.items() if c}


def run_interval(n_max):
    """Degree bound, interval property, the predicted q-supports, and the
    Euler-characteristic rule chi(O_u * O_v) = q^d with d the least power
    of q predicted (Buch-Chung-Li-Mihalcea)."""
    checks = 0
    failures = []
    for n in range(2, n_max + 1):
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
                    failures.append({"n": n, "u": u, "v": v, "what": what})
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
                        failures.append({"n": n, "u": a, "v": b,
                                         "what": "predicted_interval"})
                    if sup_uv != sup_vu:
                        failures.append({"n": n, "u": a, "v": b,
                                         "what": "symmetry"})
    return _report("interval", {"n_max": n_max}, checks, failures)


def run_brion(n_max):
    """Euler-characteristic reconstructions equal the closed formulas."""
    from . import chi
    checks = 0
    failures = []
    for n in range(2, min(n_max, 8) + 1):
        for p in range(1, n + 1):
            checks += 1
            if chi.reconstruct_xuv(n, p) != ring.richardson_special_expand(n, p):
                failures.append({"n": n, "p": p, "what": "xuv"})
        for v in basis_list(n):
            checks += 1
            e = ring.RingElement.basis(n, v)
            if chi.reconstruct_classical_chevalley(n, v) != \
                    ring.classical_chevalley(n, e):
                failures.append({"n": n, "v": v, "what": "chevalley"})
    return _report("brion", {"n_max": min(n_max, 8)}, checks, failures)


def run_geometry(n_max, trials, seed):
    """Witness constructions against the span-dimension criteria."""
    from . import oracle
    checks = 0
    failures = []
    outcomes = {}
    for n in range(2, min(n_max, 4) + 1):
        rep = oracle.membership_suite(n, trials, seed)
        checks += rep["checks"]
        failures.extend(rep["failures"])
        outcomes[n] = rep["outcomes"]
    out = _report("geometry",
                  {"n_max": min(n_max, 4), "trials": trials, "seed": seed},
                  checks, failures)
    out["outcomes"] = outcomes
    return out


def run_bruhat(n_max, seed):
    """Geometric fixed-point order and cell points vs the product order;
    Richardson witnesses."""
    from . import oracle
    checks = 0
    failures = []
    for n in range(2, min(n_max, 5) + 1):
        basis = basis_list(n)
        for u in basis:
            for v in basis:
                checks += 1
                if oracle.bruhat_oracle(n, u, v) != bruhat_leq(n, u, v):
                    failures.append({"n": n, "u": u, "v": v, "what": "bruhat"})
            # a point of the cell of u lies in X_v (X^v) exactly when u <= v
            for orientation in ("standard", "opposite"):
                point = oracle.random_point_in_cell(n, u, orientation, seed)
                opposite = orientation == "opposite"
                for v in basis:
                    checks += 1
                    if oracle.in_schubert(n, point, v, opposite) != \
                            bruhat_leq(n, u, v):
                        failures.append({"n": n, "u": u, "v": v,
                                         "orientation": orientation,
                                         "what": "cell"})
    for n in range(2, min(n_max, 4) + 1):
        basis = basis_list(n)
        for u in basis:
            for v in basis:
                checks += 2
                witness = oracle.richardson_witness(n, u, v, seed=seed)
                if (witness is not None) != richardson_nonempty(n, u, v):
                    failures.append({"n": n, "u": u, "v": v,
                                     "what": "richardson"})
                line = oracle.line_witness(n, u, v, seed=seed)
                expected = nb.gamma_pair(n, u, v, 1).kind != "empty"
                if (line is not None) != expected:
                    failures.append({"n": n, "u": u, "v": v, "what": "line"})
    return _report("bruhat", {"n_max": min(n_max, 5), "seed": seed},
                   checks, failures)


SUITES = {
    "chevalley": lambda n_max, trials, seed: run_chevalley(n_max),
    "seidel": lambda n_max, trials, seed: run_seidel(n_max),
    "signs": lambda n_max, trials, seed: run_signs(n_max),
    "interval": lambda n_max, trials, seed: run_interval(n_max),
    "brion": lambda n_max, trials, seed: run_brion(n_max),
    "geometry": lambda n_max, trials, seed: run_geometry(n_max, trials, seed),
    "bruhat": lambda n_max, trials, seed: run_bruhat(n_max, seed),
}


def run_suite(name, n_max, trials=100, seed=0):
    if name == "all":
        return [SUITES[k](n_max, trials, seed) for k in SUITES]
    return [SUITES[name](n_max, trials, seed)]
