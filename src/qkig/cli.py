"""Command line interface.

Exit codes: 0 success, 1 verification failure (a failed check, or a suite
that ran no checks), 2 invalid index pair or argument, 3 unsupported
product family, 4 a geometry sampler ran out of retries, 141 stdout closed
before the output was written (128 + SIGPIPE; nothing on stderr).
JSON output is canonical (sorted keys, sorted terms) and byte-stable for
deterministic commands.  The default seed for randomized suites can be
set with the QKIG_SEED environment variable; an explicit --seed wins.
"""

import argparse
import json
import os
import sys

from . import neighborhoods as nb, ring, verify
from .pairs import (
    InvalidPairError,
    _dim_schubert,
    _richardson_nonempty,
    basis_list,
    dim_space,
    divisor_pair,
    dual_pair,
    require_valid,
    seidel_pair,
)

EXIT_OK = 0
EXIT_SUITE_FAILURE = 1
EXIT_INVALID_PAIR = 2
EXIT_UNSUPPORTED = 3
EXIT_SAMPLING = 4
EXIT_BROKEN_PIPE = 141


def _parse_pair(text):
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(
            f"expected a pair like 'a,b', got {text!r}")
    try:
        return (int(parts[0]), int(parts[1]))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


# json.dumps(obj, sort_keys=True) builds an encoder per call; this one is
# shared and holds no state between calls
_JSON = json.JSONEncoder(sort_keys=True)


def _emit_json(obj):
    print(_JSON.encode(obj))


def _default_seed(args):
    if args.seed is not None:
        return args.seed
    keys = verify.SUITES if args.suite == "all" else [args.suite]
    if not any("seed" in verify.SUITES[key][2] for key in keys):
        return 0  # QKIG_SEED is the default of the randomized suites alone
    text = os.environ.get("QKIG_SEED", "0")
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"QKIG_SEED must be an integer, got {text!r}") from None


def cmd_basis(args):
    n = args.n
    top = dim_space(n)  # codimension = top - dimension, on basis pairs
    rows = []
    for a, b in basis_list(n):
        dim = _dim_schubert(n, a, b)
        rows.append({"pair": [a, b], "dim": dim, "codim": top - dim,
                     "dual": list(dual_pair(n, (a, b)))})
    if args.json:
        _emit_json({"n": n, "basis": rows})
    else:
        for r in rows:
            print(f"O_{{{r['pair'][0]},{r['pair'][1]}}}  dim={r['dim']} "
                  f"codim={r['codim']} dual=({r['dual'][0]},{r['dual'][1]})")
    return EXIT_OK


def cmd_mul_divisor(args):
    e = ring.RingElement.basis(args.n, args.pair)
    if args.classical:
        return ring.classical_chevalley(args.n, e)
    return ring.quantum_chevalley(args.n, e)


def cmd_mul_seidel(args):
    return ring.seidel(args.n, ring.RingElement.basis(args.n, args.pair))


def cmd_product_special(args):
    return ring.special_product(args.n, args.u, args.v)


def cmd_classify(args):
    n = args.n
    u, v = require_valid(n, args.u), require_valid(n, args.v)
    per_degree = {str(d): nb._classify(n, u, v, d).to_dict() for d in (1, 2, 3)}
    preds = per_degree["1"]  # the index predicates do not depend on the degree
    moduli = {str(d): nb._dim_moduli(n, u, v, d) for d in (0, 1, 2)}
    payload = {
        "n": n, "u": list(u), "v": list(v),
        "C1": preds["C1"], "C2": preds["C2"], "L1": preds["L1"],
        "deg2_birational_case": preds["deg2_birational_case"],
        "q_support": sorted(nb._q_support(n, u, v)),
        # in degree 0 the moduli space is the Richardson variety itself
        "richardson_dim": moduli["0"] if _richardson_nonempty(n, u, v) else None,
        "dim_moduli": moduli,
        "by_degree": per_degree,
    }
    if args.json:
        _emit_json(payload)
    else:
        print(f"u={u} v={v} n={n}")
        print(f"  C1={payload['C1']} C2={payload['C2']} L1={payload['L1']} "
              f"deg2_case={payload['deg2_birational_case']}")
        print(f"  q_support={payload['q_support']} "
              f"richardson_dim={payload['richardson_dim']}")
        for d in (1, 2, 3):
            c = per_degree[str(d)]
            print(f"  d={d}: birational={c['ev_birational']} "
                  f"two_to_one={c['ev_broken_two_to_one']} "
                  f"gamma_equal={c['gamma_equal']} "
                  f"dim_moduli={payload['dim_moduli'].get(str(d), '-')}")
    return EXIT_OK


def cmd_gamma(args):
    gamma = nb.gamma_broken if args.broken else nb.gamma_pair
    desc = gamma(args.n, args.u, args.v, args.deg)
    if args.json:
        _emit_json(desc.to_dict())
    elif desc.kind == "meets":
        print(f"meets span(e_i : i in {list(desc.indices)}), dim {desc.dim}")
    elif desc.kind == "dim_only":
        note = f" ({desc.note})" if desc.note else ""
        print(f"dimension {desc.dim}{note}")
    else:
        print(desc.kind)
    return EXIT_OK


def cmd_richardson_expand(args):
    return ring.richardson_special_expand(args.n, args.p)


def cmd_verify(args):
    from .oracle import SamplingError  # no other command reaches the oracle
    seed = _default_seed(args)
    try:
        reports = verify.run_suite(args.suite, args.n_max, args.trials, seed)
    except SamplingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SAMPLING
    all_ok = True
    for rep in reports:
        n_fail = len(rep["failures"])
        # a suite that ran no checks verified nothing
        ok = n_fail == 0 and rep["checks"] > 0
        all_ok = all_ok and ok
        print(f"{rep['suite']}: {'ok' if ok else 'FAIL'} ({rep['checks']} "
              f"checks, {n_fail} failures, params={rep['params']})")
        if n_fail:
            print(json.dumps(rep["failures"], sort_keys=True, default=str))
    return EXIT_OK if all_ok else EXIT_SUITE_FAILURE


def cmd_table(args):
    n = args.n
    op_pair = divisor_pair(n) if args.op == "divisor" else seidel_pair(n)
    apply_op = ring.quantum_chevalley if args.op == "divisor" else ring.seidel
    # v comes from basis_list: O_v needs no validation
    prods = ((v, apply_op(n, ring.RingElement._from_valid(n, {(0, v): 1})))
             for v in basis_list(n))
    write = sys.stdout.write
    if args.format == "json":
        # "rows" sorts last: the bytes of json.dumps(payload, sort_keys=True)
        write(_JSON.encode({"n": n, "op": args.op, "by": list(op_pair)})[:-1]
              + ', "rows": [')
        sep = ""
        for (a, b), prod in prods:
            write(f'{sep}{{"pair": [{a}, {b}], "product": '
                  f'{prod._terms_json()}}}')
            sep = ", "
        write("]}\n")
    else:
        a, b = op_pair
        for v, prod in prods:
            write(f"O_{{{a},{b}}} * O_{{{v[0]},{v[1]}}} = {prod.to_text()}\n")
    return EXIT_OK


def build_parser(command=None):
    n = ("--n", {"type": int, "required": True,
                 "help": "ambient parameter n >= 2 for IG(2, 2n)"})
    as_json = ("--json", {"action": "store_true"})
    pair_kw = {"type": _parse_pair, "required": True}
    pair = ("--pair", pair_kw)
    u_v = [("--u", pair_kw), ("--v", pair_kw)]
    # (name, handler, help, options); the handlers are looked up here, at
    # call time, so a rebound module attribute is the one that runs
    commands = [
        ("basis", cmd_basis, "list basis pairs with dim/codim/dual",
         [n, as_json]),
        ("mul-divisor", cmd_mul_divisor,
         "product with the Schubert divisor class",
         [n, pair,
          ("--classical", {"action": "store_true",
                           "help": "classical K-theory product (q = 0)"}),
          as_json]),
        ("mul-seidel", cmd_mul_seidel,
         "product with the index-shift class O_{n-1,n}",
         [n, pair, as_json]),
        ("product-special", cmd_product_special,
         "closed-form product when (C1) or (C2) holds", [n, *u_v, as_json]),
        ("classify", cmd_classify,
         "index predicates, q-support and moduli dimensions",
         [n, *u_v, as_json]),
        ("gamma", cmd_gamma, "curve-neighborhood descriptor",
         [n, *u_v, ("--deg", {"type": int, "required": True}),
          ("--broken", {"action": "store_true",
                        "help": "broken chains with a degree-1 tail"}),
          as_json]),
        ("richardson-expand", cmd_richardson_expand,
         "basis expansion of the special Richardson class",
         [n, ("--p", {"type": int, "required": True}), as_json]),
        ("verify", cmd_verify, "run the verification suites",
         [("--suite", {"required": True,
                       "choices": sorted(verify.SUITES) + ["all"]}),
          ("--n-max", {"type": int, "default": 6}),
          ("--trials", {"type": int, "default": 100}),
          ("--seed", {"type": int, "default": None,
                      "help": "default: QKIG_SEED environment variable, "
                              "else 0"})]),
        ("table", cmd_table, "full operator table",
         [n, ("--op", {"required": True, "choices": ["divisor", "seidel"]}),
          ("--format", {"default": "text", "choices": ["json", "text"]})]),
    ]
    names = [row[0] for row in commands]
    if command in names:  # that command's parser alone, as add_parser nests it
        commands, sub = [commands[names.index(command)]], None
    else:
        parser = argparse.ArgumentParser(
            prog="qkig",
            description="Exact products and curve neighborhoods for the "
                        "quantum K-theory of the symplectic Grassmannian of "
                        "lines IG(2, 2n).")
        # an explicit prog spares argparse formatting a usage line to find it
        sub = parser.add_subparsers(dest="command", required=True, prog="qkig")
    for name, fn, help_text, options in commands:
        p = (argparse.ArgumentParser(prog=f"qkig {name}") if sub is None
             else sub.add_parser(name, help=help_text))
        p.set_defaults(fn=fn, parser=p)
        for flag, kwargs in options:
            p.add_argument(flag, **kwargs)
    return p if sub is None else parser


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser(argv[0] if argv else None)
    if parser.get_default("fn") is None:  # argv[0] names no command
        args = parser.parse_args(argv)
    else:  # the call the full parser's subparsers action makes
        args, rest = parser.parse_known_args(argv[1:])
        if rest:  # the full parser's "unrecognized arguments" error
            args = build_parser().parse_args(argv)
    try:
        result = args.fn(args)
        # a handler returns its exit code, or the ring element to print
        if isinstance(result, ring.RingElement):
            if args.json:
                print(result.to_json())
            else:
                print(result.to_text())
            result = EXIT_OK
        sys.stdout.flush()
        return result
    except BrokenPipeError:
        # the reader is gone; send the exit-time flush to devnull so that it
        # cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    except InvalidPairError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_PAIR
    except ring.UnsupportedFamilyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except ValueError as exc:
        args.parser.print_usage(sys.stderr)
        print(f"{args.parser.prog}: error: {exc}", file=sys.stderr)
        return EXIT_INVALID_PAIR


if __name__ == "__main__":
    sys.exit(main())
