import argparse
import contextlib
import hashlib
import json
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

from qkig import cli
from qkig.cli import EXIT_BROKEN_PIPE, build_parser, main
from qkig.pairs import _c1, _c2, basis_list, divisor_pair, seidel_pair
from qkig.ring import RingElement, apply_word, quantum_chevalley, seidel


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_basis(capsys):
    code, out, _ = run(capsys, ["basis", "--n", "2"])
    assert code == 0
    assert len(out.strip().splitlines()) == 4
    code, out, _ = run(capsys, ["basis", "--n", "3", "--json"])
    payload = json.loads(out)
    assert len(payload["basis"]) == 12
    assert payload["basis"][0] == {"pair": [1, 2], "dim": 0, "codim": 7,
                                   "dual": [5, 6]}


def test_mul_divisor_json(capsys):
    code, out, _ = run(capsys, ["mul-divisor", "--n", "3", "--pair", "2,6",
                                "--json"])
    assert code == 0
    assert json.loads(out)["terms"] == [
        {"q": 0, "pair": [1, 4], "coeff": -2},
        {"q": 0, "pair": [1, 5], "coeff": 2},
        {"q": 0, "pair": [2, 4], "coeff": 1},
        {"q": 1, "pair": [4, 6], "coeff": 1},
        {"q": 1, "pair": [5, 6], "coeff": -1},
    ]


def test_mul_divisor_classical(capsys):
    code, out, _ = run(capsys, ["mul-divisor", "--n", "3", "--pair", "1,4"])
    assert code == 0
    assert out.strip() == "O_{1,3} - q*O_{3,6} + q*O_{4,6}"
    code, out, _ = run(capsys, ["mul-divisor", "--n", "3", "--pair", "1,4",
                                "--classical"])
    assert code == 0 and out.strip() == "O_{1,3}"


def test_mul_seidel_json(capsys):
    code, out, _ = run(capsys, ["mul-seidel", "--n", "3", "--pair", "1,3",
                                "--json"])
    assert code == 0
    assert json.loads(out)["terms"] == [{"q": 2, "pair": [4, 6], "coeff": 1}]


def test_invalid_pair_exits_2(capsys):
    code, _, err = run(capsys, ["mul-divisor", "--n", "3", "--pair", "2,5"])
    assert code == 2
    assert "2n + 1 is excluded" in err
    code, _, err = run(capsys, ["mul-seidel", "--n", "3", "--pair", "4,3"])
    assert code == 2
    assert "a < b" in err
    assert err.startswith("error: invalid pair")


def test_argument_errors_exit_2_with_usage(capsys):
    cases = [
        (["gamma", "--n", "3", "--u", "1,3", "--v", "3,5", "--deg", "0"],
         "qkig gamma", "degree 0"),
        (["gamma", "--n", "3", "--u", "1,3", "--v", "3,5", "--deg", "-1"],
         "qkig gamma", "degree -1 is below 1 (degree 0 is the Richardson"),
        (["gamma", "--n", "3", "--u", "1,3", "--v", "3,5", "--deg", "-1",
          "--broken"], "qkig gamma", "degree -1 is below 1"),
        (["basis", "--n", "1"], "qkig basis", "n must be an integer >= 2"),
        (["richardson-expand", "--n", "3", "--p", "9"],
         "qkig richardson-expand", "p must lie in [1, 2n-1]"),
    ]
    for argv, prog, message in cases:
        code, out, err = run(capsys, argv)
        assert code == 2 and out == ""
        assert err.startswith(f"usage: {prog} [-h] --n N")
        assert f"\n{prog}: error: {message}" in err


def test_sampling_failure_exits_4(capsys, monkeypatch):
    from qkig import oracle

    def exhausted(n, u, v, seed=None):
        raise oracle.SamplingError(f"line witness failed for u={u}, v={v}")

    monkeypatch.setattr(oracle, "line_witness", exhausted)
    code, out, err = run(capsys, ["verify", "--suite", "bruhat",
                                  "--n-max", "2"])
    assert code == 4 and out == ""
    assert err.startswith("error: line witness failed")


def test_closed_stdout_exits_141_without_traceback():
    # a pipe whose read end is closed: the first write fails with EPIPE
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parent.parent / "src"))
    for argv in (["basis", "--n", "3", "--json"],
                 ["table", "--n", "12", "--op", "divisor"]):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run([sys.executable, "-m", "qkig", *argv],
                                  stdout=write_end, stderr=subprocess.PIPE,
                                  env=env, timeout=60)
        finally:
            os.close(write_end)
        assert proc.returncode == EXIT_BROKEN_PIPE == 141, argv
        assert proc.stderr == b"", argv


def test_product_special(capsys):
    code, out, _ = run(capsys, ["product-special", "--n", "3", "--u", "2,6",
                                "--v", "4,6", "--json"])
    assert code == 0
    terms = json.loads(out)["terms"]
    assert {"q": 1, "pair": [5, 6], "coeff": -1} in terms
    code, _, err = run(capsys, ["product-special", "--n", "3", "--u", "1,4",
                                "--v", "2,3"])
    assert code == 3
    assert "unsupported family" in err


def test_classify(capsys):
    code, out, _ = run(capsys, ["classify", "--n", "3", "--u", "1,3",
                                "--v", "3,5", "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["C2"] is True
    assert payload["q_support"] == [1, 2]
    assert payload["by_degree"]["2"]["ev_broken_two_to_one"] is True
    assert payload["richardson_dim"] is None
    code, out, _ = run(capsys, ["classify", "--n", "3", "--u", "1,3",
                                "--v", "3,5"])
    assert code == 0 and "C2=True" in out


def test_classify_validates_once(monkeypatch, capsys):
    # u and v are validated at the boundary; the payload comes from the cores
    import qkig.cli
    import qkig.neighborhoods
    import qkig.pairs
    real = qkig.pairs.require_valid
    calls = []

    def counting(n, pair):
        calls.append(pair)
        return real(n, pair)

    for module in (qkig.cli, qkig.neighborhoods, qkig.pairs):
        monkeypatch.setattr(module, "require_valid", counting, raising=False)
    for argv in (["--n", "5", "--u", "1,3", "--v", "3,5", "--json"],
                 ["--n", "3", "--u", "2,6", "--v", "1,4"],
                 ["--n", "4", "--u", "3,8", "--v", "5,8", "--json"]):
        calls.clear()
        assert main(["classify", *argv]) == 0
        assert 0 < len(calls) <= 2, calls
    capsys.readouterr()


def test_basis_validates_each_pair_once(monkeypatch, capsys):
    # dim and codim come from the trusted closed form; only dual_pair, the
    # one printer of its arithmetic, validates its pair
    import qkig.pairs
    real = qkig.pairs.require_valid
    calls = []

    def counting(n, pair):
        calls.append(pair)
        return real(n, pair)

    monkeypatch.setattr(qkig.pairs, "require_valid", counting)
    for argv in (["basis", "--n", "16"], ["basis", "--n", "16", "--json"]):
        calls.clear()
        assert main(argv) == 0
        assert len(calls) == len(basis_list(16)) == 480
    capsys.readouterr()


def test_gamma(capsys):
    code, out, _ = run(capsys, ["gamma", "--n", "3", "--u", "1,3", "--v", "3,5",
                                "--deg", "2", "--json"])
    assert code == 0
    assert json.loads(out) == {"kind": "whole", "indices": [], "dim": 7}
    code, out, _ = run(capsys, ["gamma", "--n", "4", "--u", "1,3", "--v", "1,3",
                                "--deg", "3"])
    assert code == 0 and "meets span" in out
    code, out, _ = run(capsys, ["gamma", "--n", "3", "--u", "1,2", "--v", "1,2",
                                "--deg", "2", "--broken", "--json"])
    assert json.loads(out)["kind"] == "empty"


def test_richardson_expand(capsys):
    code, out, _ = run(capsys, ["richardson-expand", "--n", "3", "--p", "2",
                                "--json"])
    assert code == 0
    assert json.loads(out)["terms"] == [
        {"q": 0, "pair": [1, 4], "coeff": -2},
        {"q": 0, "pair": [1, 5], "coeff": 2},
        {"q": 0, "pair": [2, 4], "coeff": 1},
    ]
    code, _, err = run(capsys, ["richardson-expand", "--n", "3", "--p", "0"])
    assert code == 2


def test_verify_ok_and_failing_exit(capsys):
    code, out, _ = run(capsys, ["verify", "--suite", "chevalley",
                                "--n-max", "4"])
    assert code == 0
    assert "chevalley: ok" in out
    code, out, _ = run(capsys, ["verify", "--suite", "geometry",
                                "--n-max", "2", "--trials", "10", "--seed", "5"])
    assert code == 0


def test_verify_failure_exits_1(capsys, monkeypatch):
    from qkig import cli

    def fake_run_suite(name, n_max, trials, seed):
        return [{"suite": name, "params": {}, "checks": 12,
                 "failures": [{"what": f"forged {i}"} for i in range(1, 13)]}]

    monkeypatch.setattr(cli.verify, "run_suite", fake_run_suite)
    code, out, _ = run(capsys, ["verify", "--suite", "chevalley",
                                "--n-max", "2"])
    assert code == 1
    assert out.startswith("chevalley: FAIL (12 checks, 12 failures")
    # every failure is printed, not just the first ten
    failures = json.loads(out.splitlines()[1])
    assert failures[10:] == [{"what": "forged 11"}, {"what": "forged 12"}]


def test_verify_zero_checks_fails(capsys):
    # a suite that ran no checks verified nothing
    code, out, _ = run(capsys, ["verify", "--suite", "all", "--n-max", "1",
                                "--trials", "-5"])
    assert code == 1
    lines = out.splitlines()
    assert len(lines) == 7
    assert all(": FAIL (0 checks, 0 failures" in line for line in lines)
    code, out, _ = run(capsys, ["verify", "--suite", "geometry",
                                "--n-max", "4", "--trials", "0"])
    assert code == 1
    assert out.startswith("geometry: FAIL (0 checks, 0 failures")


def test_verify_seed_env_override(capsys, monkeypatch):
    monkeypatch.setenv("QKIG_SEED", "123")
    code, out, _ = run(capsys, ["verify", "--suite", "bruhat", "--n-max", "2"])
    assert code == 0
    assert "'seed': 123" in out
    code, out, _ = run(capsys, ["verify", "--suite", "bruhat", "--n-max", "2",
                                "--seed", "9"])
    assert "'seed': 9" in out  # explicit flag wins
    monkeypatch.setenv("QKIG_SEED", "abc")
    code, out, err = run(capsys, ["verify", "--suite", "bruhat", "--n-max", "2"])
    assert code == 2 and out == ""
    assert "QKIG_SEED must be an integer, got 'abc'" in err


def test_verify_seedless_suites_ignore_seed_env(capsys, monkeypatch):
    # QKIG_SEED is the default seed of the randomized suites alone
    monkeypatch.setenv("QKIG_SEED", "abc")
    code, out, err = run(capsys, ["verify", "--suite", "brion", "--n-max", "3"])
    assert (code, err) == (0, "")
    assert out.startswith("brion: ok (") and "seed" not in out
    code, out, err = run(capsys, ["verify", "--suite", "all", "--n-max", "3"])
    assert code == 2 and out == ""
    assert "QKIG_SEED must be an integer, got 'abc'" in err


def test_table_byte_stable(capsys):
    code, out1, _ = run(capsys, ["table", "--n", "3", "--op", "divisor",
                                 "--format", "json"])
    assert code == 0
    code, out2, _ = run(capsys, ["table", "--n", "3", "--op", "divisor",
                                 "--format", "json"])
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["by"] == [4, 6] and len(payload["rows"]) == 12
    code, out, _ = run(capsys, ["table", "--n", "2", "--op", "seidel"])
    assert "O_{1,2} * O_{3,4} = O_{1,2}" in out


def test_table_json_is_the_sorted_payload(capsys):
    # written a row at a time, with the bytes of the whole payload's dump
    for n in range(2, 17):
        for op, by, apply_op in (("divisor", divisor_pair, quantum_chevalley),
                                 ("seidel", seidel_pair, seidel)):
            rows = [{"pair": list(v), "product":
                     apply_op(n, RingElement.basis(n, v)).to_dict()["terms"]}
                    for v in basis_list(n)]
            payload = {"n": n, "op": op, "by": list(by(n)), "rows": rows}
            code, out, err = run(capsys, ["table", "--n", str(n), "--op", op,
                                          "--format", "json"])
            assert (code, err) == (0, "")
            assert out == json.dumps(payload, sort_keys=True) + "\n"


def test_table_json_never_holds_the_table():
    # the whole n = 16 table peaked at 1.7 MB; the output goes to devnull so
    # that only the command's own allocations count
    argv = ["table", "--n", "16", "--op", "divisor", "--format", "json"]
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        assert main(argv) == 0  # basis_list caches the n = 16 basis once
        tracemalloc.start()
        try:
            assert main(argv) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert peak < 500_000


def test_table_does_not_validate_its_rows(monkeypatch, capsys):
    # each O_v comes from basis_list; validating it cost one call per row
    import qkig.ring
    calls = []
    real = qkig.ring.require_valid

    def counting(n, pair):
        calls.append(pair)
        return real(n, pair)

    monkeypatch.setattr(qkig.ring, "require_valid", counting)
    for op in ("divisor", "seidel"):
        for fmt in ("json", "text"):
            code, out, err = run(capsys, ["table", "--n", "16", "--op", op,
                                          "--format", fmt])
            assert (code, err) == (0, "")
            rows = (json.loads(out)["rows"] if fmt == "json"
                    else out.splitlines())
            assert len(rows) == 480
            assert calls == [], (op, fmt, len(calls))


def _golden_argvs():
    for n in range(2, 9):
        yield ["basis", "--n", str(n)]
    for n in range(2, 11):
        for op in ("divisor", "seidel"):
            for fmt in ("json", "text"):
                yield ["table", "--n", str(n), "--op", op, "--format", fmt]
    for n in range(2, 6):
        for a, b in basis_list(n):
            pair = f"{a},{b}"
            yield ["mul-divisor", "--n", str(n), "--pair", pair, "--json"]
            yield ["mul-divisor", "--n", str(n), "--pair", pair, "--json",
                   "--classical"]
            yield ["mul-seidel", "--n", str(n), "--pair", pair, "--json"]
    for n in range(2, 5):
        for u in basis_list(n):
            for v in basis_list(n):
                yield ["classify", "--n", str(n), "--u", f"{u[0]},{u[1]}",
                       "--v", f"{v[0]},{v[1]}", "--json"]


def test_golden_cli_outputs(capsys):
    # any change to a printed byte or an exit code changes the digest
    digest = hashlib.sha256()
    for argv in _golden_argvs():
        code, out, _ = run(capsys, argv)
        digest.update(repr((argv, code, out)).encode())
    assert digest.hexdigest() == (
        "42aa56b64d342b6fb6c2c8066ff1aac73cfb6bb1a39fe6189994e0716ed4ef95")


def _special_argvs():
    for n in range(2, 13):
        for p in range(1, 2 * n):
            argv = ["richardson-expand", "--n", str(n), "--p", str(p)]
            yield argv
            yield argv + ["--json"]
    for n in range(2, 9):
        basis = basis_list(n)
        for u in basis:
            for v in basis:
                if _c1(n, u, v) or _c2(n, u, v):
                    argv = ["product-special", "--n", str(n),
                            "--u", f"{u[0]},{u[1]}", "--v", f"{v[0]},{v[1]}"]
                    yield argv
                    yield argv + ["--json"]
    # pairs in neither family exit 3
    for n, u, v in ((2, "1,2", "1,2"), (5, "3,10", "6,10"),
                    (8, "1,3", "14,16"), (8, "15,16", "15,16")):
        yield ["product-special", "--n", str(n), "--u", u, "--v", v]


def test_golden_richardson_and_special_outputs(capsys):
    # the kernel behind richardson-expand and product-special, past n = 5
    digest = hashlib.sha256()
    codes = []
    for argv in _special_argvs():
        code, out, _ = run(capsys, argv)
        codes.append(code)
        digest.update(repr((argv, code, out)).encode())
    assert (len(codes), codes.count(0), codes.count(3)) == (752, 748, 4)
    assert digest.hexdigest() == (
        "3e5678a4ecf7d5192b6a9d90e50afadb83e8f135212a63ecb466f313c02549f6")


def _seeded_word(rng):
    tokens = []
    for _ in range(rng.randint(1, 20)):
        r = rng.random()
        if r < 0.5:
            tokens.append("divisor")
        elif r < 0.8:
            tokens.append("seidel")
        elif r < 0.9:
            tokens.append(("q", rng.randint(0, 2)))
        else:
            tokens.append(("scalar", rng.choice([-3, -1, 2, 5])))
    return tokens


def test_golden_apply_word():
    # multi-term elements: every coefficient of every word's image is pinned
    rng = random.Random(2024)
    digest = hashlib.sha256()
    for n in range(2, 9):
        for _ in range(8):
            word = _seeded_word(rng)
            start = RingElement.basis(n, rng.choice(basis_list(n)))
            out = apply_word(n, word, start)
            digest.update(repr((n, word, out.to_dict())).encode())
    assert digest.hexdigest() == (
        "225bca7659e5790e59da505f09dd5548b781396928af124f51a05214b912b910")


def test_golden_apply_word_past_n_8():
    # multi-term starts with q-powers, at the n the benchmark reaches and past
    rng = random.Random(2026)
    digest = hashlib.sha256()
    for n in range(9, 17):
        for _ in range(4):
            pairs = rng.sample(basis_list(n), rng.randint(2, 6))
            start = RingElement(n, {(rng.randint(0, 2), p): rng.choice(
                [-3, -1, 1, 2, 5]) for p in pairs})
            word = _seeded_word(rng)
            out = apply_word(n, word, start)
            digest.update(repr((n, word, start.to_dict(), out.to_dict())).encode())
    assert digest.hexdigest() == (
        "015a59817c87cfb364cfff89bc6f203847d5fe4ec1af7be805ce63560e1c95d1")


def test_verify_output_is_pinned(capsys):
    # every suite's check count, failure count and params, and the exit code
    code, out, _ = run(capsys, ["verify", "--suite", "all", "--n-max", "6",
                                "--trials", "20", "--seed", "7"])
    digest = hashlib.sha256(repr((code, out)).encode()).hexdigest()
    assert digest == (
        "fc549b6cf12282b089f18a7873f84990f0f73bd13dd38feac3a467d72ca097d0")


def _run_any(capsys, argv):
    # argparse's own errors leave through SystemExit
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


_HELP = (["-h", "--help"], "help", False, "==SUPPRESS==", None, None,
         "show this help message and exit", "_HelpAction")
_N = (["--n"], "n", True, None, None, "int",
      "ambient parameter n >= 2 for IG(2, 2n)", "_StoreAction")
_JSON = (["--json"], "json", False, False, None, None, None,
         "_StoreTrueAction")


def _pair(dest):
    return ([f"--{dest}"], dest, True, None, None, "_parse_pair", None,
            "_StoreAction")


_PARSER = [
    ("basis", "list basis pairs with dim/codim/dual", "cmd_basis",
     "usage: qkig basis [-h] --n N [--json]\n", [_HELP, _N, _JSON]),
    ("mul-divisor", "product with the Schubert divisor class",
     "cmd_mul_divisor",
     "usage: qkig mul-divisor [-h] --n N --pair PAIR [--classical] [--json]\n",
     [_HELP, _N, _pair("pair"),
      (["--classical"], "classical", False, False, None, None,
       "classical K-theory product (q = 0)", "_StoreTrueAction"),
      _JSON]),
    ("mul-seidel", "product with the index-shift class O_{n-1,n}",
     "cmd_mul_seidel",
     "usage: qkig mul-seidel [-h] --n N --pair PAIR [--json]\n",
     [_HELP, _N, _pair("pair"), _JSON]),
    ("product-special", "closed-form product when (C1) or (C2) holds",
     "cmd_product_special",
     "usage: qkig product-special [-h] --n N --u U --v V [--json]\n",
     [_HELP, _N, _pair("u"), _pair("v"), _JSON]),
    ("classify", "index predicates, q-support and moduli dimensions",
     "cmd_classify",
     "usage: qkig classify [-h] --n N --u U --v V [--json]\n",
     [_HELP, _N, _pair("u"), _pair("v"), _JSON]),
    ("gamma", "curve-neighborhood descriptor", "cmd_gamma",
     "usage: qkig gamma [-h] --n N --u U --v V --deg DEG [--broken] "
     "[--json]\n",
     [_HELP, _N, _pair("u"), _pair("v"),
      (["--deg"], "deg", True, None, None, "int", None, "_StoreAction"),
      (["--broken"], "broken", False, False, None, None,
       "broken chains with a degree-1 tail", "_StoreTrueAction"),
      _JSON]),
    ("richardson-expand", "basis expansion of the special Richardson class",
     "cmd_richardson_expand",
     "usage: qkig richardson-expand [-h] --n N --p P [--json]\n",
     [_HELP, _N,
      (["--p"], "p", True, None, None, "int", None, "_StoreAction"),
      _JSON]),
    ("verify", "run the verification suites", "cmd_verify",
     "usage: qkig verify [-h] --suite\n"
     "                   "
     "{brion,bruhat,chevalley,geometry,interval,seidel,signs,all}\n"
     "                   [--n-max N_MAX] [--trials TRIALS] [--seed SEED]\n",
     [_HELP,
      (["--suite"], "suite", True, None,
       ["brion", "bruhat", "chevalley", "geometry", "interval", "seidel",
        "signs", "all"], None, None, "_StoreAction"),
      (["--n-max"], "n_max", False, 6, None, "int", None, "_StoreAction"),
      (["--trials"], "trials", False, 100, None, "int", None,
       "_StoreAction"),
      (["--seed"], "seed", False, None, None, "int",
       "default: QKIG_SEED environment variable, else 0", "_StoreAction")]),
    ("table", "full operator table", "cmd_table",
     "usage: qkig table [-h] --n N --op {divisor,seidel} "
     "[--format {json,text}]\n",
     [_HELP, _N,
      (["--op"], "op", True, None, ["divisor", "seidel"], None, None,
       "_StoreAction"),
      (["--format"], "format", False, "text", ["json", "text"], None, None,
       "_StoreAction")]),
]


def _subparsers(parser):
    [sub] = [a for a in parser._actions
             if isinstance(a, argparse._SubParsersAction)]
    assert (sub.dest, sub.required) == ("command", True)
    assert list(sub.choices) == [c.dest for c in sub._choices_actions]
    return sub


def _command_row(name, help_text, p):
    assert p.get_default("parser") is p
    return (name, help_text, p.get_default("fn").__name__, p.format_usage(),
            [(a.option_strings, a.dest, a.required, a.default, a.choices,
              getattr(a.type, "__name__", None), a.help, type(a).__name__)
             for a in p._actions])


def _subparser_rows(parser):
    sub = _subparsers(parser)
    return [_command_row(c.dest, c.help, sub.choices[c.dest])
            for c in sub._choices_actions]


def test_parser_options_are_pinned(monkeypatch):
    # the usage lines wrap at the terminal width argparse reads from COLUMNS
    monkeypatch.setenv("COLUMNS", "80")
    parser = build_parser()
    assert parser.format_usage() == (
        "usage: qkig [-h]\n"
        "            "
        "{basis,mul-divisor,mul-seidel,product-special,classify,gamma,"
        "richardson-expand,verify,table}\n"
        "            ...\n")
    assert _subparser_rows(parser) == _PARSER
    # main parses a named command with that command's parser alone, which
    # is the full parser's subparser for it: options, usage and help
    nested = _subparsers(parser).choices
    for row in _PARSER:
        name, help_text = row[:2]
        one = build_parser(name)
        assert one.prog == nested[name].prog == f"qkig {name}"
        assert not any(isinstance(a, argparse._SubParsersAction)
                       for a in one._actions)
        assert _command_row(name, help_text, one) == row
        assert one.format_usage() == nested[name].format_usage()
        assert one.format_help() == nested[name].format_help()


def _surface_argvs():
    """Argument vectors the golden digest leaves out: gamma, product-special,
    richardson-expand, text output, and every kind of exit-2 error."""
    def fmt(pair):
        return f"{pair[0]},{pair[1]}"

    for n in (2, 3):
        for u in basis_list(n):
            for v in basis_list(n):
                for d in range(1, 5):
                    for extra in ([], ["--json"], ["--broken"],
                                  ["--broken", "--json"]):
                        yield ["gamma", "--n", str(n), "--u", fmt(u),
                               "--v", fmt(v), "--deg", str(d), *extra]
    for n in (2, 3, 4):
        for u in basis_list(n):
            for v in basis_list(n):
                uv = ["--n", str(n), "--u", fmt(u), "--v", fmt(v)]
                yield ["product-special", *uv]
                yield ["product-special", *uv, "--json"]
                yield ["classify", *uv]
    for n in range(2, 6):
        for p in range(1, 2 * n):
            yield ["richardson-expand", "--n", str(n), "--p", str(p)]
            yield ["richardson-expand", "--n", str(n), "--p", str(p),
                   "--json"]
        for pair in basis_list(n):
            yield ["mul-divisor", "--n", str(n), "--pair", fmt(pair)]
            yield ["mul-divisor", "--n", str(n), "--pair", fmt(pair),
                   "--classical"]
            yield ["mul-seidel", "--n", str(n), "--pair", fmt(pair)]
    # exit 2: n out of range, invalid pairs (reported before the degree),
    # out-of-range arguments, and argparse's own errors (not a bad choice,
    # whose message is worded differently across Python versions)
    yield from (
        ["basis", "--n", "1"],
        ["mul-divisor", "--n", "1", "--pair", "1,2"],
        ["mul-seidel", "--n", "1", "--pair", "1,2"],
        ["product-special", "--n", "1", "--u", "1,2", "--v", "1,2"],
        ["classify", "--n", "1", "--u", "1,2", "--v", "1,2"],
        ["gamma", "--n", "1", "--u", "1,2", "--v", "1,2", "--deg", "1"],
        ["richardson-expand", "--n", "1", "--p", "1"],
        ["table", "--n", "1", "--op", "divisor"],
        ["mul-divisor", "--n", "3", "--pair", "2,5", "--json"],
        ["mul-seidel", "--n", "3", "--pair", "4,3"],
        ["product-special", "--n", "3", "--u", "2,5", "--v", "7,8"],
        ["product-special", "--n", "3", "--u", "1,2", "--v", "0,3"],
        ["classify", "--n", "3", "--u", "1,2", "--v", "3,3"],
        ["classify", "--n", "3", "--u", "9,10", "--v", "3,4", "--json"],
        ["gamma", "--n", "3", "--u", "3,4", "--v", "1,2", "--deg", "0"],
        ["gamma", "--n", "3", "--u", "1,2", "--v", "2,5", "--deg", "-1",
         "--broken"],
        ["gamma", "--n", "3", "--u", "1,3", "--v", "3,5", "--deg", "0"],
        ["gamma", "--n", "3", "--u", "1,3", "--v", "3,5", "--deg", "-2",
         "--broken", "--json"],
        ["richardson-expand", "--n", "3", "--p", "0"],
        ["richardson-expand", "--n", "3", "--p", "6", "--json"],
        [],
        ["basis"],
        ["basis", "--n", "x"],
        ["basis", "--n", "3", "--pair", "1,2"],
        ["mul-divisor", "--n", "3", "--pair", "1"],
        ["mul-seidel", "--n", "3", "--pair", "a,b"],
        ["product-special", "--n", "3", "--u", "1,2"],
        ["gamma", "--n", "3", "--u", "1,3", "--v", "3,5"],
        ["verify", "--suite", "signs", "--n-max", "x"],
    )


def test_cli_outputs_beyond_golden_are_pinned(capsys, monkeypatch):
    # exit code, stdout and stderr, usage lines included; each call runs
    # through main's own build of its command's parser, whose top-level
    # usage line test_parser_options_are_pinned pins too
    monkeypatch.setenv("COLUMNS", "80")
    digest = hashlib.sha256()
    codes = set()
    for argv in _surface_argvs():
        code, out, err = _run_any(capsys, argv)
        codes.add(code)
        digest.update(repr((argv, code, out, err)).encode())
    assert codes == {0, 2, 3}
    assert digest.hexdigest() == (
        "0cbc90dc2e9fad9b31c7ef491cf3cfb7a66234351e1de3d0b6b56030350d0429")


# argparse's own edge cases: help after a command, leftovers, abbreviations,
# "--", repeated and missing values, bad choices and top-level errors
_EDGE_ARGVS = [
    ["basis", "-h"], ["gamma", "-h"], ["verify", "--help"], ["-h"],
    ["--help"], ["-h", "basis"], ["--bogus"], ["bogus"], ["BASIS"], [],
    ["--n", "3"],
    ["mul-divisor", "--n", "3", "--pair", "1,2", "--bogus"],
    ["mul-divisor", "--n", "3", "--pair", "1,2", "stray"],
    ["basis", "--n", "3", "--js"], ["basis", "--n", "3", "--he"],
    ["mul-divisor", "--n", "3", "--p", "1,2"],
    ["gamma", "--n", "3", "--u", "1,3", "--v", "3,5", "--deg", "2", "--b"],
    ["basis", "--", "--n", "3"], ["--", "basis", "--n", "3"],
    ["basis", "--n", "3", "--json", "--", "x"], ["basis", "--n", "3", "-x"],
    ["basis", "--n", "3", "--n", "2"], ["basis", "--n"], ["basis", "--json"],
    ["table", "--n", "3", "--op", "bad"], ["verify", "--suite", "nope"],
    ["basis", "--n=3"], ["basis", "-n", "3"],
    ["mul-seidel", "--n", "3", "--pair", "1,3", "--json", "--json"],
    ["table", "--n", "2", "--op", "divisor", "--format", "json", "extra"],
]


def test_one_command_parser_matches_the_full_parser(capsys, monkeypatch):
    # every call gives the exit code, stdout and stderr of parsing it with
    # the full parser, build_parser().parse_args(argv), and the same
    # dispatch; one full parser serves a pass, as a parse leaves it unchanged
    argvs = [*_surface_argvs(), *_EDGE_ARGVS]
    for columns in ("80", "200"):
        monkeypatch.setenv("COLUMNS", columns)
        got = [_run_any(capsys, list(argv)) for argv in argvs]
        full = build_parser()
        with monkeypatch.context() as m:
            m.setattr(cli, "build_parser", lambda command=None: full)
            want = [_run_any(capsys, list(argv)) for argv in argvs]
        for argv, one, whole in zip(argvs, got, want):
            assert one == whole, (columns, argv)


def test_a_named_command_builds_its_parser_alone(capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs["prog"])
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    code, out, _ = _run_any(capsys, ["mul-divisor", "--n", "3", "--pair",
                                     "1,2"])
    assert code == 0 and out
    assert built == ["qkig mul-divisor"]
    # leftover arguments and an empty argv reach the full parser
    every = ["qkig", *(f"qkig {row[0]}" for row in _PARSER)]
    built.clear()
    code, _, err = _run_any(capsys, ["basis", "--n", "3", "--pair", "1,2"])
    assert code == 2
    assert err.endswith("\nqkig: error: unrecognized arguments: --pair 1,2\n")
    assert built == ["qkig basis", *every]
    built.clear()
    code, _, err = _run_any(capsys, [])
    assert code == 2
    assert err.endswith("\nqkig: error: the following arguments are "
                        "required: command\n")
    assert built == every
    # the handler is looked up when the parser is built, so a rebound
    # module attribute is the one that runs
    seen = []
    monkeypatch.setattr(cli, "cmd_basis", lambda args: seen.append(args.n))
    assert main(["basis", "--n", "2"]) is None
    assert seen == [2]
