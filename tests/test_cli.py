import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

from qkig.cli import EXIT_BROKEN_PIPE, main
from qkig.pairs import basis_list
from qkig.ring import RingElement, apply_word


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
        return [{"suite": name, "params": {}, "checks": 1,
                 "failures": [{"what": "forged"}]}]

    monkeypatch.setattr(cli.verify, "run_suite", fake_run_suite)
    code, out, _ = run(capsys, ["verify", "--suite", "chevalley",
                                "--n-max", "2"])
    assert code == 1
    assert "FAIL" in out and "forged" in out


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


def test_verify_output_is_pinned(capsys):
    # every suite's check count, failure count and params, and the exit code
    code, out, _ = run(capsys, ["verify", "--suite", "all", "--n-max", "6",
                                "--trials", "20", "--seed", "7"])
    digest = hashlib.sha256(repr((code, out)).encode()).hexdigest()
    assert digest == (
        "13c949729f8337296b079d70c73be0311529d3c60a7ad20231c51470d488a4ab")
