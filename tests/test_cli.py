import json

from qkig.cli import main


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
