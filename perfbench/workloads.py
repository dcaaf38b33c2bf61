"""The four closed-loop workloads and their correctness gates.

A workload turns a seed into a stream of calls (``calls``) and makes one
call (``run``, the timed part).  ``keep`` reduces the result to the small
record the gate needs, so memory does not grow with the run; ``work`` says
how many reported items the call stands for; ``expected`` computes by
another route, outside the timed phase, what ``keep`` must equal, and
``failed`` compares the two (items wrong).  The digest that lets two
commits be compared byte for byte covers the kept records.

Inputs come from the seed through the benchmark's own generators; the
library sees only the generated inputs.
"""

import contextlib
import hashlib
import io
import itertools
import json
import random

from qkig import cli, neighborhoods as nb, oracle, ring, verify
from qkig.pairs import InvalidPairError, require_valid

VERIFY_SUITES = ("chevalley", "seidel", "signs", "interval", "brion")
VERIFY_N_MAX = 6


def _sha(obj):
    """SHA-256 of the canonical JSON form of ``obj``."""
    text = json.dumps(obj, sort_keys=True, default=list)
    return hashlib.sha256(text.encode()).digest()


def _report_record(reports, bad=0):
    """(checks, problems, digest) of suite reports; a suite that ran no
    checks is a problem, as is each reported failure."""
    bad += sum(len(r["failures"]) + (r["checks"] == 0) for r in reports)
    return sum(r["checks"] for r in reports), bad, _sha(reports)


def _basis(n):
    """Basis pairs of IG(2, 2n), generated here so inputs are independent."""
    return [(a, b) for a in range(1, 2 * n) for b in range(a + 1, 2 * n + 1)
            if a + b != 2 * n + 1]


def _strata(lo, hi):
    """n values cycling over lo..hi: the seed varies the inputs but not how
    often each n occurs, which sets most of an item's cost."""
    while True:
        yield from range(lo, hi + 1)


class VerifyAlgebra:
    """One call is one suite at VERIFY_N_MAX; calls cycle over the five
    algebraic suites, as ``verify --suite <name>`` would run them."""

    name = "verify-algebra"
    min_calls = 5 * len(VERIFY_SUITES)
    trace_calls = 5 * len(VERIFY_SUITES)

    def __init__(self, n_max=VERIFY_N_MAX):
        self.n_max = n_max

    def calls(self, seed):
        # the sweep is exhaustive: the seed has no effect
        return itertools.cycle(VERIFY_SUITES)

    def run(self, suite):
        return verify.run_suite(suite, self.n_max)

    def keep(self, reports):
        return _report_record(reports)

    def work(self, kept):
        return kept[0]

    def expected(self, suite):
        return None

    def failed(self, suite, kept, expected):
        return min(kept[1], max(kept[0], 1))


class VerifyGeometry:
    """One call is one seeded membership trial, n rotating over 2, 3, 4."""

    name = "verify-geometry"
    min_calls = 50
    trace_calls = 60

    def calls(self, seed):
        rng = random.Random(seed)
        for n in _strata(2, 4):
            yield (n, rng.randrange(1 << 30))

    def run(self, call):
        n, trial_seed = call
        return oracle.membership_suite(n, 1, trial_seed)

    def keep(self, report):
        """A trial tests three z-samples, so each degree counts three."""
        outcomes = report["outcomes"]
        counted = sum(v for d in outcomes.values() for v in d.values())
        return _report_record([report],
                              bad=counted != 3 * len(outcomes))

    def work(self, kept):
        return 1

    def expected(self, call):
        return None

    def failed(self, call, kept, expected):
        return 1 if kept[1] else 0


class OperatorWords:
    """One call folds a seeded operator word over a random basis class.

    Half the letters of a word are ``divisor``; each other letter is
    ``seidel`` or ``q`` with equal odds.  n and the word length cycle over
    their ranges, whose sizes are coprime, so every (n, length) pair occurs
    equally often and the seed sets only the start class and the letters.
    """

    name = "operator-words"
    min_calls = 40
    trace_calls = 40
    TOKENS = ("divisor", "seidel", "q")

    def __init__(self, n_range=(3, 12), length=(16, 32)):
        self.n_range = n_range
        self.length = length

    def calls(self, seed):
        rng = random.Random(seed)
        for n, size in zip(_strata(*self.n_range), _strata(*self.length)):
            start = rng.choice(_basis(n))
            word = ["divisor"] * (size // 2) + rng.choices(
                self.TOKENS[1:], k=size - size // 2)
            rng.shuffle(word)
            yield (n, start, tuple(word))

    def run(self, call):
        n, start, word = call
        return ring.apply_word(n, word, ring.RingElement.basis(n, start))

    def keep(self, result):
        return _sha(result.to_dict())

    def work(self, kept):
        return 1

    def expected(self, call):
        """q is central, D and S commute and S^2 = q^2: the word reorders
        to q^k * S^(s mod 2) * D^m applied to the start class."""
        n, start, word = call
        m, s, k = (word.count(t) for t in self.TOKENS)
        out = ring.RingElement.basis(n, start)
        for _ in range(m):
            out = ring.quantum_chevalley(n, out)
        if s % 2:
            out = ring.seidel(n, out)
        return _sha(out.times_q(k + 2 * (s // 2)).to_dict())

    def failed(self, call, kept, expected):
        return 0 if kept == expected else 1


def _c1_c2(n):
    """(u, v) pairs meeting (C1) or (C2), from the index conditions."""
    top = 2 * n
    valid = _basis(n)
    out = []
    for (p1, p2) in valid:
        for (q1, q2) in valid:
            d = max(p1 + p2 > top + 1, q1 + q2 > top + 1)
            c1 = p1 + q1 == top and p2 == q2 == top
            c2 = (p1 + q2 == top and p2 + q1 == top and p2 - p1 == q2 - q1
                  and p2 - p1 >= 2 and d)
            if c1 or c2:
                out.append(((p1, p2), (q1, q2)))
    return sorted(out)


def _invalid_pair(rng, n):
    a = rng.randint(1, 2 * n)
    return rng.choice([(a, 2 * n + 1 - a), (a + 1, a), (a, 2 * n + 1),
                       (0, a)])


def _fmt(pair):
    return f"{pair[0]},{pair[1]}"


def _json_line(obj):
    """What ``qkig`` prints for a JSON payload."""
    return json.dumps(obj, sort_keys=True) + "\n"


def _element_out(element, as_json):
    return _json_line(element.to_dict()) if as_json \
        else element.to_text() + "\n"


class CliQueries:
    """One call is one in-process ``qkig`` command with captured output."""

    name = "cli-queries"
    min_calls = 300
    trace_calls = 300
    MIX = (("mul-divisor", 18), ("mul-seidel", 12), ("classify", 15),
           ("gamma", 15), ("richardson-expand", 10), ("table", 10),
           ("product-special", 15), ("invalid", 5))

    def __init__(self, n_range=(2, 16)):
        self.n_range = n_range
        self.emit_bytes = 0

    def calls(self, seed):
        """Blocks of 100 queries holding each kind as often as MIX says, in
        seeded order; each kind cycles through the n range on its own."""
        rng = random.Random(seed)
        block = [k for k, weight in self.MIX for _ in range(weight)]
        n_of = {k: _strata(*self.n_range) for k, _ in self.MIX}
        special = {}
        while True:
            rng.shuffle(block)
            for kind in block:
                yield self._query(rng, next(n_of[kind]), kind, special)

    def _query(self, rng, n, kind, special):
        basis = _basis(n)
        as_json = rng.random() < 0.5
        q = {"kind": kind, "n": n, "json": as_json, "exits": (0,)}
        if kind in ("mul-divisor", "mul-seidel"):
            q["pair"] = rng.choice(basis)
            q["classical"] = kind == "mul-divisor" and rng.random() < 0.3
        elif kind in ("classify", "gamma"):
            q["u"], q["v"] = rng.choice(basis), rng.choice(basis)
            q["json"] = True
            q["deg"] = rng.randint(1, 4)
            q["broken"] = rng.random() < 0.5
        elif kind == "richardson-expand":
            q["p"] = rng.randint(1, 2 * n - 1)
        elif kind == "table":
            q["op"] = rng.choice(("divisor", "seidel"))
        elif kind == "product-special":
            if n not in special:
                special[n] = _c1_c2(n)
            if special[n] and rng.random() < 0.7:
                q["u"], q["v"] = rng.choice(special[n])
            else:
                q["u"], q["v"] = rng.choice(basis), rng.choice(basis)
            q["exits"] = (0, 3)
        else:
            q["op"] = rng.choice(("mul-divisor", "mul-seidel"))
            q["pair"] = _invalid_pair(rng, n)
            q["exits"] = (2,)
        q["argv"] = self._argv(q)
        return q

    @staticmethod
    def _argv(q):
        kind, n = q["kind"], q["n"]
        if kind == "invalid":
            return [q["op"], "--n", str(n), "--pair", _fmt(q["pair"])]
        argv = [kind, "--n", str(n)]
        if kind in ("mul-divisor", "mul-seidel"):
            argv += ["--pair", _fmt(q["pair"])]
            if q["classical"]:
                argv.append("--classical")
        elif kind in ("classify", "gamma", "product-special"):
            argv += ["--u", _fmt(q["u"]), "--v", _fmt(q["v"])]
            if kind == "gamma":
                argv += ["--deg", str(q["deg"])]
                if q["broken"]:
                    argv.append("--broken")
        elif kind == "richardson-expand":
            argv += ["--p", str(q["p"])]
        elif kind == "table":
            fmt = "json" if q["json"] else "text"
            return argv + ["--op", q["op"], "--format", fmt]
        if q["json"]:
            argv.append("--json")
        return argv

    def run(self, q):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(q["argv"])
        return code, out.getvalue(), err.getvalue()

    def keep(self, result):
        code, out, err = result
        out, err = out.encode(), err.encode()
        self.emit_bytes += len(out) + len(err)
        return code, hashlib.sha256(out + b"\0" + err).digest()

    def work(self, kept):
        return 1

    def expected(self, q):
        """Exit code and output of the query, from direct library calls."""
        try:
            out, code, err = self._direct(q), 0, ""
        except InvalidPairError as exc:
            out, code, err = "", 2, f"error: {exc}\n"
        except ring.UnsupportedFamilyError as exc:
            out, code, err = "", 3, f"error: {exc}\n"
        return code, hashlib.sha256(f"{out}\0{err}".encode()).digest()

    def _direct(self, q):
        kind, n = q["kind"], q["n"]
        if kind == "invalid":
            kind = q["op"]
        if kind in ("mul-divisor", "mul-seidel"):
            e = ring.RingElement.basis(n, require_valid(n, q["pair"]))
            if kind == "mul-seidel":
                op = ring.seidel
            elif q.get("classical"):
                op = ring.classical_chevalley
            else:
                op = ring.quantum_chevalley
            return _element_out(op(n, e), q["json"])
        if kind == "richardson-expand":
            return _element_out(ring.richardson_special_expand(n, q["p"]),
                                q["json"])
        if kind == "product-special":
            return _element_out(ring.special_product(n, q["u"], q["v"]),
                                q["json"])
        if kind == "table":
            return self._table(n, q["op"], q["json"])
        u, v = require_valid(n, q["u"]), require_valid(n, q["v"])
        if kind == "gamma":
            fn = nb.gamma_broken if q["broken"] else nb.gamma_pair
            return _json_line(fn(n, u, v, q["deg"]).to_dict())
        payload = {
            "n": n, "u": list(u), "v": list(v),
            "C1": nb.condition_C1(n, u, v),
            "C2": nb.condition_C2(n, u, v),
            "L1": nb.condition_L1(n, u, v),
            "deg2_birational_case": nb.deg2_birational_case(n, u, v),
            "q_support": sorted(nb.q_support_product(n, u, v)),
            "richardson_dim": nb.richardson_dim_or_none(n, u, v),
            "dim_moduli": {str(d): nb.dim_moduli(n, u, v, d)
                           for d in (0, 1, 2)},
            "by_degree": {str(d): nb.classify(n, u, v, d).to_dict()
                          for d in (1, 2, 3)},
        }
        return _json_line(payload)

    @staticmethod
    def _table(n, op, as_json):
        by = (2 * n - 2, 2 * n) if op == "divisor" else (n - 1, n)
        apply_op = ring.quantum_chevalley if op == "divisor" else ring.seidel
        prods = [(v, apply_op(n, ring.RingElement.basis(n, v)))
                 for v in sorted(_basis(n), key=lambda p: (p[0] + p[1], p[0]))]
        if as_json:
            rows = [{"pair": list(v), "product": p.to_dict()["terms"]}
                    for v, p in prods]
            return _json_line({"n": n, "op": op, "by": list(by),
                               "rows": rows})
        return "".join(f"O_{{{by[0]},{by[1]}}} * O_{{{v[0]},{v[1]}}} = "
                       f"{p.to_text()}\n" for v, p in prods)

    def failed(self, q, kept, expected):
        return 0 if kept == expected and kept[0] in q["exits"] else 1


WORKLOADS = {w.name: w for w in (VerifyAlgebra, VerifyGeometry,
                                 OperatorWords, CliQueries)}
