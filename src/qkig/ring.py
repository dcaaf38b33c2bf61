"""Ring elements of QK(IG(2, 2n)) and the closed-form multiplication rules.

Elements are finitely supported integer combinations of q^d * O_{a,b}.  The
implemented operators are multiplication by the Schubert divisor O_{2n-2,2n}
(classical and quantum), multiplication by the index-shift class O_{n-1,n},
and the two special Richardson products available when the conditions (C1)
or (C2) on the index pairs hold.  Products outside these families are
rejected rather than approximated.

Keys are validated once, by the public ``RingElement`` constructor.  The
three kernels map a trusted pair to a list of (shift, pair, coeff) terms, one
term (shift, image, 1) for Seidel, rewriting only non-basis indices via
``_normalize``.  It returns a plain (shift, pair, antidiagonal) tuple, which
``normalize_extended`` wraps in a ``NormalizedTerm``.  The single operators
run one fold, which calls a kernel per term and keeps nothing across calls.
``apply_word`` folds on {code: coeff} dicts, code = d * M^2 + a * M + b
for q^d * O_{a,b} and M = 2n + 1, over two lists per n indexed by a * M + b
and filled on first use: a divisor image is a tuple of interned (offset,
coeff) terms, a Seidel image one offset, offset = code(image) - code(pair).
S^2 = q^2 makes Seidel injective on keys: ``seidel`` and ``apply_word``
raise if two terms meet at one image key.
An element prints as text (``to_text``) or as canonical JSON: ``to_json``
formats the sorted terms straight into the bytes of
``json.dumps(to_dict(), sort_keys=True)``, building no dict per term.
"""

from typing import NamedTuple

from .pairs import (
    InvalidPairError,
    _c1,
    _c2,
    _check_n,
    dim_space,
    divisor_pair,
    fano_index,
    require_valid,
    unit_pair,
)


class UnsupportedFamilyError(ValueError):
    """Requested a product outside the closed-form families."""


class NormalizedTerm(NamedTuple):
    """Result of rewriting an extended index into the basis range.

    ``pair`` is None when the index rewrites to zero; ``antidiagonal`` flags
    the a + b = 1 (mod 2n) indices, which the multiplication formulas never
    produce, so the flag separates formula bugs from legitimate zeros.
    """
    shift: int
    pair: tuple | None
    antidiagonal: bool = False


def normalize_extended(n, a, b):
    """Rewrite the extended index O_{a,b} as q^shift * O_{pair} or zero.

    A nonpositive first index trades for a power of q via (a, b) -> (b, a+2n);
    the recursion terminates in at most two steps for a > -2n.
    """
    _check_n(n)
    if not (type(a) is int and type(b) is int):
        raise InvalidPairError(f"indices must be integers, got ({a!r},{b!r})")
    if a >= b:
        raise InvalidPairError(f"extended index needs a < b, got ({a},{b})")
    return NormalizedTerm(*_normalize(n, a, b))


def _normalize(n, a, b):
    """normalize_extended for a trusted n and a < b, as a plain tuple."""
    period = 2 * n
    shift = 0
    while True:
        if (a + b) % period == 1 % period:
            return shift, None, True
        if 1 <= a < b <= period and a + b != period + 1:
            return shift, (a, b), False
        if a <= 0:
            a, b = b, a + period
            shift += 1
            if a >= b:
                return shift, None, False
            continue
        # a >= 1 with b > 2n: outside the quasi-periodic range
        return shift, None, False


def _checked_shift(k):
    if type(k) is not int or k < 0:
        raise ValueError(f"q-shift must be a nonnegative integer, got {k!r}")
    return k


def _checked_scalar(k):
    if type(k) is not int:
        raise TypeError(f"scalar must be an integer, got {k!r}")
    return k


def _term_key(item):
    (d, (a, b)), _ = item
    return (d, a + b, a)


class RingElement:
    """Immutable integer combination of q^d * O_{a,b} for a fixed n.

    The constructor validates its input; ``_from_valid`` trusts its keys.
    """

    __slots__ = ("n", "_terms")

    def __init__(self, n, terms=None):
        _check_n(n)
        clean = {}
        for key, coeff in (terms or {}).items():
            try:
                d, pair = key
            except (TypeError, ValueError):
                raise ValueError(
                    f"expected a (q-power, pair) key, got {key!r}") from None
            if not isinstance(coeff, int) or isinstance(coeff, bool):
                raise TypeError(f"coefficient must be an integer, got {coeff!r}")
            if not isinstance(d, int) or isinstance(d, bool) or d < 0:
                raise ValueError(f"q-power must be a nonnegative integer, got {d!r}")
            if coeff == 0:
                continue
            clean[(d, require_valid(n, pair))] = coeff
        self.n = n
        self._terms = clean

    @classmethod
    def _from_valid(cls, n, terms):
        """Element that owns ``terms``: every caller passes a new dict, on
        keys known to be valid.  Zero terms are dropped."""
        if 0 in terms.values():
            terms = {key: c for key, c in terms.items() if c}
        self = cls.__new__(cls)
        self.n, self._terms = n, terms
        return self

    @classmethod
    def zero(cls, n):
        return cls(n, {})

    @classmethod
    def basis(cls, n, pair, d=0, coeff=1):
        return cls(n, {(d, tuple(pair)): coeff})

    @classmethod
    def unit(cls, n):
        return cls.basis(n, unit_pair(n))

    def sorted_terms(self):
        """Terms as ((d, pair), coeff), sorted by (d, a + b, a)."""
        return sorted(self._terms.items(), key=_term_key)

    def coefficient(self, d, pair):
        return self._terms.get((d, tuple(pair)), 0)

    def q_support(self):
        return {d for (d, _) in self._terms}

    def q_part(self, d):
        """The terms with the exact q-power d (power kept as-is)."""
        return self._from_valid(self.n, {k: v for k, v in self._terms.items() if k[0] == d})

    def at_q0(self):
        return self.q_part(0)

    def times_q(self, k):
        if _checked_shift(k) == 0:
            return self
        return self._from_valid(self.n, {(d + k, p): c for (d, p), c in self._terms.items()})

    def scale(self, k):
        _checked_scalar(k)
        return self._from_valid(self.n, {key: k * c for key, c in self._terms.items()})

    def _merged(self, other, sign):
        if not isinstance(other, RingElement):
            return NotImplemented
        if other.n != self.n:
            raise ValueError(f"mixed ambient parameters: {self.n} vs {other.n}")
        out = dict(self._terms)
        for key, c in other._terms.items():
            out[key] = out.get(key, 0) + sign * c
        return self._from_valid(self.n, out)

    def __add__(self, other):
        return self._merged(other, 1)

    def __sub__(self, other):
        return self._merged(other, -1)

    def __neg__(self):
        return self.scale(-1)

    def __rmul__(self, k):
        if isinstance(k, int):
            return self.scale(k)
        return NotImplemented

    __mul__ = __rmul__

    def __bool__(self):
        return bool(self._terms)

    def __eq__(self, other):
        return (isinstance(other, RingElement)
                and self.n == other.n and self._terms == other._terms)

    def __hash__(self):
        return hash((self.n, frozenset(self._terms.items())))

    def to_dict(self):
        """Canonical JSON form: terms sorted by (q, a + b, a)."""
        return {
            "n": self.n,
            "terms": [{"q": d, "pair": [a, b], "coeff": c}
                      for (d, (a, b)), c in self.sorted_terms()],
        }

    def to_json(self):
        """``json.dumps(self.to_dict(), sort_keys=True)``, without the dicts."""
        return f'{{"n": {self.n}, "terms": {self._terms_json()}}}'

    def _terms_json(self):
        """The "terms" array of ``to_json``: keys sorted, ", " and ": "."""
        return "[" + ", ".join([
            f'{{"coeff": {c}, "pair": [{a}, {b}], "q": {d}}}'
            for (d, (a, b)), c in self.sorted_terms()]) + "]"

    def to_text(self):
        if not self._terms:
            return "0"
        parts = []
        for (d, (a, b)), c in self.sorted_terms():
            mag = abs(c)
            body = f"O_{{{a},{b}}}"
            if d == 1:
                body = "q*" + body
            elif d > 1:
                body = f"q^{d}*" + body
            if mag != 1:
                body = f"{mag}*" + body
            if not parts:
                parts.append(body if c > 0 else "-" + body)
            else:
                parts.append(("+ " if c > 0 else "- ") + body)
        return " ".join(parts)

    def __repr__(self):
        return f"RingElement(n={self.n}, {self.to_text()})"


def _chevalley_raw_cases(n, q1, q2):
    """Coefficient/index list for the divisor product, before normalization:
    a five-case dispatch on (q1, q2), one list for both rules."""
    s = q1 + q2
    top = 2 * n
    if q1 == q2 - 1:
        return [(1, (q1 - 1, q2))]
    if s not in (top + 2, top + 3):
        return [(1, (q1 - 1, q2)), (1, (q1, q2 - 1)), (-1, (q1 - 1, q2 - 1))]
    if s == top + 3:
        return [(1, (q1 - 1, q2)), (1, (q1, q2 - 1)), (-1, (q1 - 1, q2 - 2)),
                (-1, (q1 - 2, q2 - 1)), (1, (q1 - 2, q2 - 2))]
    # s == 2n + 2
    if q1 == n:  # q2 == n + 2
        return [(2, (q1 - 1, q2 - 1)), (1, (q1 - 2, q2)), (-2, (q1 - 2, q2 - 1)),
                (-1, (q1 - 1, q2 - 2)), (1, (q1 - 2, q2 - 2))]
    return [(2, (q1 - 1, q2 - 1)), (1, (q1 - 2, q2)), (1, (q1, q2 - 2)),
            (-2, (q1 - 2, q2 - 1)), (-2, (q1 - 1, q2 - 2)), (1, (q1 - 2, q2 - 2))]


# Per-pair kernels, one contract: a valid pair in, a list of (shift, pair,
# coeff) terms out, one term for Seidel.  The single operators fold them per
# term and keep none; apply_word codes them into _STORES.
def _classical_chevalley_pair(n, pair):
    # the raw indices of one pair are distinct: no two terms share a key
    top = 2 * n
    return [(0, (a, b), c) for c, (a, b) in _chevalley_raw_cases(n, *pair)
            if 1 <= a < b <= top and a + b != top + 1]


def _quantum_chevalley_pair(n, pair):
    top = 2 * n
    if pair == (2, top):
        # the two-to-one correction q(O_{2n-2,2n} - 1) on top of the
        # classical product; the raw list normalizes to q(O_{2n-2,2n} - 2)
        return _classical_chevalley_pair(n, pair) + [
            (1, unit_pair(n), -1), (1, divisor_pair(n), 1)]
    out = []
    for coeff, (a, b) in _chevalley_raw_cases(n, *pair):
        if 1 <= a < b <= top and a + b != top + 1:
            out.append((0, (a, b), coeff))
            continue
        assert a >= 0, (n, pair, (a, b))
        shift, image, antidiagonal = _normalize(n, a, b)
        assert not antidiagonal, (n, pair, (a, b))
        if image is not None:
            out.append((shift, image, coeff))
    return out


def _seidel_pair(n, pair):
    a, b = pair
    if a - n >= 1:
        return [(0, (a - n, b - n), 1)]
    shift, image, antidiagonal = _normalize(n, a - n, b - n)
    assert image is not None and not antidiagonal, (n, pair)
    return [(shift, image, 1)]


def _apply_termwise(pair_op, n, element):
    if element.n != n:
        raise ValueError(f"element has n={element.n}, expected {n}")
    out = {}
    get = out.get
    for (d, pair), coeff in element._terms.items():
        for shift, image, c in pair_op(n, pair):
            key = (d + shift, image)
            out[key] = get(key, 0) + coeff * c
    return RingElement._from_valid(n, out)


def _decoded(n, codes):
    m = 2 * n + 1
    size = m * m
    return RingElement._from_valid(n, {
        (code // size, divmod(code % size, m)): c for code, c in codes.items()})


# n -> apply_word's divisor and Seidel lists; and one object for each equal
# (offset, coeff) divisor term at any n (3,445 terms at n = 3..12 hold 336).
_STORES = {}
_TERMS = {}


def classical_chevalley(n, element):
    """Multiplication by the Schubert divisor class in K(X), termwise."""
    return _apply_termwise(_classical_chevalley_pair, n, element)


def quantum_chevalley(n, element):
    """Multiplication by the Schubert divisor class in QK(X), termwise."""
    return _apply_termwise(_quantum_chevalley_pair, n, element)


def seidel(n, element):
    """Multiplication by O_{n-1,n}: the index shift (a, b) -> (a-n, b-n)."""
    out = _apply_termwise(_seidel_pair, n, element)
    # the fold sums colliding terms and drops a zero sum: a key is lost
    if len(out._terms) != len(element._terms):
        raise RuntimeError(f"seidel sent two terms of {element!r} to one key")
    return out


def richardson_special_expand(n, p):
    """Basis expansion of the class of { V meets E_p } cap { V meets E^{2n-p} }.

    Defined for p in [1, 2n-1]; for p > n the two flags swap roles and the
    class equals the one for 2n - p (translates share a K-class).
    """
    _check_n(n)
    if type(p) is not int or not 1 <= p <= 2 * n - 1:
        raise ValueError(f"p must lie in [1, 2n-1], got {p!r}")
    top = 2 * n
    if p > n:
        p = top - p
    # trusted keys, no two equal: (p, 2n - p) is a basis pair only for p < n
    # and (p - 1, 2n - p) only for p > 1; the others always are
    out = {(0, (p, top - p)): 1} if p < n else {}
    if p > 1:
        out[(0, (p - 1, top - p))] = -1 if p == n else -2
    for k in range(1, p):
        out[(0, (k, top - k))] = 2
    for k in range(1, p - 1):
        out[(0, (k, top - 1 - k))] = -3
        out[(0, (k, top - 2 - k))] = 1
    return RingElement._from_valid(n, out)


def product_C1(n, u, v):
    """Product O_u * O^v when (C1) holds: p1 + q1 = 2n = p2 = q2."""
    u = require_valid(n, u)
    v = require_valid(n, v)
    if not _c1(n, u, v):
        raise UnsupportedFamilyError(
            f"condition (C1) fails for u={u}, v={v}, n={n}")
    out = richardson_special_expand(n, u[0])
    return out + RingElement._from_valid(
        n, {(1, unit_pair(n)): -1, (1, divisor_pair(n)): 1})


def product_C2(n, u, v):
    """Product O_u * O^v when (C2) holds."""
    u = require_valid(n, u)
    v = require_valid(n, v)
    if not _c2(n, u, v):
        raise UnsupportedFamilyError(
            f"condition (C2) fails for u={u}, v={v}, n={n}")
    out = richardson_special_expand(n, u[0] + v[0]).times_q(1)
    return out + RingElement._from_valid(
        n, {(2, unit_pair(n)): -1, (2, divisor_pair(n)): 1})


def special_product(n, u, v):
    """The C1 or C2 product for (u, v); raises UnsupportedFamilyError otherwise."""
    u = require_valid(n, u)
    v = require_valid(n, v)
    if _c1(n, u, v):
        return product_C1(n, u, v)
    if _c2(n, u, v):
        return product_C2(n, u, v)
    raise UnsupportedFamilyError(
        f"unsupported family: u={u}, v={v} satisfy neither (C1) nor (C2) for n={n}")


def chevalley_q_part_geometric(n, v):
    """The q^1 part of the divisor product, from the line-neighborhood classes.

    Independent cross-check of quantum_chevalley: nonzero only when the index
    conditions make degree-1 curves contribute.
    """
    q1, q2 = require_valid(n, v)
    top = 2 * n
    # trusted keys: (a, top) is a basis pair for every 2 <= a < top
    if (q1, q2) == (2, top):
        return RingElement._from_valid(
            n, {(1, unit_pair(n)): -1, (1, divisor_pair(n)): 1})
    if q1 == 1 and q2 <= top - 1:
        out = {(1, (q2, top)): 1}
        if q2 > 2:
            # at q2 = 2 the Richardson behind the boundary term is empty
            out[(1, (q2 - 1, top))] = -1
        return RingElement._from_valid(n, out)
    return RingElement.zero(n)


def sign_check(element, cu, cv):
    """Check codimension-alternating signs on a product expansion.

    For each term q^d * coeff * O_w the sign (-1)^(cu + cv + cw + d(2n-1))
    must make the coefficient nonnegative, where cu, cv are the codimensions
    of the two factors and cw the codimension of w.  Returns (ok, violations).
    """
    n = element.n
    r = fano_index(n)
    # cu + cv + cw = base - s + [s > 2n + 1] for the valid pair of sum s
    base, above = cu + cv + dim_space(n) + 3, 2 * n + 1
    bad = []
    for (d, (a, b)), coeff in element._terms.items():
        s = a + b
        parity = (base - s + (s > above) + d * r) % 2
        if coeff > 0 if parity else coeff < 0:
            bad.append((d, s, a, b, coeff, parity))
    bad.sort()  # the sorted_terms order: (d, a + b, a) fixes b
    violations = [{"q": d, "pair": (a, b), "coeff": c, "parity": parity}
                  for d, _, a, b, c, parity in bad]
    return (not violations, violations)


def apply_word(n, word, start=None):
    """Fold a word of operators over an element (default: the unit).

    Each pair's divisor and Seidel images are kept in ``_STORES[n]`` for
    every later word at n; the single operators keep none.  Zero terms drop
    once, when the word's result is decoded.

    Tokens: "divisor", "seidel", "q" or ("q", k), ("scalar", k).
    """
    out = RingElement.unit(n) if start is None else start
    if out.n != n:
        raise ValueError(f"start element has n={out.n}, expected {n}")
    m = 2 * n + 1
    size = m * m
    divisor, shifts = _STORES.get(n) or _STORES.setdefault(
        n, ([None] * size, [None] * size))
    codes = {d * size + a * m + b: c for (d, (a, b)), c in out._terms.items()}
    for token in word:
        if token == "divisor":
            new = {}
            get = new.get
            for code, coeff in codes.items():
                image = divisor[code % size]
                if image is None:
                    i = code % size
                    image = divisor[i] = tuple([_TERMS.setdefault(t, t) for t in (
                        (s * size + a * m + b - i, c) for s, (a, b), c
                        in _quantum_chevalley_pair(n, divmod(i, m)))])
                for offset, c in image:
                    key = code + offset
                    new[key] = get(key, 0) + coeff * c
            codes = new
        elif token == "seidel":
            new = {}
            for code, coeff in codes.items():
                offset = shifts[code % size]
                if offset is None:
                    i = code % size
                    (s, (a, b), _), = _seidel_pair(n, divmod(i, m))
                    offset = shifts[i] = s * size + a * m + b - i
                new[code + offset] = coeff
            if len(new) != len(codes):
                raise RuntimeError(f"seidel sent two terms of "
                                   f"{_decoded(n, codes)!r} to one key")
            codes = new
        elif token == "q" or (isinstance(token, tuple) and len(token) == 2
                              and token[0] == "q"):
            shift = size if token == "q" else _checked_shift(token[1]) * size
            codes = {code + shift: c for code, c in codes.items()}
        elif isinstance(token, tuple) and len(token) == 2 and token[0] == "scalar":
            k = _checked_scalar(token[1])
            codes = {code: k * c for code, c in codes.items()}
        else:
            raise ValueError(f"unknown operator token: {token!r}")
    return _decoded(n, codes)
