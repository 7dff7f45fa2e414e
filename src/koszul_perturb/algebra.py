"""Four-factor graded algebra Λ(W) ⊗ S^{≤m}(V∨) ⊗ ∧(V∨) ⊗ ∧(V).

Finite constant-coefficient model of a global Koszul resolution: W holds
the e odd form directions (w_1..w_e), S^{≤m}(V∨) the symmetric algebra on
d even generators v_1..v_d truncated above total degree m, ∧(V∨) the
Koszul wedge slot (odd, written v̄_i / slot "a"), ∧(V) the dual wedge slot
used by the endomorphism tensor calculus (odd, written ē_i / slot "b").

A monomial key is (wmask, sym, amask, bmask): bitmasks over the odd slots
(bit i-1 <-> generator i) plus a sorted index tuple for the symmetric
word. Canonical word order is [w][s][a][b], ascending inside each slot;
every sign in the package is a transposition count against that order.
Parity of a key is (q + a + b) mod 2 — symmetric letters are even.

Every product of two monomials goes through `_mul_keys`, which holds the
sign rule; products that would push the symmetric degree past m drop the
term and set a sticky `truncated` flag instead of raising; identity checks
downstream are only claimed where the flag stays clear.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement

from .rational import format_rational, parse_rational, wire_int


def bits(mask: int):
    """1-based generator indices of a bitmask, ascending."""
    i = 1
    while mask:
        if mask & 1:
            yield i
        mask >>= 1
        i += 1


def mask_of(indices) -> int:
    m = 0
    for i in indices:
        b = 1 << (i - 1)
        if m & b:
            raise ValueError(f"repeated odd generator {i}")
        m |= b
    return m


def shuffle_sign(x: int, y: int) -> int:
    """Sign of merging two disjoint ascending odd words x, y into one."""
    if x & y:
        raise ValueError("words overlap")
    inv = 0
    for j in bits(y):
        inv += (x >> j).bit_count()  # x-letters strictly above j must hop over it
    return -1 if inv & 1 else 1


def contraction_sign(u: int, b: int) -> int:
    """Sign of ι_{e_{u₁}}∘…∘ι_{e_{u_k}} on the ascending word e_b, for u ⊆ b.

    u is ascending, so u_k acts first; each ι_{e_i} then still finds every
    letter of b below i in place and contributes (−1)^{#letters below i}.
    """
    n = 0
    for i in bits(u):
        n += (b & ((1 << (i - 1)) - 1)).bit_count()
    return -1 if n & 1 else 1


def _eps(mask: int) -> int:
    """⟨ē_C, v̄_C⟩ = contraction_sign(C, C) = (−1)^{|C|(|C|−1)/2}."""
    n = mask.bit_count()
    return -1 if (n * (n - 1) // 2) & 1 else 1


@dataclass(frozen=True)
class ModelConfig:
    d: int  # dim V
    e: int  # dim W
    m: int  # symmetric truncation degree

    def __post_init__(self):
        if not (1 <= self.d):
            raise ValueError("d must be >= 1")
        if not (0 <= self.e):
            raise ValueError("e must be >= 0")
        if not (0 <= self.m):
            raise ValueError("m must be >= 0")

    @property
    def full_b(self) -> int:
        return (1 << self.d) - 1


def key_parity(key) -> int:
    w, s, a, b = key
    return (w.bit_count() + a.bit_count() + b.bit_count()) & 1


class GradedElement:
    """Sparse {key: Fraction} element; the constructor drops zero coefficients,
    so builders may accumulate into a plain dict and leave cancellations in."""

    __slots__ = ("config", "terms", "truncated")

    def __init__(self, config: ModelConfig, terms=None, truncated: bool = False):
        self.config = config
        self.terms = {}
        if terms:
            for k, c in terms.items():
                if c:
                    self.terms[k] = c if type(c) is Fraction else Fraction(c)
        self.truncated = truncated

    # -- constructors -------------------------------------------------
    @staticmethod
    def zero(config: ModelConfig) -> "GradedElement":
        return GradedElement(config)

    @staticmethod
    def unit(config: ModelConfig) -> "GradedElement":
        return GradedElement(config, {(0, (), 0, 0): Fraction(1)})

    @staticmethod
    def monomial(config, wmask=0, sym=(), amask=0, bmask=0, coeff=1) -> "GradedElement":
        sym = tuple(sorted(sym))
        if wmask >> config.e or amask >> config.d or bmask >> config.d:
            raise ValueError("generator index out of range")
        if any(not 1 <= i <= config.d for i in sym):
            raise ValueError("symmetric index out of range")
        if len(sym) > config.m:
            raise ValueError("symmetric degree exceeds truncation")
        return GradedElement(config, {(wmask, sym, amask, bmask): Fraction(coeff)})

    @staticmethod
    def w_gen(config, i):
        return GradedElement.monomial(config, wmask=mask_of([i]))

    @staticmethod
    def s_gen(config, i):
        return GradedElement.monomial(config, sym=(i,))

    @staticmethod
    def a_gen(config, i):
        return GradedElement.monomial(config, amask=mask_of([i]))

    @staticmethod
    def b_gen(config, i):
        return GradedElement.monomial(config, bmask=mask_of([i]))

    # -- linear structure ---------------------------------------------
    def _check(self, other):
        if self.config != other.config:
            raise ValueError("config mismatch")

    def add(self, other) -> "GradedElement":
        self._check(other)
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out.get(k, 0) + c
        return GradedElement(self.config, out, self.truncated or other.truncated)

    def sub(self, other) -> "GradedElement":
        return self.add(other.scale(-1))

    def scale(self, c) -> "GradedElement":
        c = Fraction(c)
        if not c:
            return GradedElement(self.config, {}, self.truncated)
        return GradedElement(self.config, {k: v * c for k, v in self.terms.items()}, self.truncated)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        return (
            isinstance(other, GradedElement)
            and self.config == other.config
            and self.terms == other.terms
        )

    def __hash__(self):
        raise TypeError("GradedElement is not hashable")

    # -- multiplication ------------------------------------------------
    def mul(self, other) -> "GradedElement":
        self._check(other)
        cfg = self.config
        out = {}
        truncated = self.truncated or other.truncated
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                prod = _mul_keys(cfg.m, k1, k2)
                if not prod:
                    truncated = truncated or prod is False
                    continue
                sign, key = prod
                c = c1 * c2
                out[key] = out.get(key, 0) + (c if sign > 0 else -c)
        return GradedElement(cfg, out, truncated)

    # -- inspection -----------------------------------------------------
    def restrict(self, pred) -> "GradedElement":
        return GradedElement(
            self.config, {k: c for k, c in self.terms.items() if pred(k)}, self.truncated
        )

    def __repr__(self):
        if not self.terms:
            return "0"
        bits_str = lambda m: "".join(str(i) for i in bits(m))
        parts = []
        for (w, s, a, b), c in sorted(self.terms.items()):
            word = []
            if w:
                word.append("w" + bits_str(w))
            if s:
                word.append("v" + "".join(str(i) for i in s))
            if a:
                word.append("ā" + bits_str(a))
            if b:
                word.append("ē" + bits_str(b))
            parts.append(f"({c})·" + ("·".join(word) or "1"))
        tail = " [trunc]" if self.truncated else ""
        return " + ".join(parts) + tail


def _mul_keys(m: int, k1, k2):
    """(sign, key) of k1·k2; None if an odd letter repeats, False past degree m."""
    w1, s1, a1, b1 = k1
    w2, s2, a2, b2 = k2
    if w1 & w2 or a1 & a2 or b1 & b2:
        return None
    if len(s1) + len(s2) > m:
        return False
    sign = 1
    # k2's w-letters hop over k1's a- and b-letters
    if (w2.bit_count() & 1) and ((a1.bit_count() + b1.bit_count()) & 1):
        sign = -sign
    # k2's a-letters hop over k1's b-letters
    if (a2.bit_count() & 1) and (b1.bit_count() & 1):
        sign = -sign
    if w1 and w2:
        sign *= shuffle_sign(w1, w2)
    if a1 and a2:
        sign *= shuffle_sign(a1, a2)
    if b1 and b2:
        sign *= shuffle_sign(b1, b2)
    s = tuple(sorted(s1 + s2)) if s1 and s2 else s1 or s2
    return sign, (w1 | w2, s, a1 | a2, b1 | b2)


def sandwich(m: int, left, g: GradedElement, right, coeff, out: dict) -> bool:
    """Add coeff·(left·g·right) into `out` for monomial keys left and right; return
    the truncation flag that monomial(left).mul(g).mul(monomial(right)) would carry."""
    truncated = g.truncated
    for k, c in g.terms.items():
        inner = _mul_keys(m, left, k)
        if not inner:
            truncated = truncated or inner is False
            continue
        outer = _mul_keys(m, inner[1], right)
        if not outer:
            truncated = truncated or outer is False
            continue
        sign, key = outer
        c = coeff * c
        out[key] = out.get(key, 0) + (c if sign == inner[0] else -c)
    return truncated


def interior_product(omega: GradedElement, eta: GradedElement) -> GradedElement:
    """ω ⌟ η: contract the ∧V∨ letters of ω into the ∧V letters of η.

    ě_A acts as the operator composite ι_{ě_{a_1}}∘…∘ι_{ě_{a_k}} (ascending
    index outermost — the same nesting that makes the wedge inclusion into
    the endomorphism algebra a homomorphism), each ι crossing the ΛW factor
    of η; so ⟨ě_A, e_A⟩ = (−1)^{|A|(|A|−1)/2}. Result lives in ΛW ⊗ ∧V.
    """
    if any(k[3] or k[1] for k in omega.terms):
        raise ValueError("left factor must have empty b- and s-slots")
    if any(k[2] or k[1] for k in eta.terms):
        raise ValueError("right factor must have empty a- and s-slots")
    cfg = omega.config
    out = {}
    for (wx, _sx, ax, _bx), cx in omega.terms.items():
        na_odd = ax.bit_count() & 1
        for (wy, _sy, _ay, by), cy in eta.terms.items():
            if ax & ~by or wx & wy:
                continue
            sign = shuffle_sign(wx, wy) * contraction_sign(ax, by)
            if na_odd and (wy.bit_count() & 1):
                sign = -sign
            key = (wx | wy, (), 0, by & ~ax)
            out[key] = out.get(key, 0) + sign * cx * cy
    return GradedElement(cfg, out, omega.truncated or eta.truncated)


# -- bases -------------------------------------------------------------

@lru_cache(maxsize=None)
def sym_words(d: int, m: int):
    """All symmetric words over v_1..v_d of degree 0..m, as sorted tuples."""
    words = []
    for deg in range(m + 1):
        words.extend(combinations_with_replacement(range(1, d + 1), deg))
    return tuple(words)


class Basis:
    """Totally ordered monomial basis of a subspace spanned by `keys`."""

    __slots__ = ("config", "keys", "index")

    def __init__(self, config: ModelConfig, keys):
        self.config = config
        self.keys = tuple(sorted(keys))
        self.index = {k: i for i, k in enumerate(self.keys)}

    @property
    def dim(self) -> int:
        return len(self.keys)

    def element(self, key) -> GradedElement:
        return GradedElement(self.config, {key: 1})

    def truncation_safe_indices(self):
        """Basis positions with symmetric degree < m (one raise stays exact)."""
        return tuple(i for i, k in enumerate(self.keys) if len(k[1]) < self.config.m)


# -- serialization ------------------------------------------------------

def terms_to_json(x: GradedElement):
    """Canonical array-of-terms form; stable ordering for byte-stable output."""
    out = []
    for (w, s, a, b) in sorted(x.terms):
        out.append(
            {
                "w": list(bits(w)),
                "s": list(s),
                "a": list(bits(a)),
                "b": list(bits(b)),
                "c": format_rational(x.terms[(w, s, a, b)]),
            }
        )
    return out


def _index_list(config: ModelConfig, term: dict, slot: str) -> list:
    """The slot's integer indices, range-checked before any mask is built."""
    value = term.get(slot, [])
    if not isinstance(value, list):
        raise ValueError(f"term slot {slot!r} must be a list of integers")
    top = config.e if slot == "w" else config.d
    if any(not 1 <= wire_int(i, f"term slot {slot!r} index") <= top for i in value):
        kind = "symmetric" if slot == "s" else "generator"
        raise ValueError(f"{kind} index out of range")
    return value


def terms_from_json(config: ModelConfig, data) -> GradedElement:
    if not isinstance(data, list):
        raise ValueError("element JSON must be a list of terms")
    acc = GradedElement.zero(config)
    for t in data:
        if not isinstance(t, dict):
            raise ValueError("term must be an object")
        coeff = parse_rational(t.get("c", "1"))
        mono = GradedElement.monomial(
            config,
            wmask=mask_of(_index_list(config, t, "w")),
            sym=tuple(_index_list(config, t, "s")),
            amask=mask_of(_index_list(config, t, "a")),
            bmask=mask_of(_index_list(config, t, "b")),
            coeff=coeff,
        )
        acc = acc.add(mono)
    return acc
