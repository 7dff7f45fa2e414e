"""Koszul complex K = Ŝ(V∨) ⊗ ∧V∨, its dual Ǩ = Ŝ(V∨) ⊗ ∧V, and their
contraction data, globalized over Λ(W).

K carries d_K (wedge → symmetric) with homotopy P_K = P̃_K/(k+l); Ǩ carries
d_Ǩ (adds a symmetric/wedge generator pair, leading minus) with homotopy
P_Ǩ scaled by 1/(l+d−k). Projections/inclusions hit the ΛW bottom of K and
the ΛW ⊗ ∧^dV socle of Ǩ. Every operator here anticommutes with left
multiplication by odd ΛW elements — the (−1)^q in each formula; the raw
q-free kernels are exported separately for the endomorphism complex, which
dresses them with its own sign.

All symmetric-degree-raising maps truncate above m and set the sticky flag;
contraction identities are only claimed on truncation-safe inputs.
"""

from .algebra import Basis, GradedElement, ModelConfig, _eps, bits, contraction_sign, sym_words


def _below(mask: int, i: int) -> int:
    return (mask & ((1 << (i - 1)) - 1)).bit_count()


# -- term kernels (b-slot spectator, no ΛW sign) -------------------------

def _dk_terms(cfg, key, c, out):
    """Σ_j v_j ⊗ ι-removal over the a-slot; returns truncation loss."""
    w, s, a, b = key
    if not a:
        return False
    if len(s) + 1 > cfg.m:
        return True
    for j in bits(a):
        sign = -1 if _below(a, j) & 1 else 1
        k2 = (w, tuple(sorted(s + (j,))), a & ~(1 << (j - 1)), b)
        out[k2] = out.get(k2, 0) + sign * c
    return False


def _pk_tilde_terms(cfg, key, c, out):
    """Derivation sending v_j ↦ v̄_j over the symmetric slot."""
    w, s, a, b = key
    for j in set(s):
        if a & (1 << (j - 1)):
            continue
        sign = -1 if _below(a, j) & 1 else 1
        rem = list(s)
        rem.remove(j)
        k2 = (w, tuple(rem), a | (1 << (j - 1)), b)
        out[k2] = out.get(k2, 0) + sign * s.count(j) * c


def _dk_check_terms(cfg, key, c, out):
    """−Σ_i v_i ⊗ ē_i∧(−) over the b-slot; returns truncation loss."""
    w, s, a, b = key
    if len(s) + 1 > cfg.m:
        return b != cfg.full_b
    for i in range(1, cfg.d + 1):
        bit = 1 << (i - 1)
        if b & bit:
            continue
        sign = 1 if _below(b, i) & 1 else -1
        k2 = (w, tuple(sorted(s + (i,))), a, b | bit)
        out[k2] = out.get(k2, 0) + sign * c
    return False


def _pk_check_terms(cfg, key, c, out):
    """(1/(l+d−k)) Σ_{i∈s∩B} (−1)^{pos_B(i)} removal of the v_i/ē_i pair."""
    w, s, a, b = key
    denom = len(s) + cfg.d - b.bit_count()
    if denom <= 0:
        return
    for i in set(s):
        bit = 1 << (i - 1)
        if not b & bit:
            continue
        sign = -1 if (_below(b, i) + 1) & 1 else 1
        rem = list(s)
        rem.remove(i)
        k2 = (w, tuple(rem), a, b & ~bit)
        out[k2] = out.get(k2, 0) + (sign * s.count(i) * c) / denom


def _wsign(key) -> int:
    return -1 if key[0].bit_count() & 1 else 1


def _apply(x, kernel, sign=_wsign):
    """Run a term kernel over x, each coefficient multiplied by sign(key)."""
    out = {}
    truncated = x.truncated
    for key, c in x.terms.items():
        if kernel(x.config, key, c * sign(key), out):
            truncated = True
    return GradedElement(x.config, out, truncated)


def _require_empty(x, slot: int, name: str):
    if any(k[slot] for k in x.terms):
        raise ValueError(f"{name} must be empty")


# -- public ops on K ------------------------------------------------------

def d_k(x: GradedElement) -> GradedElement:
    """d_K: v̄_j ↦ v_j derivation; square zero, sym degree +1, wedge −1."""
    _require_empty(x, 3, "bMask")
    return d_k_tensor(x)


def p_k_tilde(x: GradedElement) -> GradedElement:
    """P̃_K: v_j ↦ v̄_j derivation; [P̃_K, d_K] = (k+l)·Id on S^l⊗∧^k."""
    _require_empty(x, 3, "bMask")
    return _apply(x, _pk_tilde_terms)


def p_k(x: GradedElement) -> GradedElement:
    """P_K = P̃_K/(k+l) per bidegree, 0 on S⁰⊗∧⁰."""
    _require_empty(x, 3, "bMask")
    return p_k_tensor(x)


def pi_k(x: GradedElement) -> GradedElement:
    """Constant-term projection onto ΛW ⊂ K_Tot."""
    _require_empty(x, 3, "bMask")
    return x.restrict(lambda k: not k[1] and not k[2])


def i_k(x: GradedElement) -> GradedElement:
    """Inclusion ΛW → K_Tot (identity on keys)."""
    _require_empty(x, 1, "symIndex")
    _require_empty(x, 2, "aMask")
    _require_empty(x, 3, "bMask")
    return GradedElement(x.config, x.terms, x.truncated)


# -- tensor extensions (b-slot spectator), used by the endomorphism complex

def d_k_tensor(x: GradedElement) -> GradedElement:
    """d_K ⊗ 1 on K ⊗ ∧V: the a-slot derivation with the b-slot inert."""
    return _apply(x, _dk_terms)


def p_k_tensor(x: GradedElement) -> GradedElement:
    """P_K ⊗ 1: prefactor 1/(k+l) from the K-side bidegree (|a|, sym) only."""
    out = {}
    for key, c in x.terms.items():
        kl = len(key[1]) + key[2].bit_count()
        if kl:
            _pk_tilde_terms(x.config, key, c * _wsign(key) / kl, out)
    return GradedElement(x.config, out, x.truncated)


# -- public ops on Ǩ ------------------------------------------------------

def d_k_check(x: GradedElement) -> GradedElement:
    """d_Ǩ = −Σ_i v_i ⊗ ē_i∧(−), signed by (−1)^q on ΛW."""
    _require_empty(x, 2, "aMask")
    return _apply(x, _dk_check_terms)


def p_k_check(x: GradedElement) -> GradedElement:
    """P_Ǩ with prefactor 1/(l+d−k), zero when l+d−k ≤ 0; signed by (−1)^q."""
    _require_empty(x, 2, "aMask")
    return _apply(x, _pk_check_terms)


def pi_k_check(x: GradedElement) -> GradedElement:
    """Projection onto the symIndex-empty part of ΛW ⊗ ∧^dV."""
    _require_empty(x, 2, "aMask")
    full = x.config.full_b
    return x.restrict(lambda k: not k[1] and k[3] == full)


def i_k_check(x: GradedElement) -> GradedElement:
    """Inclusion ΛW ⊗ ∧^dV → Ǩ (identity on keys)."""
    _require_empty(x, 1, "symIndex")
    _require_empty(x, 2, "aMask")
    full = x.config.full_b
    if any(k[3] != full for k in x.terms):
        raise ValueError("expected full ∧V wedge")
    return GradedElement(x.config, x.terms, x.truncated)


# -- twist isomorphism Ǩ ≅ K ⊗ ∧^d V -------------------------------------

def _socle_sign(cfg, bmask: int) -> int:
    """σ with ě_{Bᶜ} ⌟ ē_{[d]} = σ·ē_B (ascending-innermost contraction)."""
    rest = cfg.full_b & ~bmask
    return contraction_sign(rest, cfg.full_b) * _eps(rest)


def twist(x: GradedElement) -> GradedElement:
    """Ǩ → K ⊗ ∧^dV: ē_B ↦ σ(B)·v̄_{Bᶜ} ⊗ ē_{[d]}."""
    _require_empty(x, 2, "aMask")
    cfg = x.config
    out = {}
    for (w, s, _a, b), c in x.terms.items():
        out[(w, s, cfg.full_b & ~b, cfg.full_b)] = c * _socle_sign(cfg, b)
    return GradedElement(cfg, out, x.truncated)


def untwist(x: GradedElement) -> GradedElement:
    cfg = x.config
    if any(k[3] != cfg.full_b for k in x.terms):
        raise ValueError("expected full ∧V wedge")
    out = {}
    for (w, s, a, _b), c in x.terms.items():
        b = cfg.full_b & ~a
        out[(w, s, 0, b)] = c * _socle_sign(cfg, b)
    return GradedElement(cfg, out, x.truncated)


# -- bases ----------------------------------------------------------------

def KoszulSpace(config: ModelConfig) -> Basis:
    """Basis of K_Tot = ΛW ⊗ S^{≤m}(V∨) ⊗ ∧V∨ (b empty)."""
    return Basis(config, (
        (w, s, a, 0)
        for w in range(1 << config.e)
        for s in sym_words(config.d, config.m)
        for a in range(1 << config.d)
    ))


def CheckSpace(config: ModelConfig) -> Basis:
    """Basis of Ǩ_Tot = ΛW ⊗ S^{≤m}(V∨) ⊗ ∧V (a empty)."""
    return Basis(config, (
        (w, s, 0, b)
        for w in range(1 << config.e)
        for s in sym_words(config.d, config.m)
        for b in range(1 << config.d)
    ))
