"""Endomorphism complex of K_Tot in tensor form ΛW ⊗ Ŝ ⊗ ∧V∨ ⊗ ∧V.

A monomial (w, s, A, B) is the Ŝ⊗ΛW-linear operator sending x = v̄_B·(rest)
to ±(w·s·v̄_A)·(rest): the ∧V slot is a dual functional on the ∧V∨ slot of
the operand, paired strictly (block B against block B, ⟨ē_B, v̄_B⟩ =
(−1)^{β(β−1)/2} for ascending words — the sign that makes the diagonal sum
Σ_C ε_C v̄_C⊗ē_C the identity). `apply_end` is the product of the End
algebra, and on an operand in K_Tot (empty ∧V slot) it is the action;
`tensorize` inverts the action column-by-column over the 2^d wedge
monomials.  Operators are only ever End tensors: the inclusion i_H and
every Ŝ-linear wedge derivation Σ_j g_j·ι_{e_j} are written down directly
as products w·s·v̄_A ∘ ι_{e_U}, with no operator to probe.

The differential is d_Hom = d_K⊗1 + δ·(1⊗d_Ǩ) with δ = (−1)^{q+α} read off
each monomial; both halves reuse the koszul term kernels. Two homotopy
series P_T and P_GV contract End onto ΛW ⊗ ∧V through π_T (constant term
of the Hom(−, K⁰) column) and π_GV (constant term of the Hom(K^{−d}, −)
row, re-read through the socle pairing). Every series here terminates
because each double step moves the ∧V degree strictly monotonically; the
hard iteration bound (m+1)(d+1)(e+1) only trips on an implementation bug.
"""

import functools

from .algebra import Basis, GradedElement, ModelConfig, _eps, contraction_sign, shuffle_sign, sym_words
from .koszul import _apply, _dk_check_terms, _pk_check_terms, d_k_tensor, p_k_tensor
from .perturbation import Contraction, alternating_series
from .sparse import LinearMap, matrix_of


def _delta(key) -> int:
    """Sign of the 1⊗d_Ǩ half of d_Hom on this monomial."""
    w, _s, a, _b = key
    return -1 if (w.bit_count() + a.bit_count()) & 1 else 1


def series_bound(cfg: ModelConfig) -> int:
    return (cfg.m + 1) * (cfg.d + 1) * (cfg.e + 1)


# -- tensor <-> operator dictionary ----------------------------------------

def apply_end(f: GradedElement, g: GradedElement) -> GradedElement:
    """The End product f∘g; on g ∈ K_Tot (empty ∧V slot) it is f's action.

    f's term (w, s, A, B) meets the g terms with ∧V∨ slot B, grouped once per
    call, and the product keeps g's ∧V slot, so K_Tot maps to K_Tot.  cf·ε_B
    is formed once per f term and each pair's sign picks add or subtract, so
    a matching pair costs one product.
    """
    if f.config != g.config:
        raise ValueError("config mismatch")
    cfg = f.config
    by_slot = {}
    for key, c in g.terms.items():
        by_slot.setdefault(key[2], []).append((key, c))
    out = {}
    truncated = f.truncated or g.truncated
    for (wf, sf, A, B), cf in f.terms.items():
        matches = by_slot.get(B)
        if not matches:
            continue
        base = cf * _eps(B)
        crossing_odd = (B.bit_count() + A.bit_count()) & 1
        for (wg, sg, _c, D), cg in matches:
            if wf & wg:
                continue
            if len(sf) + len(sg) > cfg.m:
                truncated = True
                continue
            negative = shuffle_sign(wf, wg) < 0
            if crossing_odd and wg.bit_count() & 1:
                # ē_B and then the residual v̄_A both cross g's ΛW word
                negative = not negative
            key = (wf | wg, tuple(sorted(sf + sg)), A, D)
            c = base * cg
            acc = out.get(key, 0)
            out[key] = acc - c if negative else acc + c
    return GradedElement(cfg, out, truncated)


def tensorize(op, cfg: ModelConfig) -> GradedElement:
    """Tensor form of an Ŝ⊗ΛW-linear operator, probed on the v̄_C columns."""
    out = {}
    truncated = False
    for c_mask in range(1 << cfg.d):
        y = op(GradedElement(cfg, {(0, (), c_mask, 0): 1}))
        truncated = truncated or y.truncated
        eps = _eps(c_mask)
        for (w, s, a, b), c in y.terms.items():
            if b:
                raise ValueError("operator image must lie in K_Tot")
            key = (w, s, a, c_mask)
            out[key] = out.get(key, 0) + eps * c
    return GradedElement(cfg, out, truncated)


def matrix_callable(M: LinearMap, space: Basis):
    """Wrap a K_Tot matrix as a GradedElement endo-function."""

    def op(x: GradedElement) -> GradedElement:
        vec = {space.index[k]: c for k, c in x.terms.items()}
        out = M.apply(vec)
        return GradedElement(space.config, {space.keys[i]: c for i, c in out.items()}, x.truncated)

    return op


def identity_end(cfg: ModelConfig) -> GradedElement:
    """The diagonal idempotent Σ_C ε_C v̄_C ⊗ ē_C."""
    return GradedElement(cfg, {(0, (), c, c): _eps(c) for c in range(1 << cfg.d)})


# -- differential and homotopies -------------------------------------------

def d_check_end(f: GradedElement) -> GradedElement:
    """The 1⊗d_Ǩ half of d_Hom: the dual-differential kernel signed by δ."""
    return _apply(f, _dk_check_terms, _delta)


def d_hom(f: GradedElement) -> GradedElement:
    """d_Hom = d_K⊗1 + δ·(1⊗d_Ǩ); square-zero; matches [d_K, −] via apply_end."""
    return d_k_tensor(f).add(d_check_end(f))


def p_check_end(f: GradedElement) -> GradedElement:
    """δ·(1⊗P_Ǩ) on tensors."""
    return _apply(f, _pk_check_terms, _delta)


def _pk_dcheck_step(term: GradedElement) -> GradedElement:
    return p_k_tensor(d_check_end(term))


def p_t(f: GradedElement) -> GradedElement:
    """P_T = Σ_i (−1)^i P_K (δd_Ǩ P_K)^i — each step raises ∧V degree."""
    return alternating_series(p_k_tensor(f), _pk_dcheck_step, series_bound(f.config), "P_T")


def p_gv(f: GradedElement) -> GradedElement:
    """P_GV = Σ_i (−1)^i δP_Ǩ (d_K δP_Ǩ)^i — each step lowers ∧V degree."""
    return alternating_series(
        p_check_end(f), lambda t: p_check_end(d_k_tensor(t)), series_bound(f.config), "P_GV"
    )


# -- projections, inclusion, residue ----------------------------------------

def pi_t(f: GradedElement) -> GradedElement:
    """Constant term of the Hom(−, K⁰) column, read in ΛW ⊗ ∧V."""
    return f.restrict(lambda k: not k[1] and not k[2])


def pi_gv(f: GradedElement) -> GradedElement:
    """Constant term of the Hom(K^{−d}, −) row, re-read via the socle pairing."""
    cfg = f.config
    full = cfg.full_b
    out = {}
    for (w, s, a, b), c in f.terms.items():
        if s or b != full:
            continue
        key = (w, (), 0, full & ~a)
        out[key] = out.get(key, 0) + contraction_sign(a, full) * c
    return GradedElement(cfg, out, f.truncated)


def _times_iota(x: GradedElement) -> GradedElement:
    """Σ c·(w, s, A, U) ↦ Σ c·w·s·v̄_A ∘ ι_{e_{u₁}}∘…∘ι_{e_{u_k}} in End, u ascending.

    On the v̄_C columns with C ⊇ U and A disjoint from C∖U this is the key
    (w, s, A ∪ C∖U, C) with sign ε_C·contraction_sign(U, C)·shuffle_sign(A, C∖U),
    written down directly; x's truncation flag is kept.
    """
    cfg = x.config
    out = {}
    for (w, s, a, u), c in x.terms.items():
        for C in range(1 << cfg.d):
            rest = C & ~u
            if C & u == u and not a & rest:
                key = (w, s, a | rest, C)
                out[key] = out.get(key, 0) + _eps(C) * contraction_sign(u, C) * shuffle_sign(a, rest) * c
    return GradedElement(cfg, out, x.truncated)


def i_h(omega: GradedElement) -> GradedElement:
    """Algebra map ΛW⊗∧V → End: ω ↦ L_ω ∘ (ι_{e_{u₁}}∘…∘ι_{e_{u_k}}), u ascending."""
    if any(k[1] or k[2] for k in omega.terms):
        raise ValueError("argument must lie in ΛW ⊗ ∧V")
    return _times_iota(omega)


def r_residue(f: GradedElement) -> GradedElement:
    """r = Σ_i (−1)^i (P_K δd_Ǩ)^i Res — coincides with i_H∘π_T.

    The step homotopy must be the single P_K⊗1, not the full P_T series:
    with P_T the top ∧V∨⊗∧V blocks come out doubled and the identity
    fails from d = 2 on (checked both ways).
    """
    return alternating_series(pi_t(f), _pk_dcheck_step, series_bound(f.config), "residue")


# -- the two contractions as matrices --------------------------------------

def end_contractions(cfg: ModelConfig) -> tuple[Contraction, Contraction]:
    """(T, GV) contractions of End onto ΛW ⊗ ∧V; both share d_b = d_Hom and g = i_H."""
    end_space, wedge_space = EndSpace(cfg), WedgeSpace(cfg)
    d_mat = matrix_of(d_hom, end_space, allow_truncation=True)
    zero = LinearMap.zero(wedge_space.dim, wedge_space.dim)
    inclusion = matrix_of(i_h, wedge_space, end_space)

    def contraction(pi, p) -> Contraction:
        return Contraction(
            d_b=d_mat,
            d_a=zero,
            f=matrix_of(pi, end_space, wedge_space),
            g=inclusion,
            h=matrix_of(p, end_space, allow_truncation=True),
        )

    return contraction(pi_t, p_t), contraction(pi_gv, p_gv)


# -- derivations -------------------------------------------------------------

def derivation_tensor(g: GradedElement) -> GradedElement:
    """End tensor Σ_j g_j·ι_{e_j} of the Ŝ-linear derivation of K_Tot with
    generator values g = Σ_j g_j ⊗ ē_j in ΛW ⊗ Ŝ ⊗ ∧V∨ ⊗ V.

    A term (w, s, A, {j}) contributes w·s·v̄_A to D(v̄_j), and D is zero on Ŝ
    and ΛW.  Each term carries its own parity, so g need not be homogeneous.
    """
    if any(k[3].bit_count() != 1 for k in g.terms):
        raise ValueError("generator slot must be a single ∧V letter")
    return _times_iota(g)


def extend_derivation(g: GradedElement):
    """The derivation with generator values g, acting through apply_end."""
    return functools.partial(apply_end, derivation_tensor(g))


# -- bases ---------------------------------------------------------------

def EndSpace(config: ModelConfig) -> Basis:
    """Basis of the full four-slot tensor space."""
    return Basis(config, (
        (w, s, a, b)
        for w in range(1 << config.e)
        for s in sym_words(config.d, config.m)
        for a in range(1 << config.d)
        for b in range(1 << config.d)
    ))


def WedgeSpace(config: ModelConfig) -> Basis:
    """Basis of ΛW ⊗ ∧V (the contraction target)."""
    return Basis(config, (
        (w, (), 0, b)
        for w in range(1 << config.e)
        for b in range(1 << config.d)
    ))
