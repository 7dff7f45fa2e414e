"""Generalized Todd class of a curvature input and the contraction
endomorphism q_σ it induces on ΛW ⊗ ∧V.

The class is computed by two independent routes that must agree: the
exponential of Σ_n ρ_n/n, where ρ_n is the trace of the n-th power M^n of
the polarized curvature matrix, and the determinant of the Todd matrix
Σ_n t_n·M^n over the commutative even subalgebra, with t_n the power-series
coefficients of x/(1 − e^{−x}), by Laplace expansion with each minor kept
once by its column bitmask (no division, every d).  Both read one pass of
powers M^0…M^n; the Todd matrix minus the identity gives the generator values
of the perturbing derivation t.  q_σ also comes in two routes:
an element-level series accumulating the perturbed inclusion (−P_GV T)^k i_H
under π_T, and a matrix-level one, π_T ∘ g′_GV with g′_GV the GV
contraction's inclusion perturbed by T = [t, −].  The headline identity
q_σ(η) = Td ⌟ η on ΛW ⊗ ∧^dV is left to the callers/tests; this module only
asserts that both projections kill T's image, which keeps the perturbed
projections and the transferred differential unmoved.

Sign conventions: with B₁ = +1/2, the displayed series ρ_n = −(B_n/n!)·tr
and det(Σ (−1)^n (B_n/n!) Alt^n) disagree with each other and with the
connection recursion at n = 1.  We normalize both routes to the
t_n = [x^n] x/(1 − e^{−x}) coefficients (so ρ₁ = +½·tr), which matches the
measured 𝕂-components.  The ⌟ of the headline identity is the
operator-nested contraction of interior_product, ⟨ě_A, e_A⟩ =
(−1)^{|A|(|A|−1)/2}; under the canonically-ordered determinant pairing
instead, the Λ^{4j+2}/Λ^{4j+3} components of the identity flip sign.
See the README erratum notes.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .algebra import GradedElement, ModelConfig, bits, key_parity, terms_to_json
from .connection import CurvatureInput, matrix_tensor, polarized_powers
from .homcomplex import (
    EndSpace,
    apply_end,
    derivation_tensor,
    end_contractions,
    i_h,
    p_gv,
    pi_t,
    series_bound,
)
from .perturbation import alternating_series, g_series
from .sparse import LinearMap, matrix_of


# -- Bernoulli numbers and the Todd power series ------------------------------

@lru_cache(maxsize=None)
def _bernoulli_sum_convention(n: int) -> Fraction:
    """B_n with B₁ = −1/2, from Σ_{k≤n} C(n+1,k)·B_k = 0."""
    if n == 0:
        return Fraction(1)
    acc = Fraction(0)
    for k in range(n):
        acc += math.comb(n + 1, k) * _bernoulli_sum_convention(k)
    return -acc / (n + 1)


def bernoulli(n: int) -> Fraction:
    """B_n in the B₁ = +1/2 convention (all other values shared)."""
    if n < 0:
        raise ValueError("Bernoulli index must be nonnegative")
    value = _bernoulli_sum_convention(n)
    return -value if n == 1 else value


@lru_cache(maxsize=None)
def todd_series_coeff(n: int) -> Fraction:
    """t_n = [x^n] x/(1 − e^{−x}), by inverting Σ_j (−1)^j x^j/(j+1)!."""
    if n < 0:
        raise ValueError("series index must be nonnegative")
    if n == 0:
        return Fraction(1)
    acc = Fraction(0)
    for j in range(1, n + 1):
        acc += Fraction((-1) ** j, math.factorial(j + 1)) * todd_series_coeff(n - j)
    return -acc


# -- traces and the ρ_n forms --------------------------------------------------

def rho_forms(r: CurvatureInput, cfg: ModelConfig) -> list[GradedElement]:
    """[ρ_1, …, ρ_n], n = min(d, e): ρ_n ∈ Λ^nW ⊗ ∧^nV∨ is the normalized
    trace of Alt[R^{⊗n}] = M^n, all read off one pass of curvature powers.

    The coefficient is −(−1)^n B_n/n! = t_n/n·(n-free part): equal to
    −B_n/n! for even n and to +1/2 at n = 1 (the convention note above).
    ρ_n vanishes for n > min(d, e).
    """
    out = []
    for n, power in enumerate(polarized_powers(r, cfg)[1:], 1):
        trace = GradedElement.zero(cfg)
        for i in range(cfg.d):
            trace = trace.add(power[i][i])
        out.append(trace.scale(-Fraction((-1) ** n) * bernoulli(n) / math.factorial(n)))
    return out


def todd_matrix(powers: list) -> list[list[GradedElement]]:
    """Σ_n t_n·M^n entry by entry, from the curvature powers [M^0, …, M^n]."""
    entries = [list(row) for row in powers[0]]
    for n, power in enumerate(powers[1:], 1):
        coeff = todd_series_coeff(n)
        for i, row in enumerate(power):
            for j, entry in enumerate(row):
                entries[i][j] = entries[i][j].add(entry.scale(coeff))
    return entries


# -- the Todd class, two ways --------------------------------------------------

@dataclass(frozen=True)
class ToddClass:
    """Inhomogeneous class in ⊕_j Λ^jW ⊗ ∧^jV∨ with unit degree-0 part."""

    config: ModelConfig
    value: GradedElement

    def __post_init__(self):
        for (w, s, a, b), c in self.value.terms.items():
            if s or b or w.bit_count() != a.bit_count():
                raise ValueError("Todd class must lie in ⊕_j Λ^jW ⊗ ∧^jV∨")
        if self.component(0) != GradedElement.unit(self.config):
            raise ValueError("Todd class must have degree-0 part 1")

    def component(self, j: int) -> GradedElement:
        return self.value.restrict(lambda k: k[0].bit_count() == j)

    def to_dict(self) -> dict:
        cfg = self.config
        return {"d": cfg.d, "e": cfg.e, "m": cfg.m, "terms": terms_to_json(self.value)}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


def todd_exp(r: CurvatureInput, cfg: ModelConfig) -> ToddClass:
    """exp(Σ_n ρ_n/n) — finite because every ρ_n has positive ΛW degree."""
    log = GradedElement.zero(cfg)
    for n, rho_n in enumerate(rho_forms(r, cfg), 1):
        log = log.add(rho_n.scale(Fraction(1, n)))
    acc = GradedElement.unit(cfg)
    term = GradedElement.unit(cfg)
    for k in range(1, cfg.e + 1):
        term = term.mul(log).scale(Fraction(1, k))
        if term.is_zero():
            break
        acc = acc.add(term)
    return ToddClass(cfg, acc)


def todd_det(r: CurvatureInput, cfg: ModelConfig) -> ToddClass:
    """Determinant of the Todd matrix 1 + Σ_n t_n·(polarized R)^n over ΛW ⊗ ∧V∨, by
    Laplace expansion along the last row with each minor kept once, indexed by its
    column bitmask: O(d·2^d) products and no division, as the even subalgebra needs."""
    entries = todd_matrix(polarized_powers(r, cfg))
    minors = [GradedElement.unit(cfg)]  # minors[S]: the first |S| rows on the columns in S
    for cols in range(1, 1 << cfg.d):
        row = entries[cols.bit_count() - 1]
        minor = GradedElement.zero(cfg)
        for j in bits(cols):  # (−1)^(columns of S after j) is the cofactor sign
            term = row[j - 1].mul(minors[cols ^ (1 << (j - 1))])
            minor = minor.sub(term) if (cols >> j).bit_count() & 1 else minor.add(term)
        minors.append(minor)
    return ToddClass(cfg, minors[-1])


# -- the perturbing derivation t and T = [t, −] --------------------------------

def perturbation_t_value(r: CurvatureInput, cfg: ModelConfig) -> GradedElement:
    """Generator-value tensor Σ_{n≥1} t_n·Alt[R^{⊗n}] of the derivation t:
    the Todd matrix minus the identity, as Σ entry·v_i ⊗ ē_j."""
    powers = polarized_powers(r, cfg)
    return matrix_tensor(cfg, todd_matrix(powers)).sub(matrix_tensor(cfg, powers[0]))


def perturbation_t(r: CurvatureInput, cfg: ModelConfig) -> GradedElement:
    """The odd derivation t of K_Tot with the curvature-power values, as its
    End tensor Σ_j t_j·ι_{e_j}: it acts on x ∈ K_Tot as apply_end(t, x) and
    composes with End tensors by the same product."""
    return derivation_tensor(perturbation_t_value(r, cfg))


def t_commutator(t: GradedElement, f: GradedElement) -> GradedElement:
    """[t, f] = t∘f − (−1)^{|f|} f∘t, the graded commutator of two End tensors.

    Only f∘t carries the sign, so it is taken with a copy of f whose even
    terms are negated.  [t, 0] is an untruncated zero, even for a flagged 0.
    """
    if f.is_zero():
        return GradedElement.zero(f.config)
    signed = GradedElement(
        f.config, {k: c if key_parity(k) else -c for k, c in f.terms.items()}, f.truncated
    )
    return apply_end(t, f).add(apply_end(signed, t))


# -- q_σ, element route ---------------------------------------------------------

def _gv_step(t: GradedElement):
    """x ↦ P_GV [t, x], the step of the q_σ series."""
    return lambda x: p_gv(t_commutator(t, x))


def q_sigma_step(eta: GradedElement, t: GradedElement) -> GradedElement:
    """One series step −π_T P_GV [t, i_H(η)] ∈ ΛW ⊗ ∧V."""
    return pi_t(_gv_step(t)(i_h(eta))).scale(-1)


def q_sigma(r: CurvatureInput, cfg: ModelConfig, eta: GradedElement, t=None) -> GradedElement:
    """q_σ(η) = π_T Σ_{k≥0} (−P_GV T)^k i_H(η), for η ∈ ΛW ⊗ ∧V.

    The perturbed inclusion is accumulated at the End level and projected
    once at the end (π_T is linear).  Re-including π_T of each partial term
    instead (the naive reading of the iterated single-step display) drops
    the homotopy-exact remainder that later steps still feed on, and
    measurably changes the answer.  Each step wedges at least one ΛW letter
    in, so the series stops after at most e steps; the hard bound only
    trips on an implementation bug.
    """
    if t is None:
        t = perturbation_t(r, cfg)
    return pi_t(alternating_series(i_h(eta), _gv_step(t), series_bound(cfg), "q_sigma"))


# -- q_σ, matrix route -----------------------------------------------------------

def perturbed_contractions(r: CurvatureInput, cfg: ModelConfig) -> LinearMap:
    """The q_σ matrix π_T ∘ g′_GV on ΛW ⊗ ∧V, with g′_GV the GV inclusion
    perturbed by T = [t, −].

    t raises symmetric degree by one, so π_T∘T = π_GV∘T = 0, checked on the
    nose; then f′ = f − f T h′ = f and d_a′ = f T g′ = 0 for both contractions,
    and neither full transfer is summed.  No square-zero validation is run:
    (d_K + t)² need not vanish in the model, which is precisely the flatness
    defect the connection module records.
    """
    t = perturbation_t(r, cfg)
    t_mat = matrix_of(lambda f: t_commutator(t, f), EndSpace(cfg), allow_truncation=True)
    base_t, base_gv = end_contractions(cfg)
    if not base_t.f.compose(t_mat).is_zero() or not base_gv.f.compose(t_mat).is_zero():
        raise ValueError("perturbed projection moved — T must have positive order")
    return base_t.f.compose(g_series(base_gv, t_mat, series_bound(cfg)))
