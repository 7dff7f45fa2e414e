"""Recursive construction of the ℤ-connection on the truncated Koszul module.

The single input is a constant-coefficient curvature tensor R ∈ W ⊗ S²V∨ ⊗ V.
Component zero is d_K; component one is the sum of the symmetric-slot
derivation R̃ (v_k ↦ R(v_k)) and the wedge-slot derivation R̄ = ½·(polarized
R); components two and up come out of the homotopy recursion

    𝕂^{n+1} = P_T( −Σ_{i=1}^{n} 𝕂^i 𝕂^{n+1−i} )

applied to the wedge-generator values of the bracket.  R̄ and every component
from two on is a wedge derivation: its values g = Σ_j g_j ⊗ ē_j become the
End tensor Σ_j g_j·ι_{e_j}, which acts through apply_end (extend_derivation).
The recursion lives in derivations, so P_T enters through its derivation
part P_K ⊗ 1, the homotopy K ⊗ V carries.  P_T's other terms have two or
more letters in the generator slot, which no derivation has; on the bracket
values they were zero at every d <= 2 config measured and appear from d = 3
on.  The square-zero defect of each bracket is recorded on the result instead
of raised: with constant coefficients R̃² need not vanish, and the coefficient
claims about the components hold regardless — keeping the defect as data lets
callers inspect exactly which degrees fail while everything downstream still
runs.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping

from .algebra import GradedElement, ModelConfig, sandwich
from .homcomplex import extend_derivation
from .koszul import d_k, p_k_tensor
from .rational import format_rational, load_json, parse_rational, wire_field, wire_int
from .rng import SplitRng

Operator = Callable[[GradedElement], GradedElement]


# -- curvature input ----------------------------------------------------------

@dataclass(frozen=True, eq=True)
class CurvatureInput:
    """Sparse R ∈ W ⊗ S²V∨ ⊗ V: (w, i, j, k) ↦ coefficient, i ≤ j."""

    d: int
    e: int
    entries: tuple  # sorted ((w, i, j, k), Fraction) pairs

    def __post_init__(self):
        if self.d < 1 or self.e < 1:
            raise ValueError("d and e must be positive")
        seen = set()
        for key, c in self.entries:
            w, i, j, k = key
            if not (1 <= w <= self.e and 1 <= i <= j <= self.d and 1 <= k <= self.d):
                raise ValueError(f"entry {key} out of range (need i ≤ j)")
            if key in seen:
                raise ValueError(f"duplicate entry {key}")
            if not isinstance(c, Fraction) or c == 0:
                raise ValueError(f"entry {key} must carry a nonzero Fraction")
            seen.add(key)

    @staticmethod
    def make(d: int, e: int, coeffs: Mapping[tuple, Fraction]) -> "CurvatureInput":
        entries = tuple(sorted((k, Fraction(v)) for k, v in coeffs.items() if v))
        return CurvatureInput(d, e, entries)

    @staticmethod
    def zero(d: int, e: int) -> "CurvatureInput":
        return CurvatureInput(d, e, ())

    def is_zero(self) -> bool:
        return not self.entries

    def to_json(self) -> str:
        items = [
            {"w": k[0], "i": k[1], "j": k[2], "k": k[3], "c": format_rational(c)}
            for k, c in self.entries
        ]
        return json.dumps({"d": self.d, "e": self.e, "entries": items}, indent=2)

    @staticmethod
    def from_json(text: str) -> "CurvatureInput":
        data = load_json(text)
        if not isinstance(data, dict) or not isinstance(data.get("entries"), list):
            raise ValueError("curvature JSON must be an object with an 'entries' list")
        coeffs = {}
        for item in data["entries"]:
            if not isinstance(item, dict):
                raise ValueError("curvature entry must be an object")
            key = tuple(wire_field(item, "curvature entry", field, wire_int) for field in "wijk")
            if key in coeffs:
                raise ValueError(f"duplicate entry {key}")
            coeffs[key] = parse_rational(wire_field(item, "curvature entry", "c"))
        d, e = (wire_field(data, "curvature", field, wire_int) for field in "de")
        return CurvatureInput.make(d, e, coeffs)


def random_curvature(rng: SplitRng, d: int, e: int) -> CurvatureInput:
    coeffs = {}
    for w in range(1, e + 1):
        for i in range(1, d + 1):
            for j in range(i, d + 1):
                for k in range(1, d + 1):
                    c = rng.maybe_zero_fraction()
                    if c:
                        coeffs[(w, i, j, k)] = c
    return CurvatureInput.make(d, e, coeffs)


# -- the two faces of R -------------------------------------------------------

def sym_generator_values(r: CurvatureInput, cfg: ModelConfig) -> dict[int, GradedElement]:
    """R̃'s values on the symmetric generators: v_k ↦ Σ c·w ⊗ v_i v_j."""
    vals = {k: GradedElement.zero(cfg) for k in range(1, cfg.d + 1)}
    for (w, i, j, k), c in r.entries:
        vals[k] = vals[k].add(
            GradedElement.monomial(cfg, 1 << (w - 1), (i, j), 0, 0).scale(c)
        )
    return vals


def wedge_generator_value(r: CurvatureInput, cfg: ModelConfig) -> GradedElement:
    """R̄ = ½·(polarized R) on the wedge generators, as a ⊗V-marked tensor.

    v̄_k ↦ ½ Σ c·w ⊗ (v_i v̄_j + v_j v̄_i); the diagonal i = j polarizes to a
    single term with full weight.
    """
    acc = GradedElement.zero(cfg)
    for (w, i, j, k), c in r.entries:
        wm, b = 1 << (w - 1), 1 << (k - 1)
        if i == j:
            acc = acc.add(GradedElement.monomial(cfg, wm, (i,), 1 << (j - 1), b).scale(c))
        else:
            half = c / 2
            acc = acc.add(GradedElement.monomial(cfg, wm, (i,), 1 << (j - 1), b).scale(half))
            acc = acc.add(GradedElement.monomial(cfg, wm, (j,), 1 << (i - 1), b).scale(half))
    return acc


def extend_sym_derivation(values: dict[int, GradedElement], cfg: ModelConfig) -> Operator:
    """Odd derivation with the given values on symmetric generators, zero on
    wedge generators and on ΛW."""

    def op(x: GradedElement) -> GradedElement:
        if x.config != cfg:
            raise ValueError("config mismatch")
        if any(k[3] for k in x.terms):
            raise ValueError("operand must lie in K_Tot (empty ∧V slot)")
        out = {}
        truncated = x.truncated
        for (w, s, a, b), c in x.terms.items():
            coeff = -c if w.bit_count() & 1 else c
            for t, letter in enumerate(s):
                g = values.get(letter)
                if g is not None and not g.is_zero():
                    left, right = (w, s[:t] + s[t + 1:], 0, 0), (0, (), a, b)
                    truncated = sandwich(cfg.m, left, g, right, coeff, out) or truncated
        return GradedElement(cfg, out, truncated)

    return op


def r_tilde_op(r: CurvatureInput, cfg: ModelConfig) -> Operator:
    return extend_sym_derivation(sym_generator_values(r, cfg), cfg)


def r_bar_op(r: CurvatureInput, cfg: ModelConfig) -> Operator:
    return extend_derivation(wedge_generator_value(r, cfg))


def k1(r: CurvatureInput, cfg: ModelConfig) -> Operator:
    """𝕂¹ = R̃ + R̄ (the model has no ∂̄ term)."""
    rt, rb = r_tilde_op(r, cfg), r_bar_op(r, cfg)
    return lambda x: rt(x).add(rb(x))


# -- the recursion ------------------------------------------------------------

@dataclass
class ConnectionComponents:
    config: ModelConfig
    components: list  # Operator per order, index 0 = d_K
    generator_values: list  # GradedElement | None per order (None where not Ŝ-linear)
    closure_defects: list  # GradedElement per recursion step (order ≥ 2)

    @property
    def max_order(self) -> int:
        return len(self.components) - 1

    def tail(self, x: GradedElement) -> GradedElement:
        """Σ_{k≥1} 𝕂^k — the connection minus its weight-zero part."""
        out = GradedElement.zero(self.config)
        for op in self.components[1:]:
            out = out.add(op(x))
        return out


def _bracket_values(cc: ConnectionComponents, n: int) -> tuple[GradedElement, GradedElement]:
    """(τ_D, defect) for D = −Σ_{i=1}^{n} 𝕂^i 𝕂^{n+1−i}.

    τ_D collects the wedge-generator values D(v̄_j) ⊗ ē_j; the defect collects
    d_K(D(v̄_j)) − D(v_j) ⊗ ē_j, the generator values of [d_K, D] (D is even).
    """
    cfg = cc.config
    tau = GradedElement.zero(cfg)
    defect = GradedElement.zero(cfg)
    for j in range(1, cfg.d + 1):
        vbar = GradedElement.a_gen(cfg, j)
        v = GradedElement.s_gen(cfg, j)
        marker = GradedElement.b_gen(cfg, j)
        dv_bar = GradedElement.zero(cfg)
        dv = GradedElement.zero(cfg)
        for i in range(1, n + 1):
            dv_bar = dv_bar.sub(cc.components[i](cc.components[n + 1 - i](vbar)))
            dv = dv.sub(cc.components[i](cc.components[n + 1 - i](v)))
        tau = tau.add(dv_bar.mul(marker))
        defect = defect.add(d_k(dv_bar).sub(dv).mul(marker))
    return tau, defect


def next_component(cc: ConnectionComponents) -> tuple[Operator, GradedElement, GradedElement]:
    """(𝕂^{n+1} operator, its generator value (P_K ⊗ 1)(τ_D), the closure defect)."""
    n = cc.max_order
    tau, defect = _bracket_values(cc, n)
    g = p_k_tensor(tau)
    return extend_derivation(g), g, defect


def build_connection(r: CurvatureInput, cfg: ModelConfig, max_order: int) -> ConnectionComponents:
    if cfg.d != r.d or cfg.e != r.e:
        raise ValueError("config and curvature dimensions disagree")
    if max_order < 0 or max_order > r.e:
        raise ValueError("max_order must lie in 0..e (higher orders vanish)")
    dk_value = GradedElement.zero(cfg)
    for j in range(1, cfg.d + 1):
        dk_value = dk_value.add(GradedElement.s_gen(cfg, j).mul(GradedElement.b_gen(cfg, j)))
    cc = ConnectionComponents(
        config=cfg,
        components=[d_k],
        generator_values=[dk_value],
        closure_defects=[],
    )
    if max_order >= 1:
        cc.components.append(k1(r, cfg))
        cc.generator_values.append(None)  # R̃ part acts on Ŝ, not wedge-generated
    while cc.max_order < max_order:
        op, g, defect = next_component(cc)
        cc.components.append(op)
        cc.generator_values.append(g)
        cc.closure_defects.append(defect)
    return cc


def square_sums(cc: ConnectionComponents) -> list:
    """Nonzero integrability sums Σ_{i+j=n} 𝕂^i 𝕂^j (i, j ≥ 0) on the generators.

    Returns (tag, n, sum) for every generator, tagged "v" (v_k) or "vbar"
    (v̄_k), and every order 1 ≤ n ≤ 2·max_order whose sum is nonzero.  An
    order where some cell 𝕂^i 𝕂^j truncates is skipped: its sum is not exact.
    """
    cfg, mo = cc.config, cc.max_order
    gens = [("v", GradedElement.s_gen(cfg, k)) for k in range(1, cfg.d + 1)]
    gens += [("vbar", GradedElement.a_gen(cfg, k)) for k in range(1, cfg.d + 1)]
    out = []
    for tag, gen in gens:
        for n in range(1, 2 * mo + 1):
            acc = GradedElement.zero(cfg)
            for i in range(max(0, n - mo), min(mo, n) + 1):
                y = cc.components[n - i](gen)
                if y.truncated:
                    break
                z = cc.components[i](y)
                if z.truncated:
                    break
                acc = acc.add(z)
            else:
                if not acc.is_zero():
                    out.append((tag, n, acc))
    return out


def first_order_part(g: GradedElement, k: int) -> GradedElement:
    """Component of a generator value in Λ^kW ⊗ S^{≤1}V∨ ⊗ ∧^kV∨ ⊗ V."""
    return g.restrict(
        lambda key: key[0].bit_count() == k and len(key[1]) <= 1 and key[2].bit_count() == k
    )


# -- antisymmetrized curvature powers ----------------------------------------

def _polarized_matrix(r: CurvatureInput, cfg: ModelConfig) -> list[list[GradedElement]]:
    """R as a d×d matrix over the even subalgebra ΛW ⊗ ∧V∨.

    Entry (out j, in k) = Σ c̃ · w∧ā_i where R(v_k) polarizes to Σ c̃ v_i ⊗ v_j
    with multiplicity (v_iv_j ↦ v_i⊗v_j + v_j⊗v_i, so the diagonal doubles);
    the N∨ slot i becomes a wedge factor, the End slot j indexes the matrix.
    """
    mat = [[GradedElement.zero(cfg) for _ in range(cfg.d)] for _ in range(cfg.d)]
    for (w, i, j, k), c in r.entries:
        wm = 1 << (w - 1)
        pairs = [(i, j, 2 * c)] if i == j else [(i, j, c), (j, i, c)]
        for slot, out, coeff in pairs:
            mono = GradedElement.monomial(cfg, wm, (), 1 << (slot - 1), 0).scale(coeff)
            mat[out - 1][k - 1] = mat[out - 1][k - 1].add(mono)
    return mat


def polarized_powers(r: CurvatureInput, cfg: ModelConfig) -> list[list[list[GradedElement]]]:
    """[M^0, …, M^n] for the polarized matrix M, n = min(d, e), in one pass.

    Each power is d×d entries over ΛW ⊗ ∧V∨, with M⁰ = 1.  The entries of M^k
    lie in Λ^kW ⊗ ∧^kV∨, so every power beyond n is zero.
    """
    mat = _polarized_matrix(r, cfg)
    d = cfg.d
    power = [
        [GradedElement.unit(cfg) if i == j else GradedElement.zero(cfg) for j in range(d)]
        for i in range(d)
    ]
    powers = [power]
    for _ in range(min(d, cfg.e)):
        nxt = [[GradedElement.zero(cfg) for _ in range(d)] for _ in range(d)]
        for i in range(d):
            for j in range(d):
                acc = GradedElement.zero(cfg)
                for t in range(d):
                    acc = acc.add(mat[i][t].mul(power[t][j]))
                nxt[i][j] = acc
        power = nxt
        powers.append(power)
    return powers


def matrix_tensor(cfg: ModelConfig, mat: list[list[GradedElement]]) -> GradedElement:
    """A d×d matrix over ΛW ⊗ ∧V∨ as the End tensor Σ entry·v_i ⊗ ē_j."""
    out = GradedElement.zero(cfg)
    for i, row in enumerate(mat):
        for j, entry in enumerate(row):
            if entry.is_zero():
                continue
            out = out.add(
                entry.mul(GradedElement.s_gen(cfg, i + 1)).mul(GradedElement.b_gen(cfg, j + 1))
            )
    return out


def alt_power(r: CurvatureInput, cfg: ModelConfig, k: int) -> GradedElement:
    """Alt[R^{⊗k}] in Λ^kW ⊗ ∧^kV∨ ⊗ End(V∨), encoded as Σ entry·v_i ⊗ ē_j.

    Composition of End slots with wedging of W and N∨ slots is exactly the
    k-th power of the polarized matrix over the commutative even subalgebra,
    whose (i, j) entry sits on v_i ⊗ ē_j.  Zero for k > min(d, e).
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    powers = polarized_powers(r, cfg)
    return matrix_tensor(cfg, powers[k]) if k < len(powers) else GradedElement.zero(cfg)
