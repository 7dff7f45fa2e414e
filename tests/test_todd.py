"""Todd-type class from curvature powers: series data, two routes, q_σ laws."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from koszul_perturb import (
    CurvatureInput,
    GradedElement as G,
    ModelConfig,
    SplitRng,
    ToddClass,
    bernoulli,
    interior_product,
    matrix_of,
    q_sigma,
    random_curvature,
    todd_det,
    todd_exp,
    todd_series_coeff,
    transfer,
)
from koszul_perturb.algebra import key_parity
from koszul_perturb.connection import _polarized_matrix, alt_power, polarized_powers, r_tilde_op
from koszul_perturb.homcomplex import (
    EndSpace, WedgeSpace, apply_end, end_contractions, extend_derivation, i_h, matrix_callable, p_gv,
    p_t, r_residue, series_bound, tensorize,
)
from koszul_perturb.todd import (
    perturbation_t,
    perturbation_t_value,
    perturbed_contractions,
    rho_forms,
    t_commutator,
)
from koszul_perturb.verify import STEP_LAWS, step_law_mismatches, top_degree_mismatches

from itertools import permutations
from math import factorial


def mono(cfg, w=0, s=(), a=0, b=0, c=1):
    return G.monomial(cfg, w, s, a, b, F(c))


# -- series data ----------------------------------------------------------------

def test_bernoulli_plus_convention():
    want = [
        F(1), F(1, 2), F(1, 6), F(0), F(-1, 30), F(0), F(1, 42), F(0),
        F(-1, 30), F(0), F(5, 66), F(0), F(-691, 2730),
    ]
    assert [bernoulli(n) for n in range(13)] == want
    with pytest.raises(ValueError):
        bernoulli(-1)


def test_todd_series_table():
    want = [F(1), F(1, 2), F(1, 12), F(0), F(-1, 720), F(0), F(1, 30240)]
    assert [todd_series_coeff(n) for n in range(7)] == want
    for n in range(9):
        assert todd_series_coeff(n) == bernoulli(n) / factorial(n)


# -- curvature traces -------------------------------------------------------------

def test_rho_dimension_one():
    cfg = ModelConfig(1, 1, 4)
    r = CurvatureInput.make(1, 1, {(1, 1, 1, 1): F(3, 2)})
    assert rho_forms(r, cfg) == [mono(cfg, w=0b1, a=0b1, c=F(3, 2))]


def test_rho_odd_orders_vanish():
    cfg = ModelConfig(3, 3, 3)
    r = random_curvature(SplitRng(9).split("x"), 3, 3)
    assert rho_forms(r, cfg)[2].is_zero()


def test_perturbation_t_value_dimension_one():
    # diagonal entry polarizes to 2c, then picks up the series weight 1/2
    cfg = ModelConfig(1, 1, 4)
    r = CurvatureInput.make(1, 1, {(1, 1, 1, 1): F(3, 2)})
    val = perturbation_t_value(r, cfg)
    assert val == mono(cfg, w=0b1, s=(1,), a=0b1, b=0b1, c=F(3, 2))
    assert all(len(k[1]) == 1 for k in val.terms)


_COEFFS = st.builds(F, st.integers(-3, 3), st.integers(1, 4))


def test_t_tensor_flags_only_a_product_that_survives():
    # t(v̄₁) = w₁·v₂·ā₂; on v₁·v̄₁v̄₂ the ā₂ meets v̄₂ and kills the product, but the
    # product chain v₁·(w₁·v₂·ā₂)·v̄₂ checks the degree of its left product first
    cfg = ModelConfig(2, 1, 1)
    r = CurvatureInput.make(2, 1, {(1, 2, 2, 1): F(1)})
    t = perturbation_t(r, cfg)
    t_1 = mono(cfg, w=0b1, s=(2,), a=0b10)
    assert apply_end(t, mono(cfg, a=0b01)) == t_1
    got = apply_end(t, mono(cfg, s=(1,), a=0b11))
    want = mono(cfg, s=(1,)).mul(t_1).mul(mono(cfg, a=0b10))
    assert got == want and got.is_zero()
    assert want.truncated and not got.truncated


def test_truncated_operand_stays_truncated():
    cfg = ModelConfig(2, 2, 4)
    r = random_curvature(SplitRng(5), 2, 2)
    t = perturbation_t(r, cfg)
    ops = (lambda x: apply_end(t, x), extend_derivation(perturbation_t_value(r, cfg)),
           r_tilde_op(r, cfg), lambda f: t_commutator(t, f), i_h)
    x = {(0b01, (1,), 0b11, 0): F(2), (0, (2,), 0b10, 0): F(-1, 3)}
    f = {(0, (1,), 0b01, 0b11): F(1), (0b10, (), 0b10, 0b01): F(3)}
    eta = {(0b01, (), 0, 0b10): F(2), (0, (), 0, 0b11): F(-1, 3)}
    for op, terms in zip(ops, (x, x, x, f, eta)):
        clean, flagged = op(G(cfg, terms)), op(G(cfg, terms, truncated=True))
        assert not clean.is_zero() and not clean.truncated
        assert flagged == clean and flagged.truncated


def test_series_keep_the_flag_of_an_operand_whose_first_term_vanishes():
    cfg = ModelConfig(2, 2, 2)
    r = random_curvature(SplitRng(5), 2, 2)
    w_e1 = {(0b01, (), 0, 0b01): F(1)}  # P_K and δP_Ǩ both kill w·ē_1
    v1 = {(0, (1,), 0, 0): F(2)}  # π_T kills v_1
    cases = ((p_t, w_e1), (p_gv, w_e1), (r_residue, v1), (lambda x: q_sigma(r, cfg, x), {}))
    for op, terms in cases:
        clean, flagged = op(G(cfg, terms)), op(G(cfg, terms, truncated=True))
        assert clean.is_zero() and not clean.truncated
        assert flagged.is_zero() and flagged.truncated


def _two_pass_commutator(t, f):
    # the parity-split construction: one tensorize pass per parity part of f,
    # with t acting on the K_Tot probes through apply_end
    acc = G.zero(f.config)
    for p in (0, 1):
        part = f.restrict(lambda k: key_parity(k) == p)
        if part.is_zero():
            continue
        sign = 1 if p else -1

        def op(x, part=part, sign=sign):
            return apply_end(t, apply_end(part, x)).add(apply_end(part, apply_end(t, x)).scale(sign))

        acc = acc.add(tensorize(op, f.config))
    return acc


@settings(max_examples=40)
@given(st.data())
def test_t_commutator_matches_the_parity_split_construction(data):
    d, e, m = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3)), data.draw(st.integers(2, 3))
    cfg = ModelConfig(d, e, m)
    t = perturbation_t(random_curvature(SplitRng(data.draw(st.integers(0, 10**6))), d, e), cfg)
    keys = EndSpace(cfg).keys
    for _ in range(3):
        f = G(cfg, data.draw(st.dictionaries(st.sampled_from(keys), _COEFFS, max_size=6)),
              data.draw(st.booleans()))
        got, want = t_commutator(t, f), _two_pass_commutator(t, f)
        assert got == want and got.truncated == want.truncated
    zero = t_commutator(t, G(cfg, {}, truncated=True))
    assert zero.is_zero() and not zero.truncated


# -- the class and its two routes ---------------------------------------------------

def test_todd_dimension_one_value():
    cfg = ModelConfig(1, 1, 4)
    r = CurvatureInput.make(1, 1, {(1, 1, 1, 1): F(3, 2)})
    want = G.unit(cfg).add(mono(cfg, w=0b1, a=0b1, c=F(3, 2)))
    assert todd_exp(r, cfg).value == want
    assert todd_det(r, cfg).value == want


def test_todd_zero_curvature_is_unit():
    cfg = ModelConfig(2, 3, 4)
    td = todd_exp(CurvatureInput.zero(2, 3), cfg)
    assert td.value == G.unit(cfg)
    assert td.component(0) == G.unit(cfg)
    assert td.component(1).is_zero()


@pytest.mark.parametrize(
    "d,e", [(1, 4), (2, 3), (3, 3), (4, 2), (5, 2)], ids=["d1", "d2", "d3", "d4", "d5"]
)
def test_todd_routes_agree(d, e):
    cfg = ModelConfig(d, e, 4)
    rng = SplitRng(67)
    for trial in range(4):
        r = random_curvature(rng.split((d, trial)), d, e)
        assert todd_exp(r, cfg).value == todd_det(r, cfg).value, trial


def test_todd_class_validation():
    cfg = ModelConfig(2, 2, 2)
    with pytest.raises(ValueError):
        ToddClass(cfg, G.s_gen(cfg, 1))  # sym letters forbidden
    with pytest.raises(ValueError):
        ToddClass(cfg, G.unit(cfg).add(G.w_gen(cfg, 1)))  # |w| must match |a|
    with pytest.raises(ValueError):
        ToddClass(cfg, mono(cfg, w=0b1, a=0b1))  # degree-0 part must be 1


def test_todd_json_roundtrip():
    from koszul_perturb import terms_from_json
    import json

    cfg = ModelConfig(2, 3, 4)
    r = random_curvature(SplitRng(71).split("j"), 2, 3)
    td = todd_exp(r, cfg)
    data = json.loads(td.to_json())
    assert (data["d"], data["e"], data["m"]) == (2, 3, 4)
    assert terms_from_json(cfg, data["terms"]) == td.value


# -- the power pass against the per-k construction -----------------------------------

def _per_k_power(r, cfg, k):
    # M^k rebuilt from M^0 for every k, as each route once did
    mat = _polarized_matrix(r, cfg)
    d = cfg.d
    power = [[G.unit(cfg) if i == j else G.zero(cfg) for j in range(d)] for i in range(d)]
    for _ in range(k):
        nxt = [[G.zero(cfg) for _ in range(d)] for _ in range(d)]
        for i in range(d):
            for j in range(d):
                acc = G.zero(cfg)
                for t in range(d):
                    acc = acc.add(mat[i][t].mul(power[t][j]))
                nxt[i][j] = acc
        power = nxt
    return power


def _per_k_alt_power(r, cfg, k):
    out = G.zero(cfg)
    for i, row in enumerate(_per_k_power(r, cfg, k)):
        for j, entry in enumerate(row):
            if not entry.is_zero():
                out = out.add(entry.mul(G.s_gen(cfg, i + 1)).mul(G.b_gen(cfg, j + 1)))
    return out


def _per_k_rho(r, cfg, n):
    power = _per_k_power(r, cfg, n)
    trace = G.zero(cfg)
    for i in range(cfg.d):
        trace = trace.add(power[i][i])
    return trace.scale(-F((-1) ** n) * bernoulli(n) / factorial(n))


def _per_k_t_value(r, cfg):
    acc = G.zero(cfg)
    for n in range(1, min(cfg.d, cfg.e) + 1):
        acc = acc.add(_per_k_alt_power(r, cfg, n).scale(todd_series_coeff(n)))
    return acc


def _per_k_todd_exp(r, cfg):
    log = G.zero(cfg)
    for n in range(1, min(cfg.d, cfg.e) + 1):
        log = log.add(_per_k_rho(r, cfg, n).scale(F(1, n)))
    acc = term = G.unit(cfg)
    for k in range(1, cfg.e + 1):
        term = term.mul(log).scale(F(1, k))
        if term.is_zero():
            break
        acc = acc.add(term)
    return acc


def _per_k_todd_det(r, cfg):
    entries = _per_k_power(r, cfg, 0)
    for n in range(1, min(cfg.d, cfg.e) + 1):
        coeff = todd_series_coeff(n)
        for i, row in enumerate(_per_k_power(r, cfg, n)):
            for j, entry in enumerate(row):
                entries[i][j] = entries[i][j].add(entry.scale(coeff))
    det = G.zero(cfg)
    for perm in permutations(range(cfg.d)):
        inversions = sum(1 for x in range(cfg.d) for y in range(x + 1, cfg.d) if perm[x] > perm[y])
        prod = G.unit(cfg).scale(F((-1) ** inversions))
        for i in range(cfg.d):
            prod = prod.mul(entries[i][perm[i]])
            if prod.is_zero():
                break
        det = det.add(prod)
    return det


@settings(max_examples=30)
@given(st.data())
def test_power_pass_matches_the_per_k_construction(data):
    d, e = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 4))
    cfg = ModelConfig(d, e, data.draw(st.integers(1, 3)))
    r = random_curvature(SplitRng(data.draw(st.integers(0, 10**6))), d, e)
    n = min(d, e)
    powers = polarized_powers(r, cfg)
    assert len(powers) == n + 1
    for k in range(n + 2):
        want = _per_k_power(r, cfg, k)
        assert (powers[k] if k <= n else [[G.zero(cfg)] * d] * d) == want, k
        assert alt_power(r, cfg, k) == _per_k_alt_power(r, cfg, k), k
    assert perturbation_t_value(r, cfg) == _per_k_t_value(r, cfg)
    assert rho_forms(r, cfg) == [_per_k_rho(r, cfg, j) for j in range(1, n + 1)]
    assert todd_exp(r, cfg).value == _per_k_todd_exp(r, cfg)
    assert todd_det(r, cfg).value == _per_k_todd_det(r, cfg)


# -- q_σ -----------------------------------------------------------------------------

def test_q_sigma_zero_curvature_is_identity():
    cfg = ModelConfig(2, 2, 4)
    r = CurvatureInput.zero(2, 2)
    ws = WedgeSpace(cfg)
    for key in ws.keys:
        eta = ws.element(key)
        assert q_sigma(r, cfg, eta) == eta, key


def test_q_sigma_is_todd_contraction_at_top_degree():
    # d = 1: every wedge degree is top or trivial
    cfg = ModelConfig(1, 2, 4)
    rng = SplitRng(73)
    for trial in range(3):
        r = random_curvature(rng.split(trial), 1, 2)
        _checked, misses = top_degree_mismatches(r, cfg, todd_det(r, cfg), perturbation_t(r, cfg))
        assert not misses, (trial, misses[0][0])


def test_q_sigma_is_todd_contraction_d2():
    cfg = ModelConfig(2, 3, 4)
    r = random_curvature(SplitRng(79).split("m"), 2, 3)
    _checked, misses = top_degree_mismatches(r, cfg, todd_det(r, cfg), perturbation_t(r, cfg))
    assert not misses, misses[0][0]


@pytest.mark.parametrize("d,e", [(4, 2), (4, 3), (5, 2)])
def test_q_sigma_is_todd_contraction_past_d3(d, e):
    # the Laplace determinant has no d limit, and the headline identity holds past d = 3
    cfg = ModelConfig(d, e, 2)
    for trial in range(2):
        r = random_curvature(SplitRng(83).split((d, e, trial)), d, e)
        _checked, misses = top_degree_mismatches(r, cfg, todd_det(r, cfg), perturbation_t(r, cfg))
        assert not misses, (trial, misses[0][0])


def test_q_sigma_matches_todd_below_top_degree_too():
    # stronger than the top-degree statement; holds on every basis vector
    cfg = ModelConfig(2, 3, 4)
    r = random_curvature(SplitRng(79).split("m"), 2, 3)
    td = todd_det(r, cfg)
    t = perturbation_t(r, cfg)
    ws = WedgeSpace(cfg)
    for key in ws.keys:
        eta = ws.element(key)
        assert q_sigma(r, cfg, eta, t) == interior_product(td.value, eta), key


def test_q_sigma_is_lambda_w_linear():
    cfg = ModelConfig(2, 3, 4)
    r = random_curvature(SplitRng(83).split("w"), 2, 3)
    t = perturbation_t(r, cfg)
    ws = WedgeSpace(cfg)
    for key in ws.keys:
        if key[0] & 0b1:
            continue
        eta = ws.element(key)
        w = G.w_gen(cfg, 1)
        assert q_sigma(r, cfg, w.mul(eta), t) == w.mul(q_sigma(r, cfg, eta, t)), key


# -- single-step laws ------------------------------------------------------------------

def _step_laws(d, e):
    r = random_curvature(SplitRng(5).split("a"), d, e)
    cfg = ModelConfig(d, e, 4)
    _checked, misses = step_law_mismatches(r, cfg, perturbation_t(r, cfg), STEP_LAWS)
    return misses["display"], misses["fresh"]


def test_single_step_laws_dimension_one():
    # at d = 1 the two normalizations coincide wherever the contraction is nonzero
    display, fresh = _step_laws(1, 3)
    assert not fresh, fresh[:1]
    assert not display, display[:1]


def test_single_step_fresh_law_d2_and_display_mismatch():
    # the measured law has weight 1/j at every l; the 1/(d−l+j) normalization
    # breaks at the middle degree l = 1 for generic curvature
    display, fresh = _step_laws(2, 3)
    assert not fresh, fresh[:1]
    assert display
    assert {l for _key, l, _got, _want in display} == {1}


# -- matrix-engine route ----------------------------------------------------------------

@settings(max_examples=12)
@given(st.sampled_from([(1, 2, 2), (1, 3, 1), (2, 2, 1), (2, 2, 2), (2, 3, 2)]),
       st.integers(0, 10**6))
def test_perturbed_contractions_equals_both_full_transfers(cfg, seed):
    # oracle: the full lemma on both End contractions; π_T∘T = π_GV∘T = 0 is the law
    # that lets the route skip f′, h′ and d_a′
    cfg = ModelConfig(*cfg)
    r = random_curvature(SplitRng(seed), cfg.d, cfg.e)
    t = perturbation_t(r, cfg)
    t_mat = matrix_of(lambda f: t_commutator(t, f), EndSpace(cfg), allow_truncation=True)
    base_t, base_gv = end_contractions(cfg)
    assert base_t.f.compose(t_mat).is_zero() and base_gv.f.compose(t_mat).is_zero()
    bound = series_bound(cfg)
    want = transfer(base_t, t_mat, bound).f.compose(transfer(base_gv, t_mat, bound).g)
    assert perturbed_contractions(r, cfg) == want


def test_perturbed_contraction_route_agrees():
    cfg = ModelConfig(1, 2, 4)
    r = random_curvature(SplitRng(2).split("pc"), 1, 2)
    ws = WedgeSpace(cfg)
    q_mat = matrix_callable(perturbed_contractions(r, cfg), ws)
    t = perturbation_t(r, cfg)
    for key in ws.keys:
        eta = ws.element(key)
        assert q_mat(eta) == q_sigma(r, cfg, eta, t), key
