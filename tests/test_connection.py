"""Connection recursion: curvature input, component coefficients, integrability."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from koszul_perturb import (
    CurvatureInput,
    GradedElement as G,
    ModelConfig,
    SplitRng,
    alt_power,
    build_connection,
    first_order_part,
    random_curvature,
)
from koszul_perturb.algebra import bits, key_parity, mask_of, sym_words
from koszul_perturb.connection import (
    extend_sym_derivation,
    k1,
    r_bar_op,
    r_tilde_op,
    square_sums,
    sym_generator_values,
    wedge_generator_value,
)
from koszul_perturb.homcomplex import derivation_tensor, extend_derivation, tensorize
from koszul_perturb.koszul import KoszulSpace
from koszul_perturb.todd import perturbation_t_value


def mono(cfg, w=0, s=(), a=0, b=0, c=1):
    return G.monomial(cfg, w, s, a, b, F(c))


# -- curvature input ----------------------------------------------------------

def test_curvature_validation():
    with pytest.raises(ValueError):
        CurvatureInput.make(2, 3, {(1, 2, 1, 1): F(1)})  # needs i ≤ j
    with pytest.raises(ValueError):
        CurvatureInput.make(2, 3, {(4, 1, 1, 1): F(1)})  # w out of range
    with pytest.raises(ValueError):
        CurvatureInput.make(2, 3, {(1, 1, 1, 3): F(1)})  # k out of range
    assert CurvatureInput.make(2, 3, {(1, 1, 1, 1): F(0)}).is_zero()


def test_curvature_json_roundtrip():
    rng = SplitRng(41)
    for trial in range(6):
        r = random_curvature(rng.split(trial), 2, 3)
        assert CurvatureInput.from_json(r.to_json()) == r
    with pytest.raises(ValueError):
        CurvatureInput.from_json(
            '{"d":1,"e":1,"entries":['
            '{"w":1,"i":1,"j":1,"k":1,"c":"1"},'
            '{"w":1,"i":1,"j":1,"k":1,"c":"2"}]}'
        )


def test_build_rejects_bad_order_and_config():
    r = CurvatureInput.make(2, 3, {(1, 1, 2, 1): F(1)})
    cfg = ModelConfig(2, 3, 4)
    with pytest.raises(ValueError):
        build_connection(r, cfg, max_order=4)  # orders beyond e vanish
    with pytest.raises(ValueError):
        build_connection(r, cfg, max_order=-1)
    with pytest.raises(ValueError):
        build_connection(r, ModelConfig(3, 3, 4), max_order=2)


# -- first component ----------------------------------------------------------

def test_k1_generator_values_diagonal():
    cfg = ModelConfig(1, 1, 4)
    r = CurvatureInput.make(1, 1, {(1, 1, 1, 1): F(3, 2)})
    op = k1(r, cfg)
    assert op(G.a_gen(cfg, 1)) == mono(cfg, w=0b1, s=(1,), a=0b1, c=F(3, 2))
    assert op(G.s_gen(cfg, 1)) == mono(cfg, w=0b1, s=(1, 1), c=F(3, 2))


def test_k1_polarization_off_diagonal():
    # sym side keeps the full word; the bar side splits it with weight 1/2
    cfg = ModelConfig(2, 1, 4)
    r = CurvatureInput.make(2, 1, {(1, 1, 2, 1): F(1)})
    rt, rb = r_tilde_op(r, cfg), r_bar_op(r, cfg)
    assert rt(G.s_gen(cfg, 1)) == mono(cfg, w=0b1, s=(1, 2))
    assert rt(G.s_gen(cfg, 2)).is_zero()
    assert rb(G.a_gen(cfg, 1)) == mono(cfg, w=0b1, s=(1,), a=0b10, c=F(1, 2)).add(
        mono(cfg, w=0b1, s=(2,), a=0b01, c=F(1, 2))
    )
    assert rb(G.a_gen(cfg, 2)).is_zero()
    op = k1(r, cfg)
    assert op(G.a_gen(cfg, 1)) == rt(G.a_gen(cfg, 1)).add(rb(G.a_gen(cfg, 1)))


def test_k1_square_splits_into_bar_terms():
    cfg = ModelConfig(2, 3, 4)
    rng = SplitRng(43)
    for trial in range(3):
        r = random_curvature(rng.split(trial), 2, 3)
        op, rt, rb = k1(r, cfg), r_tilde_op(r, cfg), r_bar_op(r, cfg)
        for j in (1, 2):
            vbar = G.a_gen(cfg, j)
            rbv = rb(vbar)
            assert op(op(vbar)) == rt(rbv).add(rb(rbv)), (trial, j)


# -- higher components --------------------------------------------------------

def test_component_coefficients():
    cfg = ModelConfig(2, 4, 4)
    rng = SplitRng(47)
    for trial in range(3):
        r = random_curvature(rng.split(trial), 2, 4)
        cc = build_connection(r, cfg, max_order=4)
        assert first_order_part(cc.generator_values[2], 2) == alt_power(r, cfg, 2).scale(
            F(1, 12)
        )
        assert first_order_part(cc.generator_values[3], 3).is_zero()
        assert first_order_part(cc.generator_values[4], 4) == alt_power(r, cfg, 4).scale(
            F(-1, 720)
        )


def test_alt_power_term_shape():
    cfg = ModelConfig(2, 2, 3)
    r = CurvatureInput.make(2, 2, {(1, 1, 1, 1): F(2), (2, 1, 2, 2): F(1)})
    for (w, s, a, b), _c in alt_power(r, cfg, 2).terms.items():
        assert bin(w).count("1") == 2
        assert bin(a).count("1") == 2
        assert len(s) == 1 and bin(b).count("1") == 1
    # zeroth power is the identity in the v_j ⊗ ē_i encoding
    assert alt_power(r, cfg, 0) == mono(cfg, s=(1,), b=0b01).add(mono(cfg, s=(2,), b=0b10))
    with pytest.raises(ValueError):
        alt_power(r, cfg, -1)


# -- integrability ------------------------------------------------------------

def test_diagonal_family_is_integrable():
    cfg = ModelConfig(2, 3, 4)
    rng = SplitRng(53)
    for trial in range(3):
        child = rng.split(trial)
        coeffs = {(child.randint(1, 3), k, k, k): child.fraction() for k in (1, 2)}
        r = CurvatureInput.make(2, 3, coeffs)
        cc = build_connection(r, cfg, max_order=3)
        assert all(dft.is_zero() for dft in cc.closure_defects)
        assert not square_sums(cc)


def test_dimension_one_is_integrable():
    cfg = ModelConfig(1, 3, 4)
    rng = SplitRng(59)
    for trial in range(3):
        r = random_curvature(rng.split(trial), 1, 3)
        cc = build_connection(r, cfg, max_order=3)
        assert all(dft.is_zero() for dft in cc.closure_defects)
        assert not square_sums(cc)


def test_generic_curvature_defect_is_recorded_not_raised():
    # from d = 2 on the recursion bracket stops closing; the defect is data
    cfg = ModelConfig(2, 3, 4)
    r = random_curvature(SplitRng(3).split(0), 2, 3)
    cc = build_connection(r, cfg, max_order=3)
    assert cc.closure_defects[0].is_zero()  # order 2 still closes
    assert not cc.closure_defects[1].is_zero()  # order 3 does not
    assert square_sums(cc)  # and the full square is nonzero


# -- derivations against their product construction ----------------------------

def _product_derivation(g, x):
    """D(x) as Σ ±prefix·g_j·suffix over the wedge letters v̄_j of each monomial."""
    cfg = g.config
    vals = {}
    for (w, s, a, b), c in g.terms.items():
        j = b.bit_length()
        vals[j] = vals.get(j, G.zero(cfg)).add(G(cfg, {(w, s, a, 0): c}))
    p = key_parity(next(iter(g.terms))) if g.terms else 0  # parity of D: |g_j| + 1
    acc = G(cfg, {}, x.truncated)
    for (wx, sx, C, _b), cx in x.terms.items():
        letters = list(bits(C))
        for t, j in enumerate(letters):
            if j not in vals:
                continue
            prefix = G(cfg, {(wx, sx, mask_of(letters[:t]), 0): 1})
            suffix = G(cfg, {(0, (), mask_of(letters[t + 1:]), 0): 1})
            sign = -1 if p and (wx.bit_count() + t) & 1 else 1
            acc = acc.add(prefix.mul(vals[j]).mul(suffix).scale(sign * cx))
    return acc


def _product_sym_derivation(values, x):
    """R̃(x) as Σ ±(word without v_k)·R̃(v_k)·(wedge part) over the letters v_k."""
    cfg = x.config
    acc = G(cfg, {}, x.truncated)
    for (w, s, a, b), c in x.terms.items():
        for t, letter in enumerate(s):
            g = values.get(letter)
            if g is None or g.is_zero():
                continue
            pre = G.monomial(cfg, w, s[:t] + s[t + 1:], 0, 0)
            post = G.monomial(cfg, 0, (), a, b)
            acc = acc.add(pre.mul(g).mul(post).scale(-c if w.bit_count() & 1 else c))
    return acc


_COEFFS = st.builds(F, st.integers(-3, 3), st.integers(1, 4))


@settings(max_examples=40)
@given(st.data())
def test_derivations_match_their_product_construction(data):
    d, e = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
    cfg = ModelConfig(d, e, data.draw(st.integers(2, 3)))  # R̃'s values are quadratic
    r = random_curvature(SplitRng(data.draw(st.integers(0, 10**6))), d, e)
    keys = KoszulSpace(cfg).keys
    xs = [
        G(cfg, data.draw(st.dictionaries(st.sampled_from(keys), _COEFFS, max_size=6)),
          data.draw(st.booleans()))
        for _ in range(3)
    ]
    values = sym_generator_values(r, cfg)
    r_tilde = extend_sym_derivation(values, cfg)
    t = derivation_tensor(perturbation_t_value(r, cfg))
    assert not t.truncated and all(len(k[1]) == 1 for k in t.terms)  # t raises degree by one
    for g in (perturbation_t_value(r, cfg), wedge_generator_value(r, cfg)):
        tensor, D = derivation_tensor(g), extend_derivation(g)
        for x in xs:
            got, want = D(x), _product_derivation(g, x)
            assert got == want
            # flagged exactly where x is, or where a monomial of x meets a term of its
            # column with disjoint ΛW letters and the product passes degree m; the
            # product chain checks its left product first, so it flags at least as often
            overflow = any(
                k[3] == a and not k[0] & w and len(s) + len(k[1]) > cfg.m
                for w, s, a, _b in x.terms for k in tensor.terms
            )
            assert got.truncated == (x.truncated or overflow)
            assert want.truncated or not got.truncated
    for x in xs:
        got, want = r_tilde(x), _product_sym_derivation(values, x)
        assert got == want and got.truncated == want.truncated


@settings(max_examples=40)
@given(st.data())
def test_derivation_tensor_is_the_tensorized_product_construction(data):
    d, e, m = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
    cfg = ModelConfig(d, e, m)
    key = st.tuples(st.integers(0, (1 << e) - 1), st.sampled_from(sym_words(d, m)),
                    st.integers(0, (1 << d) - 1), st.sampled_from([1 << j for j in range(d)]))
    g = G(cfg, data.draw(st.dictionaries(key, _COEFFS, max_size=8)))
    parts = [g.restrict(lambda k, p=p: key_parity(k) == p) for p in (0, 1)]
    for part in parts:  # homogeneous values: one derivation of that parity
        assert derivation_tensor(part) == tensorize(lambda x, part=part: _product_derivation(part, x), cfg)
    # mixed parity: the sum of the derivations of its two parity parts
    assert derivation_tensor(g) == derivation_tensor(parts[0]).add(derivation_tensor(parts[1]))
