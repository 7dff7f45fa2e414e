"""Connection recursion: curvature input, component coefficients, integrability."""

from fractions import Fraction as F

import pytest

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
from koszul_perturb.connection import k1, r_bar_op, r_tilde_op, square_sums


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
