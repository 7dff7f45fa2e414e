"""End-tensor calculus: apply/tensorize, contraction embedding, residue, derivations."""

import functools
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from koszul_perturb import (
    GradedElement as G,
    LinearMap,
    ModelConfig,
    SplitRng,
    apply_end,
    extend_derivation,
    i_h,
    interior_product,
    matrix_of,
    tensorize,
)
from koszul_perturb.algebra import bits, key_parity, sym_words
from koszul_perturb.homcomplex import (
    EndSpace,
    WedgeSpace,
    d_hom,
    identity_end,
    matrix_callable,
    p_gv,
    p_t,
    pi_gv,
    pi_t,
    r_residue,
    series_bound,
)
from koszul_perturb.koszul import KoszulSpace, p_k_tensor
from koszul_perturb.perturbation import alternating_series

C = ModelConfig(2, 1, 2)


def mono(cfg, w=0, s=(), a=0, b=0, c=1):
    return G.monomial(cfg, w, s, a, b, F(c))


def basis(space):
    for key in space.keys:
        yield key, G(space.config, {key: F(1)})


# -- apply / tensorize ----------------------------------------------------------

def test_apply_end_matrix_units():
    # ē_B pairs only against the exact wedge word v̄_B
    f = mono(C, a=0b01, b=0b01)
    assert apply_end(f, mono(C, a=0b01)) == mono(C, a=0b01)
    assert apply_end(f, G.unit(C)).is_zero()
    assert apply_end(f, mono(C, a=0b10)).is_zero()
    assert apply_end(f, mono(C, a=0b11)).is_zero()
    g = mono(C, a=0b10, b=0b01)
    assert apply_end(g, mono(C, a=0b01)) == mono(C, a=0b10)


def test_identity_end_acts_as_identity():
    for _key, x in basis(KoszulSpace(C)):
        assert apply_end(identity_end(C), x) == x


def test_tensorize_inverts_apply():
    for _key, f in basis(EndSpace(C)):
        assert tensorize(lambda x, f=f: apply_end(f, x), C) == f


_NONZERO = st.builds(F, st.integers(-3, 3).filter(bool), st.integers(1, 4))


@settings(max_examples=40)
@given(st.data())
def test_apply_end_is_associative_and_tensorize_inverts_it(data):
    # factors with at most one symmetric letter: at m = 3 no triple product is clipped
    d, e, m = data.draw(st.integers(1, 3)), data.draw(st.integers(0, 2)), data.draw(st.integers(1, 3))
    cfg = ModelConfig(d, e, m)
    word = st.sampled_from(sym_words(d, 1))

    def draw(b_slots, min_size=1):
        key = st.tuples(st.integers(0, (1 << e) - 1), word, st.integers(0, (1 << d) - 1), b_slots)
        return G(cfg, data.draw(st.dictionaries(key, _NONZERO, min_size=min_size, max_size=4)))

    every_b = st.integers(0, (1 << d) - 1)
    f, g = draw(every_b, min_size=2), draw(every_b)
    for h in (draw(every_b), draw(st.just(0))):  # an End tensor, then a K_Tot operand
        lhs, rhs = apply_end(apply_end(f, g), h), apply_end(f, apply_end(g, h))
        if not (lhs.truncated or rhs.truncated):
            assert lhs == rhs
    assert tensorize(functools.partial(apply_end, f), cfg) == f


def test_alternating_series_bound_raises():
    # a step that never vanishes trips the hard bound instead of looping forever,
    # on elements and on matrices alike
    with pytest.raises(RuntimeError, match="^probe series failed to terminate$"):
        alternating_series(mono(C, w=0b1), lambda t: t, series_bound(C), "probe")
    one = LinearMap.identity(3)
    with pytest.raises(RuntimeError, match="^matrix series failed to terminate$"):
        alternating_series(one, one.compose, 5, "matrix")


def test_end_matrix_roundtrip():
    ks = KoszulSpace(C)
    f = mono(C, a=0b01, b=0b01, c=2).add(mono(C, w=0b1, s=(1,), a=0b10, b=0b01))
    op = matrix_callable(matrix_of(lambda x: apply_end(f, x), ks, allow_truncation=True), ks)
    for _key, x in basis(ks):
        assert op(x) == apply_end(f, x)


# -- contraction embedding i_H ----------------------------------------------------

def _iota_slot_a(cfg, j, x):
    # test-local single contraction on the ∧V∨ slot
    out = G.zero(cfg)
    bit = 1 << (j - 1)
    for (w, s, a, b), c in x.terms.items():
        if not a & bit:
            continue
        sign = -1 if (bin(w).count("1") + bin(a & (bit - 1)).count("1")) & 1 else 1
        out = out.add(G(cfg, {(w, s, a & ~bit, b): sign * c}))
    return out


@pytest.mark.parametrize("cfg", [ModelConfig(2, 2, 2), ModelConfig(3, 1, 2), ModelConfig(4, 1, 1)])
def test_i_h_is_nested_single_contraction(cfg):
    ks = KoszulSpace(cfg)
    for wmask in range(1 << cfg.e):
        for umask in range(1 << cfg.d):
            F_end = i_h(mono(cfg, w=wmask, b=umask))
            for _key, x in basis(ks):
                want = x
                for u in sorted(bits(umask), reverse=True):
                    want = _iota_slot_a(cfg, u, want)
                if wmask:
                    want = mono(cfg, w=wmask).mul(want)
                assert apply_end(F_end, x) == want, (wmask, umask, _key)


def test_i_h_matches_interior_product_on_socle_duals():
    # both routes contract ě_A against a pure wedge argument
    cfg = ModelConfig(3, 2, 2)
    for umask in range(1 << cfg.d):
        F_end = i_h(mono(cfg, b=umask))
        for amask in range(1 << cfg.d):
            x = mono(cfg, a=amask)
            got = apply_end(F_end, x)
            # independent route: flip the argument into the b-slot, contract, flip back
            flipped = interior_product(mono(cfg, a=umask), mono(cfg, b=amask))
            want = G(cfg, {(w, s, b, 0): c for (w, s, a, b), c in flipped.terms.items()})
            assert got == want, (umask, amask)


def test_i_h_rejects_sym_letters():
    with pytest.raises(ValueError):
        i_h(G.s_gen(C, 1))


# -- projections and residue ------------------------------------------------------

@pytest.mark.parametrize("cfg", [ModelConfig(2, 2, 3), ModelConfig(3, 1, 2)])
def test_projections_split_the_embedding(cfg):
    for key in WedgeSpace(cfg).keys:
        eta = G(cfg, {key: F(1)})
        emb = i_h(eta)
        assert pi_t(emb) == eta, key
        assert pi_gv(emb) == eta, key


@pytest.mark.parametrize("cfg", [ModelConfig(2, 1, 2), ModelConfig(2, 2, 2)])
def test_residue_series_factors_through_projection(cfg):
    for _key, f in basis(EndSpace(cfg)):
        assert r_residue(f) == i_h(pi_t(f)), _key


def test_residue_keeps_the_flag_of_the_term_it_stops_on():
    # at m = 0 the first step P_K δd_Ǩ of the unit column needs a symmetric letter
    cfg = ModelConfig(1, 0, 0)
    unit = G(cfg, {(0, (), 0, 0): F(1)})
    res = r_residue(unit)
    assert res == unit and res.truncated


def test_pi_t_keeps_constant_column_blocks():
    # π_T keeps the blocks with no sym letters and no ∧V∨ letters
    f_col = mono(C, w=0b1, b=0b10)
    assert pi_t(f_col) == f_col
    assert pi_t(mono(C, a=0b01, b=C.full_b)).is_zero()
    assert pi_t(mono(C, s=(1,), b=0b01)).is_zero()


def test_homotopy_operators_preserve_zero():
    z = G.zero(C)
    for op in (p_t, p_gv, pi_t, pi_gv, d_hom):
        assert op(z).is_zero()


def test_series_bound_positive():
    assert series_bound(C) >= (C.m + 1)


# -- derivations -------------------------------------------------------------------

def test_extend_derivation_generator_values():
    cfg = ModelConfig(2, 2, 3)
    g = G(cfg, {(0b01, (1,), 0b10, 0b01): F(3)})
    D = extend_derivation(g)
    assert D(G.a_gen(cfg, 1)) == mono(cfg, w=0b1, s=(1,), a=0b10, c=3)
    assert D(G.a_gen(cfg, 2)).is_zero()
    assert D(G.unit(cfg)).is_zero()
    assert D(G.s_gen(cfg, 1)).is_zero()


def test_extend_derivation_leibniz():
    cfg = ModelConfig(2, 2, 3)
    rng = SplitRng(23)
    g = G(cfg, {(0b01, (1,), 0b10, 0b01): F(3), (0b10, (), 0b01, 0b10): F(-1, 2)})
    D = extend_derivation(g)
    keys = tuple(KoszulSpace(cfg).keys)
    for trial in range(60):
        child = rng.split(trial)
        kx, ky = child.choice(keys), child.choice(keys)
        x = G(cfg, {kx: child.fraction()})
        y = G(cfg, {ky: child.fraction()})
        lhs = D(x.mul(y))
        sign = -1 if key_parity(kx) else 1
        rhs = D(x).mul(y).add(x.mul(D(y)).scale(sign))
        if lhs.truncated or rhs.truncated:
            continue
        assert lhs == rhs, (kx, ky)


def test_d_hom_kills_identity():
    assert d_hom(identity_end(C)).is_zero()


@settings(max_examples=40)
@given(st.data())
def test_p_t_restricted_to_one_letter_generator_slots_is_p_k_tensor(data):
    # the connection recursion takes P_K ⊗ 1 for P_T: on a τ whose generator slot
    # (the ∧V slot ē) is one letter, the one-letter part of P_T(τ) is exactly P_K ⊗ 1
    d = data.draw(st.integers(1, 3))
    cfg = ModelConfig(d, data.draw(st.integers(1, 3)), data.draw(st.integers(1, 4)))
    key = st.tuples(st.integers(0, (1 << cfg.e) - 1), st.sampled_from(sym_words(d, cfg.m)),
                    st.integers(0, (1 << d) - 1), st.sampled_from([1 << j for j in range(d)]))
    coeff = st.builds(F, st.integers(-3, 3), st.integers(1, 4))
    tau = G(cfg, data.draw(st.dictionaries(key, coeff, min_size=1, max_size=6)))
    assert p_t(tau).restrict(lambda k: k[3].bit_count() == 1) == p_k_tensor(tau)
