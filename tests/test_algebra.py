"""Four-slot graded algebra: products, signs, contraction, serialization."""

import tracemalloc
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from koszul_perturb import (
    GradedElement as G,
    LinearMap,
    ModelConfig,
    SplitRng,
    interior_product,
    terms_from_json,
    terms_to_json,
)
from koszul_perturb.algebra import (
    bits,
    key_parity,
    mask_of,
    sandwich,
    shuffle_sign,
    sym_words,
)

C2 = ModelConfig(2, 1, 2)
C3 = ModelConfig(3, 1, 2)


def mono(cfg, w=0, s=(), a=0, b=0, c=1):
    return G.monomial(cfg, w, s, a, b, F(c))


def one_term(x):
    ((key, c),) = x.terms.items()
    return key, c


# -- masks and signs ----------------------------------------------------------

def test_mask_helpers():
    assert mask_of([1, 3]) == 0b101
    assert list(bits(0b1011)) == [1, 2, 4]
    with pytest.raises(ValueError):
        mask_of([0])


def test_shuffle_sign_brute_force():
    # count transpositions moving the x-letters past smaller y-letters
    for x in range(16):
        for y in range(16):
            if x & y:
                continue
            crossings = sum(
                1 for i in bits(x) for j in bits(y) if j < i
            )
            assert shuffle_sign(x, y) == (-1) ** crossings


def test_parity_and_degrees():
    key = (0b11, (1, 2), 0b1, 0b101)  # two w, two sym, one a, two b
    assert key_parity(key) == (2 + 1 + 2) % 2  # sym letters are even


# -- products -----------------------------------------------------------------

def test_odd_letters_anticommute():
    cfg = ModelConfig(2, 2, 2)  # e = 2 so the w case has two letters too
    for gen in (G.w_gen, G.a_gen, G.b_gen):
        x, y = gen(cfg, 1), gen(cfg, 2)
        assert x.mul(y) == y.mul(x).scale(-1)
        assert x.mul(x).is_zero()


def test_sym_letters_commute():
    x, y = G.s_gen(C2, 1), G.s_gen(C2, 2)
    assert x.mul(y) == y.mul(x)
    key, c = one_term(x.mul(y))
    assert key == (0, (1, 2), 0, 0) and c == 1


def test_cross_slot_product_signs():
    # a-letter of the left factor crosses the b-letter of the right one
    ab = G.a_gen(C2, 1).mul(G.b_gen(C2, 1))
    ba = G.b_gen(C2, 1).mul(G.a_gen(C2, 1))
    assert one_term(ab) == ((0, (), 0b1, 0b1), F(1))
    assert ba == ab.scale(-1)
    # w stays outermost: (w1 a1) b1 == w1 (a1 b1)
    w_ab = G.w_gen(C2, 1).mul(ab)
    key, c = one_term(w_ab)
    assert key == (0b1, (), 0b1, 0b1) and c == 1


def test_mul_associativity_random():
    rng = SplitRng(17)
    cfg = ModelConfig(2, 2, 3)
    for trial in range(40):
        child = rng.split(trial)

        def rand_elem(tag):
            r = child.split(tag)
            acc = G.zero(cfg)
            for _ in range(3):
                key = (
                    r.randint(0, (1 << cfg.e) - 1),
                    tuple(sorted(r.randint(1, cfg.d) for _ in range(r.randint(0, 2)))),
                    r.randint(0, (1 << cfg.d) - 1),
                    r.randint(0, (1 << cfg.d) - 1),
                )
                acc = acc.add(G(cfg, {key: r.fraction()}))
            return acc

        x, y, z = rand_elem("x"), rand_elem("y"), rand_elem("z")
        assert x.mul(y).mul(z) == x.mul(y.mul(z))


_COEFFS = st.builds(F, st.integers(-3, 3), st.integers(1, 4))


def _all_keys(cfg):
    return [
        (w, s, a, b)
        for w in range(1 << cfg.e)
        for s in sym_words(cfg.d, cfg.m)
        for a in range(1 << cfg.d)
        for b in range(1 << cfg.d)
    ]


def _random_element(data, cfg):
    keys = st.sampled_from(_all_keys(cfg))
    return G(cfg, data.draw(st.dictionaries(keys, _COEFFS, min_size=1, max_size=4)))


@settings(max_examples=100)
@given(st.data())
def test_mul_is_associative_and_graded_commutative(data):
    cfg = ModelConfig(*(data.draw(st.integers(1, 3)) for _ in range(3)))
    x, y, z = (_random_element(data, cfg) for _ in range(3))
    assert x.mul(y).mul(z) == x.mul(y.mul(z))
    for p in (0, 1):
        xp = x.restrict(lambda k: key_parity(k) == p)
        for q in (0, 1):
            yq = y.restrict(lambda k: key_parity(k) == q)
            xy, yx = xp.mul(yq), yq.mul(xp)
            assert xy == (yx.scale(-1) if p and q else yx)
            assert xy.truncated == yx.truncated


@settings(max_examples=60)
@given(st.data())
def test_sandwich_is_the_product_chain(data):
    cfg = ModelConfig(*(data.draw(st.integers(1, 3)) for _ in range(3)))
    left, right = (data.draw(st.sampled_from(_all_keys(cfg))) for _ in range(2))
    g = _random_element(data, cfg)
    g.truncated = data.draw(st.booleans())
    coeff = data.draw(_COEFFS.filter(bool))
    out = {}
    truncated = sandwich(cfg.m, left, g, right, coeff, out)
    want = G(cfg, {left: 1}).mul(g).mul(G(cfg, {right: 1})).scale(coeff)
    assert G(cfg, out) == want and truncated == want.truncated


def test_sandwich_on_every_monomial_triple():
    cfg = ModelConfig(1, 1, 2)
    keys = _all_keys(cfg)
    for k in keys:
        g = G(cfg, {k: F(2)})
        for left in keys:
            pre = G(cfg, {left: 1}).mul(g)
            for right in keys:
                out = {}
                truncated = sandwich(cfg.m, left, g, right, F(-1, 3), out)
                want = pre.mul(G(cfg, {right: 1})).scale(F(-1, 3))
                assert G(cfg, out) == want and truncated == want.truncated


def test_truncation_is_sticky():
    v = G.s_gen(C2, 1)  # m = 2: cubes overflow
    cube = v.mul(v).mul(v)
    assert cube.is_zero() and cube.truncated
    assert v.add(cube).truncated


def test_monomial_validation():
    with pytest.raises(ValueError):
        G.monomial(C2, 0, (), 0b100, 0)  # a index 3 > d
    with pytest.raises(ValueError):
        G.monomial(C2, 0b10, (), 0, 0)  # w index 2 > e
    with pytest.raises(ValueError):
        G.monomial(C2, 0, (3,), 0, 0)  # sym index 3 > d
    with pytest.raises(ValueError):
        G.a_gen(C2, 0)  # generators are 1-indexed


def test_arithmetic_helpers():
    x = G.a_gen(C2, 1)
    assert x.sub(x).is_zero()
    assert x.add(x) == x.scale(2)
    assert G.unit(C2).mul(x) == x
    assert x.restrict(lambda k: k[2] == 0).is_zero()


def test_cancellations_leave_no_stored_zeros():
    a1, a2, v1 = G.a_gen(C2, 1), G.a_gen(C2, 2), G.s_gen(C2, 1)
    total = a1.add(a2.scale(2)).add(a2.sub(a1))
    assert total.terms == {(0, (), 0b10, 0): F(3)}
    assert a1.add(a2).mul(a1.add(a2)).terms == {}  # a1·a2 + a2·a1 = 0
    mixed = a1.add(a2).add(v1).mul(a1.add(a2))
    assert mixed.terms == {(0, (1,), 0b01, 0): F(1), (0, (1,), 0b10, 0): F(1)}


# -- interior product ---------------------------------------------------------

def test_interior_product_frozen_values():
    e1 = mono(C2, b=0b01)
    e12 = mono(C2, b=0b11)
    assert interior_product(mono(C2, a=0b01), e1) == G.unit(C2)
    assert interior_product(mono(C2, a=0b11), e12) == G.unit(C2).scale(-1)
    assert interior_product(mono(C2, a=0b10), e12) == mono(C2, b=0b01, c=-1)
    assert interior_product(mono(C2, a=0b01), e12) == mono(C2, b=0b10)
    # odd contraction anticommutes past the w-letters of the argument
    assert interior_product(mono(C2, a=0b01), mono(C2, w=0b1, b=0b01)) == mono(
        C2, w=0b1, c=-1
    )
    assert interior_product(mono(C2, w=0b1, a=0b01), e1) == mono(C2, w=0b1)
    e123 = mono(C3, b=0b111)
    assert interior_product(mono(C3, a=0b111), e123) == G.unit(C3).scale(-1)
    assert interior_product(mono(C3, a=0b101), e123) == mono(C3, b=0b010)
    assert interior_product(mono(C3, a=0b010), e123) == mono(C3, b=0b101, c=-1)


def _iota_once(cfg, j, x):
    # single contraction against e_j: test-local, positional sign only
    out = G.zero(cfg)
    for (w, s, a, b), c in x.terms.items():
        bit = 1 << (j - 1)
        if not b & bit:
            continue
        sign = -1 if (bin(w).count("1") + bin(b & (bit - 1)).count("1")) & 1 else 1
        out = out.add(G(cfg, {(w, s, a, b & ~bit): sign * c}))
    return out


def test_interior_product_is_nested_contraction():
    # ω = w_W ⊗ ě_A acts as (−1)-dressed ι_{a₁}∘…∘ι_{a_k}, ascending outermost
    for cfg in (C3, ModelConfig(4, 2, 1)):
        for wmask in range(1 << cfg.e):
            for amask in range(1 << cfg.d):
                omega = mono(cfg, w=wmask, a=amask)
                for bmask in range(1 << cfg.d):
                    for warg in range(1 << cfg.e):
                        if wmask & warg:
                            continue
                        x = mono(cfg, w=warg, b=bmask)
                        got = interior_product(omega, x)
                        want = x
                        for j in sorted(bits(amask), reverse=True):
                            want = _iota_once(cfg, j, want)
                        want = mono(cfg, w=wmask).mul(want)
                        assert got == want, (wmask, amask, bmask, warg)


def test_interior_product_rejects_sym_letters():
    with pytest.raises(ValueError):
        interior_product(G.s_gen(C2, 1), mono(C2, b=0b01))


# -- serialization ------------------------------------------------------------

def test_json_roundtrip():
    x = mono(C2, w=0b1, s=(1, 2), a=0b10, b=0b01, c=F(-7, 3)).add(G.unit(C2))
    data = terms_to_json(x)
    assert terms_from_json(C2, data) == x


@pytest.mark.parametrize(
    "term, message",
    [
        ({"w": [2]}, "generator index out of range"),  # e = 1
        ({"a": [0]}, "generator index out of range"),
        ({"b": [-1]}, "generator index out of range"),
        ({"s": [3]}, "symmetric index out of range"),  # d = 2
    ],
)
def test_json_index_out_of_range(term, message):
    with pytest.raises(ValueError, match=message):
        terms_from_json(C2, [term])


def test_json_huge_index_rejected_before_allocating():
    # the mask 1 << (i − 1) of this index alone would take 12.5 MB
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="generator index out of range"):
            terms_from_json(C2, [{"w": [10**8]}])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_int_and_bool_coefficients_are_stored_as_fractions():
    x = G(C2, {(0, (), 0, 0): 3, (1, (), 0, 0): True, (0, (1,), 0, 0): False})
    assert x.terms == {(0, (), 0, 0): F(3), (1, (), 0, 0): F(1)}
    m = LinearMap(2, 2, {0: {0: 2, 1: True}, 1: {0: False}})
    assert m.cols == {0: {0: F(2), 1: F(1)}}
    for y in (x, x.mul(x).add(x).scale(2), G(C2, {(0, (), 0, 0): 0.5})):
        assert all(type(c) is F for c in y.terms.values())
    for n in (m, m.compose(m).add(m).scale(3), LinearMap(1, 1, {0: {0: 0.5}})):
        assert all(type(c) is F for col in n.cols.values() for c in col.values())


def test_sym_words_order_and_count():
    words = list(sym_words(2, 2))
    assert words[0] == ()
    assert len(words) == 6  # (), (1), (2), (11), (12), (22)
    assert all(tuple(sorted(w)) == w for w in words)
