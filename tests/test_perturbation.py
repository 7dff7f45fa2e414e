"""Basic perturbation lemma over sparse exact-rational matrices."""

from fractions import Fraction as F

import pytest

from koszul_perturb import (
    Contraction,
    EndSpace,
    LinearMap,
    ModelConfig,
    SplitRng,
    make_perturbation,
    matrix_of,
    perturb,
    perturbation_t,
    random_contraction,
    random_curvature,
    transfer,
)
from koszul_perturb.homcomplex import end_contractions, series_bound
from koszul_perturb.perturbation import random_perturbation, x_series
from koszul_perturb.todd import t_commutator


def _three_dim_cone():
    # B = span(e0, x, y) with d x = y; A = span(e0); h y = x
    d_b = LinearMap(3, 3, {1: {2: F(1)}})
    d_a = LinearMap(1, 1, {})
    f = LinearMap(3, 1, {0: {0: F(1)}})
    g = LinearMap(1, 3, {0: {0: F(1)}})
    h = LinearMap(3, 3, {2: {1: F(1)}})
    return Contraction(d_b, d_a, f, g, h)


def test_cancellations_leave_no_stored_zeros():
    a = LinearMap(2, 2, {0: {0: F(1), 1: F(2)}, 1: {0: F(1)}})
    assert a.add(LinearMap(2, 2, {0: {0: F(-1)}, 1: {0: F(-1)}})).cols == {0: {1: F(2)}}
    collapse = LinearMap(2, 2, {0: {0: F(1)}, 1: {0: F(1)}})
    b = LinearMap(2, 2, {0: {0: F(1), 1: F(-1)}, 1: {0: F(1), 1: F(1)}})
    assert collapse.compose(b).cols == {1: {0: F(2)}}  # column 0 cancels to nothing
    assert collapse.apply({0: F(1), 1: F(-1)}) == {}
    assert collapse.apply({0: F(1), 1: F(1)}) == {0: F(2)}


def test_validate_accepts_cone():
    _three_dim_cone().validate()


def test_validate_rejects_broken_homotopy():
    c = _three_dim_cone()
    bad = Contraction(c.d_b, c.d_a, c.f, c.g, c.h.scale(2))
    with pytest.raises(ValueError):
        bad.validate()


def test_validate_rejects_shape_mismatch():
    c = _three_dim_cone()
    with pytest.raises(ValueError):
        Contraction(c.d_b, LinearMap(2, 2, {}), c.f, c.g, c.h).validate()


def test_validate_rejects_non_square_zero():
    c = _three_dim_cone()
    with pytest.raises(ValueError):
        Contraction(c.h.add(c.d_b), c.d_a, c.f, c.g, c.h).validate()


def test_transfer_hand_values():
    c = _three_dim_cone()
    t = LinearMap(3, 3, {0: {2: F(5)}})  # t e0 = 5 y, filtration-raising
    p = make_perturbation(c, t)
    assert p.nilpotency == 1  # t h t = 0 already
    out = perturb(c, p)
    assert out.d_b == c.d_b.add(t)
    assert out.d_a.is_zero()
    assert out.f == c.f
    assert out.h == c.h
    assert out.g.cols == {0: {0: F(1), 1: F(-5)}}  # g' e0 = e0 − 5 x
    out.validate()


def test_x_series_solves_fixed_point():
    # X = t − t h X, summed to the nilpotency bound; three chained cones
    # x_i = e_{2i}, y_i = e_{2i+1}, t x0 = y1, t x1 = y2, so t h t ≠ 0
    d_b = LinearMap(6, 6, {0: {1: F(1)}, 2: {3: F(1)}, 4: {5: F(1)}})
    h = LinearMap(6, 6, {1: {0: F(1)}, 3: {2: F(1)}, 5: {4: F(1)}})
    c = Contraction(d_b, LinearMap(0, 0, {}), LinearMap(6, 0, {}),
                    LinearMap(0, 6, {}), h)
    c.validate()
    t = LinearMap(6, 6, {0: {3: F(1)}, 2: {5: F(1)}})
    p = make_perturbation(c, t)
    assert p.nilpotency == 3
    x = x_series(c, t, p.nilpotency)
    assert x != t  # the correction term t h t is nonzero here
    assert x == t.sub(t.compose(c.h).compose(x))


def test_make_perturbation_rejects_non_square_zero():
    c = _three_dim_cone()
    t = LinearMap(3, 3, {2: {1: F(1)}})  # (d+t)² ≠ 0
    with pytest.raises(ValueError):
        make_perturbation(c, t)


def test_random_instances_transfer_and_validate():
    rng = SplitRng(31)
    for trial in range(8):
        child = rng.split(trial)
        a_dim = child.randint(1, 5)
        cones = child.randint(1, 8)
        c = random_contraction(child.split("c"), a_dim, cones)
        c.validate()
        p = random_perturbation(child.split("t"), c, a_dim, cones)
        out = perturb(c, p)
        out.validate()
        # transferred differential is the perturbed one
        assert out.d_b == c.d_b.add(p.t)


def test_transfer_bound_equals_perturb():
    rng = SplitRng(7).split("pair")
    c = random_contraction(rng.split("c"), 2, 4)
    p = random_perturbation(rng.split("t"), c, 2, 4)
    assert transfer(c, p.t, p.nilpotency) == perturb(c, p)


def _random_map(rng, dom, cod):
    """dom → cod with two random entries per column."""
    return LinearMap(dom, cod, {j: {rng.randint(0, cod - 1): rng.fraction() for _ in range(2)}
                                for j in range(dom)})


def _crossing_inputs(seed):
    """A random pair's t plus (1 − g f) p g f, which maps A into the cones, and
    g q (1 − g f), which maps the cones into A.  The first is killed by h's
    image (f h = 0) and the second lands in g's image, which h kills (h g = 0),
    so t h stays nilpotent while f t ≠ 0 moves f and d_a."""
    rng = SplitRng(seed).split("crossing")
    a_dim, cones = rng.randint(1, 4), rng.randint(2, 8)
    c = random_contraction(rng.split("c"), a_dim, cones)
    b_dim = a_dim + 2 * cones
    cone_part = LinearMap.identity(b_dim).sub(c.g.compose(c.f))
    into_cones = cone_part.compose(_random_map(rng.split("p"), b_dim, b_dim)).compose(c.g).compose(c.f)
    into_a = c.g.compose(_random_map(rng.split("q"), b_dim, a_dim)).compose(cone_part)
    t = random_perturbation(rng.split("t"), c, a_dim, cones).t.add(into_cones).add(into_a)
    bound = t.compose(c.h).nilpotency_index(b_dim + 1)
    return [(c, t, bound), (c, t, bound + 3)]


def _textbook_inputs(case):
    """(contraction, t, bound) triples: a random pair at its nilpotency index and
    three above; a random pair whose t also crosses between A and the cones, and
    the cone with such a t, so that f and d_a move (a random pair's t raises the
    filtration, so f t = 0 there); or both End contractions with T = [t, −] for a
    seeded curvature."""
    if case == "cone":
        t = LinearMap(3, 3, {0: {2: F(2)}, 1: {0: F(3)}, 2: {0: F(5)}})  # (t h)² = 0
        return [(_three_dim_cone(), t, 2), (_three_dim_cone(), t, 5)]
    if isinstance(case, str):
        return _crossing_inputs(int(case.removeprefix("cross")))
    if isinstance(case, int):
        rng = SplitRng(case).split("textbook")
        a_dim, cones = rng.randint(1, 4), rng.randint(2, 8)
        c = random_contraction(rng.split("c"), a_dim, cones)
        p = random_perturbation(rng.split("t"), c, a_dim, cones)
        return [(c, p.t, p.nilpotency), (c, p.t, p.nilpotency + 3)]
    cfg = ModelConfig(*case)
    r = random_curvature(SplitRng(0).split("textbook"), cfg.d, cfg.e)
    t = perturbation_t(r, cfg)
    t_mat = matrix_of(lambda f: t_commutator(t, f), EndSpace(cfg), allow_truncation=True)
    return [(c, t_mat, series_bound(cfg)) for c in end_contractions(cfg)]


@pytest.mark.parametrize(
    "case", [*range(6), *(f"cross{seed}" for seed in range(4)), "cone", (1, 2, 2), (2, 2, 2)],
    ids=lambda case: "end-" + "".join(map(str, case)) if isinstance(case, tuple) else str(case),
)
def test_transfer_matches_textbook_formulas(case):
    # oracle: f∘(1 − x h), (1 − h x)∘g and h − h x h, composed in the textbook order
    for c, t, bound in _textbook_inputs(case):
        x = x_series(c, t, bound)
        one = LinearMap.identity(c.d_b.dom)
        out = transfer(c, t, bound)
        assert out.d_b == c.d_b.add(t)
        assert out.d_a == c.d_a.add(c.f.compose(x).compose(c.g))
        assert out.f == c.f.compose(one.sub(x.compose(c.h)))
        assert out.g == one.sub(c.h.compose(x)).compose(c.g)
        assert out.h == c.h.sub(c.h.compose(x).compose(c.h))
        assert (out.f, out.g, out.h) != (c.f, c.g, c.h)  # the perturbation moves the data
        if isinstance(case, str):  # f t ≠ 0 and g′ ≠ g, so the f′ and d_a′ corrections are live
            assert not c.f.compose(t).is_zero() and out.g != c.g


def test_nilpotency_index_detects_depth():
    # two cones coupled so that t h survives exactly one round
    d_b = LinearMap(4, 4, {0: {1: F(1)}, 2: {3: F(1)}})
    h = LinearMap(4, 4, {1: {0: F(1)}, 3: {2: F(1)}})
    d_a = LinearMap(0, 0, {})
    f = LinearMap(4, 0, {})
    g = LinearMap(0, 4, {})
    c = Contraction(d_b, d_a, f, g, h)
    c.validate()
    t = LinearMap(4, 4, {0: {2: F(1)}, 1: {3: F(-1)}})  # square-zero coupling
    p = make_perturbation(c, t)
    assert p.nilpotency == 2
    perturb(c, p).validate()


def test_transfer_raises_past_its_series_bound():
    # h′ has `length` nonzero terms h (t h)^k; one step fewer trips the bound
    c = random_contraction(SplitRng(3).split("c"), 2, 6)
    p = random_perturbation(SplitRng(3).split("t"), c, 2, 6)
    th = p.t.compose(c.h)
    h_th_k, length = c.h, 0  # h (t h)^length
    while not h_th_k.is_zero():
        h_th_k, length = h_th_k.compose(th), length + 1
    assert 1 < length <= p.nilpotency
    transfer(c, p.t, length)
    with pytest.raises(RuntimeError, match="^h′ series failed to terminate$"):
        transfer(c, p.t, length - 1)
