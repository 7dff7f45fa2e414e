"""Basic perturbation lemma over finite-dimensional graded spaces.

Everything is an exact sparse matrix over ℚ.  A contraction is the five-tuple
(d_B, d_A, f, g, h) with f g = 1, 1 − g f = d_B h + h d_B and the side
conditions f h = 0, h h = 0, h g = 0; a perturbation is t with (d_B + t)²
= 0 and t h nilpotent.  The transferred maps are read off the two series
h′ = (1 + h t)^{−1} h and g′ = (1 + h t)^{−1} g (M. Crainic, arXiv:math/0403266).
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .rng import SplitRng
from .sparse import LinearMap


@dataclass(frozen=True)
class Contraction:
    d_b: LinearMap
    d_a: LinearMap
    f: LinearMap
    g: LinearMap
    h: LinearMap

    def validate(self) -> None:
        db, da, f, g, h = self.d_b, self.d_a, self.f, self.g, self.h
        if f.dom != db.dom or f.cod != da.dom:
            raise ValueError("f must map B to A")
        if g.dom != da.dom or g.cod != db.dom:
            raise ValueError("g must map A to B")
        if h.dom != db.dom or h.cod != db.dom:
            raise ValueError("h must be an endomorphism of B")
        if not db.compose(db).is_zero():
            raise ValueError("d_B is not square-zero")
        if not da.compose(da).is_zero():
            raise ValueError("d_A is not square-zero")
        if f.compose(g) != LinearMap.identity(da.dom):
            raise ValueError("f g != 1")
        if not f.compose(db).sub(da.compose(f)).is_zero():
            raise ValueError("f is not a chain map")
        if not g.compose(da).sub(db.compose(g)).is_zero():
            raise ValueError("g is not a chain map")
        one_b = LinearMap.identity(db.dom)
        if one_b.sub(g.compose(f)) != db.compose(h).add(h.compose(db)):
            raise ValueError("h is not a contracting homotopy")
        if not f.compose(h).is_zero():
            raise ValueError("side condition f h = 0 fails")
        if not h.compose(h).is_zero():
            raise ValueError("side condition h h = 0 fails")
        if not h.compose(g).is_zero():
            raise ValueError("side condition h g = 0 fails")


@dataclass(frozen=True)
class Perturbation:
    t: LinearMap
    nilpotency: int  # least k with (t h)^k = 0


def make_perturbation(c: Contraction, t: LinearMap) -> Perturbation:
    if t.dom != c.d_b.dom or t.cod != c.d_b.dom:
        raise ValueError("t must be an endomorphism of B")
    d = c.d_b.add(t)
    if not d.compose(d).is_zero():
        raise ValueError("(d_B + t)² != 0")
    k = t.compose(c.h).nilpotency_index(t.dom + 1)
    if k is None:
        raise ValueError("t h is not nilpotent")
    return Perturbation(t, k)


def alternating_series(term, step, bound: int, name: str):
    """Σ_k (−1)^k step^k(term), summed up to the first zero term.

    Works on `GradedElement` and `LinearMap` alike: the sum starts from
    term.scale(0), and a zero term that stopped it with a truncation flag
    passes the flag on.  A series still running after `bound` steps is an
    implementation bug.
    """
    acc = term.scale(0)
    sign = 1
    for _ in range(bound):
        if term.is_zero():
            break
        acc = acc.add(term.scale(sign))
        term = step(term)
        sign = -sign
    if not term.is_zero():
        raise RuntimeError(f"{name} series failed to terminate")
    return acc.add(term) if getattr(term, "truncated", False) else acc


def x_series(c: Contraction, t: LinearMap, bound: int) -> LinearMap:
    """X = Σ_k (−1)^k (t h)^k t, summed until a power vanishes."""
    return alternating_series(t, t.compose(c.h).compose, bound, "X")


def g_series(c: Contraction, t: LinearMap, bound: int) -> LinearMap:
    """g′ = Σ_k (−1)^k (h t)^k g, stepping t then h on g's columns; h t is never formed."""
    return alternating_series(c.g, lambda m: c.h.compose(t.compose(m)), bound, "g′")


def transfer(c: Contraction, t: LinearMap, bound: int) -> Contraction:
    """The perturbed five-tuple, with no square-zero or output validation.

    f′ = f − f t h′ and d_a′ = d_a + f t g′, where h′ = Σ_k (−1)^k (h t)^k h
    must end within `bound` steps and g′ is `g_series`.  No Perturbation
    invariant is needed: in the Todd route (d_B + T)² need not vanish.
    """
    ht = c.h.compose(t)
    h_new = alternating_series(c.h, ht.compose, bound, "h′")
    if h_new != c.h.sub(ht.compose(h_new)):
        raise ValueError("h′ series does not solve its fixed-point equation")
    # (h t)^k g = h (t h)^{k−1} t g, so g′ runs one term longer than h′
    g_new = g_series(c, t, bound + 1)
    ft = c.f.compose(t)
    return Contraction(c.d_b.add(t), c.d_a.add(ft.compose(g_new)),
                       c.f.sub(ft.compose(h_new)), g_new, h_new)


def perturb(c: Contraction, p: Perturbation) -> Contraction:
    c.validate()
    out = transfer(c, p.t, p.nilpotency)
    out.validate()
    return out


# -- random instances --------------------------------------------------------

def _exp_pair(nu: LinearMap, bound: int) -> tuple[LinearMap, LinearMap]:
    """(exp ν, exp −ν) for nilpotent ν."""
    u = LinearMap.identity(nu.dom)
    inv = LinearMap.identity(nu.dom)
    term = LinearMap.identity(nu.dom)
    fact = 1
    for k in range(1, bound + 1):
        term = nu.compose(term)
        if term.is_zero():
            return u, inv
        fact *= k
        u = u.add(term.scale(Fraction(1, fact)))
        inv = inv.add(term.scale(Fraction((-1) ** k, fact)))
    raise ValueError("nu is not nilpotent within the expected bound")


_LEVELS = 4  # filtration depth; exp(ν) then has ≤ _LEVELS + 1 terms


def _level(index: int, a_dim: int) -> int:
    return 0 if index < a_dim else 1 + ((index - a_dim) // 2) % _LEVELS


def _raising_map(rng: SplitRng, a_dim: int, cones: int) -> LinearMap:
    """Sparse map that strictly raises the cone-level filtration (A at level 0)."""
    b_dim = a_dim + 2 * cones
    cols = {}
    for j in range(b_dim):
        above = [i for i in range(b_dim) if _level(i, a_dim) > _level(j, a_dim)]
        col = {}
        for _ in range(min(2, len(above))):
            c = rng.maybe_zero_fraction()
            if c:
                col[rng.choice(above)] = c
        if col:
            cols[j] = col
    return LinearMap(b_dim, b_dim, cols)


def random_contraction(rng: SplitRng, a_dim: int, cones: int) -> Contraction:
    """B = A ⊕ (acyclic two-dim cones), conjugated by exp(ν).

    ν strictly raises a filtration that d_B and h preserve, so the conjugate
    is again a contraction and keeps all three side conditions.
    """
    b_dim = a_dim + 2 * cones
    db_cols = {}
    h_cols = {}
    for i in range(cones):
        x, y = a_dim + 2 * i, a_dim + 2 * i + 1
        c = rng.fraction()
        db_cols[x] = {y: c}
        h_cols[y] = {x: 1 / c}
    db = LinearMap(b_dim, b_dim, db_cols)
    h = LinearMap(b_dim, b_dim, h_cols)
    f = LinearMap(b_dim, a_dim, {j: {j: Fraction(1)} for j in range(a_dim)})
    g = LinearMap(a_dim, b_dim, {j: {j: Fraction(1)} for j in range(a_dim)})
    u, inv = _exp_pair(_raising_map(rng, a_dim, cones), _LEVELS + 1)
    return Contraction(
        d_b=u.compose(db).compose(inv),
        d_a=LinearMap.zero(a_dim, a_dim),
        f=f.compose(inv),
        g=u.compose(g),
        h=u.compose(h).compose(inv),
    )


def random_perturbation(rng: SplitRng, c: Contraction, a_dim: int, cones: int) -> Perturbation:
    """t = exp(μ) d_B exp(−μ) − d_B for a fresh strictly-raising μ.

    Square-zero of d_B + t is automatic (it is a conjugate of d_B), and t h
    raises the filtration, hence is nilpotent.
    """
    u, inv = _exp_pair(_raising_map(rng, a_dim, cones), _LEVELS + 1)
    t = u.compose(c.d_b).compose(inv).sub(c.d_b)
    return make_perturbation(c, t)
