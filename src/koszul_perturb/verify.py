"""Named invariant suites over every module, reported as exact checks.

Each suite is a list of (name, thunk) pairs; a thunk returns (ok, lhs, rhs)
with lhs/rhs short canonical strings (values when small, sha256 digests
otherwise).  A law checked case by case is a generator of per-case outcomes,
a failure detail string or None where the law holds; `_law` makes it a thunk
whose one `_tally` counts the cases.  A suite's preconditions on (d, e, m)
live in `_PRECONDITIONS`, beside the size measures, and `run_suite` checks
both before any suite is built.  Every check draws randomness from its own
child stream of the single suite seed, so results are independent of
execution order; checks run one after another and the report lists them
sorted by name.

Three checks are honest about measured failures rather than weakened to
pass: connection_total_integrability fails for generic curvature at d >= 2
(the recursion does not close; the diagonal subfamily check passes),
todd_pigti_step_display fails at the middle wedge degrees 0 < l < d (the
measured single-step law has coefficients 1/j, see todd_pigti_fresh_step),
and hom_derivation_pt_collapse fails at d = 3, where P_T(g) also has terms
with two or more generator letters.  See the README for the full status table.
"""
from __future__ import annotations

import functools
import hashlib
import json
import math
import time
from dataclasses import dataclass
from fractions import Fraction

from .algebra import (
    GradedElement,
    ModelConfig,
    interior_product,
    key_parity,
    terms_to_json,
)
from .combinatorics import (
    bernoulli_recursion_check,
    compositions_of_partition,
    erased_compositions,
    lemma_frac_check,
    partitions_of,
)
from .connection import (
    CurvatureInput,
    alt_power,
    build_connection,
    first_order_part,
    k1,
    r_bar_op,
    r_tilde_op,
    random_curvature,
    square_sums,
    wedge_generator_value,
)
from .homcomplex import (
    EndSpace,
    WedgeSpace,
    apply_end,
    d_hom,
    end_contractions,
    identity_end,
    matrix_callable,
    p_k_tensor,
    p_t,
    r_residue,
    tensorize,
)
from .koszul import (
    CheckSpace,
    KoszulSpace,
    d_k,
    d_k_check,
    d_k_tensor,
    i_k,
    i_k_check,
    p_k,
    p_k_check,
    p_k_tilde,
    pi_k,
    pi_k_check,
    twist,
    untwist,
)
from .perturbation import (
    Contraction,
    perturb,
    random_contraction,
    random_perturbation,
    transfer,
    x_series,
)
from .rational import format_rational
from .rng import SplitRng
from .sparse import LinearMap, matrix_of
from .todd import (
    bernoulli,
    perturbation_t,
    perturbation_t_value,
    perturbed_contractions,
    q_sigma,
    q_sigma_step,
    rho_forms,
    todd_det,
    todd_exp,
    todd_series_coeff,
)

SUITES = ("koszul", "hom", "perturbation", "connection", "todd", "combinatorics")


# -- report ----------------------------------------------------------------

@dataclass(frozen=True)
class CheckResult:
    name: str
    status: str  # "pass" | "fail"
    lhs: str
    rhs: str
    elapsed_ms: int


@dataclass(frozen=True)
class Report:
    suite: str
    config: ModelConfig
    seed: int
    checks: tuple

    @property
    def overall(self) -> bool:
        return all(c.status == "pass" for c in self.checks)

    def to_dict(self, mask_timing: bool = False) -> dict:
        return {
            "suite": self.suite,
            "config": {"d": self.config.d, "e": self.config.e, "m": self.config.m},
            "seed": self.seed,
            "checks": [
                {
                    "name": c.name,
                    "status": c.status,
                    "lhs": c.lhs,
                    "rhs": c.rhs,
                    "elapsed_ms": 0 if mask_timing else c.elapsed_ms,
                }
                for c in self.checks
            ],
            "overall": self.overall,
        }

    def to_json(self, mask_timing: bool = False) -> str:
        return json.dumps(self.to_dict(mask_timing), indent=2)

    def to_text(self) -> str:
        lines = [f"suite {self.suite}  d={self.config.d} e={self.config.e} m={self.config.m}  seed={self.seed}"]
        for c in self.checks:
            lines.append(f"  {c.status.upper():4} {c.name} ({c.elapsed_ms} ms)")
            if c.status == "fail":
                lines.append(f"       lhs: {c.lhs}")
                lines.append(f"       rhs: {c.rhs}")
        lines.append(f"overall: {'pass' if self.overall else 'fail'}")
        return "\n".join(lines)


# -- serialization helpers ---------------------------------------------------

def _digest(s: str) -> str:
    return "sha256:" + hashlib.sha256(s.encode("utf-8")).hexdigest()[:16]


def _ser_elem(x: GradedElement) -> str:
    data = json.dumps(terms_to_json(x), separators=(",", ":"))
    return data if len(data) <= 160 else _digest(data)


def _ser_map(m: LinearMap) -> str:
    entries = [[i, j, format_rational(c)] for i, j, c in m.entries()]
    data = json.dumps(entries, separators=(",", ":"))
    body = data if len(data) <= 120 else _digest(data)
    return f"entries={len(entries)};{body}"


def _restrict_cols(m: LinearMap, cols) -> LinearMap:
    keep = set(cols)
    return LinearMap(m.dom, m.cod, {j: col for j, col in m.cols.items() if j in keep})


def _tally(outcomes, first_detail: str = "all equal") -> tuple:
    """(ok, lhs, rhs) of per-case outcomes: a failure detail, or None where the law holds."""
    outcomes = list(outcomes)
    bad = [o for o in outcomes if o is not None]
    if bad:
        return False, f"failures={len(bad)}/{len(outcomes)}; first: {bad[0]}", first_detail
    return True, f"checked={len(outcomes)}", f"checked={len(outcomes)}"


def _law(cases):
    """The check thunk of a generator of per-case outcomes."""
    return lambda: _tally(cases())


# -- koszul suite ------------------------------------------------------------

def _homotopy(d: LinearMap, p: LinearMap, ipi: LinearMap, safe) -> tuple:
    """d p + p d = 1 − i π, compared on the truncation-safe columns."""
    lhs = _restrict_cols(d.compose(p).add(p.compose(d)), safe)
    rhs = _restrict_cols(LinearMap.identity(d.dom).sub(ipi), safe)
    return lhs == rhs, _ser_map(lhs), _ser_map(rhs)


def _koszul_kit(space, d, p, pi, i, bottom_b: int):
    """(homotopy, p² = 0, π i = 1) checks of a Koszul contraction onto span{(w, (), 0, bottom_b)}."""

    def homotopy():
        d_mat = matrix_of(d, space, allow_truncation=True)
        ipi = matrix_of(lambda x: i(pi(x)), space)
        return _homotopy(d_mat, matrix_of(p, space), ipi, space.truncation_safe_indices())

    def p_squared():
        m = matrix_of(lambda x: p(p(x)), space)
        return m.is_zero(), _ser_map(m), _ser_map(LinearMap.zero(space.dim, space.dim))

    @_law
    def projection():
        for w in range(1 << space.config.e):
            x = GradedElement(space.config, {(w, (), 0, bottom_b): 1})
            yield None if pi(i(x)) == x else f"w={w}"

    return homotopy, p_squared, projection


def _suite_koszul(cfg: ModelConfig, rng: SplitRng):
    ks = KoszulSpace(cfg)
    cs = CheckSpace(cfg)
    homotopy, pk_squared, projection = _koszul_kit(ks, d_k, p_k, pi_k, i_k, 0)
    dual_homotopy, dual_pk_squared, dual_projection = _koszul_kit(
        cs, d_k_check, p_k_check, pi_k_check, i_k_check, cfg.full_b
    )

    @_law
    def ptilde_commutator():
        for i in ks.truncation_safe_indices():
            key = ks.keys[i]
            x = ks.element(key)
            got = p_k_tilde(d_k(x)).add(d_k(p_k_tilde(x)))
            want = x.scale(len(key[1]) + key[2].bit_count())
            yield None if got == want else f"key={key} got={_ser_elem(got)}"

    @_law
    def twist_roundtrip():
        for key in cs.keys:
            x = cs.element(key)
            yield None if untwist(twist(x)) == x else f"check-key={key}"
        for (w, s, a, _b) in ks.keys:
            y = GradedElement(cfg, {(w, s, a, cfg.full_b): 1})
            yield None if twist(untwist(y)) == y else f"socle-key={(w, s, a)}"

    @_law
    def twist_conjugation():
        # twist o d_K-dual = (-1)^(d-|B|) (d_K(x)1) o twist, and the homotopy
        # conjugates with one extra global sign -- the documented constants.
        for i in cs.truncation_safe_indices():
            key = cs.keys[i]
            x = cs.element(key)
            sign = -1 if (cfg.d - key[3].bit_count()) & 1 else 1
            if twist(d_k_check(x)) != d_k_tensor(twist(x)).scale(sign):
                yield f"d-conj key={key}"
            elif twist(p_k_check(x)) != p_k_tensor(twist(x)).scale(-sign):
                yield f"p-conj key={key}"
            else:
                yield None

    @_law
    def lambda_w_signs():
        # every map commutes with left mult by a 1-form up to (-1)^(parity)
        ops_k = ((d_k, 1), (p_k, 1), (p_k_tilde, 1), (pi_k, 0))
        ops_c = ((d_k_check, 1), (p_k_check, 1), (pi_k_check, 0))
        for space, ops in ((ks, ops_k), (cs, ops_c)):
            for idx in space.truncation_safe_indices():
                key = space.keys[idx]
                x = space.element(key)
                for j in range(1, cfg.e + 1):
                    wl = GradedElement.w_gen(cfg, j)
                    wx = wl.mul(x)
                    if wx.is_zero():
                        continue
                    for op, parity in ops:
                        want = wl.mul(op(x)).scale(-1 if parity else 1)
                        yield None if op(wx) == want else f"op={op.__name__} key={key} w={j}"

    return [
        ("koszul_dual_homotopy", dual_homotopy),
        ("koszul_dual_pk_squared", dual_pk_squared),
        ("koszul_dual_projection", dual_projection),
        ("koszul_homotopy", homotopy),
        ("koszul_lambda_w_signs", lambda_w_signs),
        ("koszul_pk_squared", pk_squared),
        ("koszul_projection", projection),
        ("koszul_ptilde_commutator", ptilde_commutator),
        ("koszul_twist_conjugation", twist_conjugation),
        ("koszul_twist_roundtrip", twist_roundtrip),
    ]


# -- hom suite ---------------------------------------------------------------

def _end_kit(c: Contraction, safe):
    """(f g = 1, homotopy, side conditions) checks of one End contraction."""

    def projection():
        m = c.f.compose(c.g)
        ident = LinearMap.identity(c.d_a.dom)
        return m == ident, _ser_map(m), _ser_map(ident)

    def homotopy():
        return _homotopy(c.d_b, c.h, c.g.compose(c.f), safe)

    def side_conditions():
        zeros = [c.f.compose(c.h), c.h.compose(c.h), c.h.compose(c.g)]
        ok = all(z.is_zero() for z in zeros)
        got = ",".join(str(sum(len(col) for col in z.cols.values())) for z in zeros)
        return ok, f"nonzero-entries={got}", "nonzero-entries=0,0,0"

    return projection, homotopy, side_conditions


def _suite_hom(cfg: ModelConfig, rng: SplitRng):
    es = EndSpace(cfg)
    ks = KoszulSpace(cfg)
    safe_e = es.truncation_safe_indices()
    base_t, base_gv = end_contractions(cfg)
    projection_t, homotopy_t, side_conditions_t = _end_kit(base_t, safe_e)
    projection_gv, homotopy_gv, side_conditions_gv = _end_kit(base_gv, safe_e)

    def residue_factorization():
        r_mat = matrix_of(r_residue, es)
        rhs = base_t.g.compose(base_t.f)
        return r_mat == rhs, _ser_map(r_mat), _ser_map(rhs)

    @_law
    def tensor_roundtrip():
        for key in es.keys:
            f = es.element(key)
            yield None if tensorize(lambda x, f=f: apply_end(f, x), cfg) == f else f"key={key}"

    @_law
    def differential_commutator():
        child = rng.split("differential_commutator")
        checked = attempts = 0
        while checked < 40 and attempts < 400:
            attempts += 1
            fk = child.choice(es.keys)
            xk = child.choice(ks.keys)
            f = es.element(fk)
            x = ks.element(xk)
            df = d_hom(f)
            fx = apply_end(f, x)
            dx = d_k(x)
            lhs = apply_end(df, x)
            sign = -1 if key_parity(fk) else 1
            rhs = d_k(fx).add(apply_end(f, dx).scale(-sign))
            if df.truncated or fx.truncated or dx.truncated or lhs.truncated or rhs.truncated:
                continue
            checked += 1
            yield None if lhs == rhs else f"f={fk} x={xk}"

    @_law
    def derivation_pt_collapse():
        child = rng.split("derivation_pt_collapse")
        for trial in range(20):
            terms = {}
            for _ in range(4):
                w = child.randint(0, (1 << cfg.e) - 1)
                a = child.randint(1, (1 << cfg.d) - 1)  # wedge degree >= 1
                j = child.randint(1, cfg.d)
                s_len = child.randint(0, max(0, cfg.m - 1))
                s = tuple(sorted(child.randint(1, cfg.d) for _ in range(s_len)))
                c = child.maybe_zero_fraction()
                if c:
                    key = (w, s, a, 1 << (j - 1))
                    terms[key] = terms.get(key, 0) + c
            g = GradedElement(cfg, terms)
            yield None if p_t(g) == p_k_tensor(g) else f"trial={trial} g={_ser_elem(g)}"

    @_law
    def identity_element():
        e = identity_end(cfg)
        for key in ks.keys:
            x = ks.element(key)
            yield None if apply_end(e, x) == x else f"key={key}"
        yield None if d_hom(e).is_zero() else "d_hom(identity) != 0"

    return [
        ("hom_derivation_pt_collapse", derivation_pt_collapse),
        ("hom_differential_commutator", differential_commutator),
        ("hom_homotopy_gv", homotopy_gv),
        ("hom_homotopy_t", homotopy_t),
        ("hom_identity_element", identity_element),
        ("hom_projection_gv", projection_gv),
        ("hom_projection_t", projection_t),
        ("hom_residue_factorization", residue_factorization),
        ("hom_side_conditions_gv", side_conditions_gv),
        ("hom_side_conditions_t", side_conditions_t),
        ("hom_tensor_roundtrip", tensor_roundtrip),
    ]


# -- perturbation suite --------------------------------------------------------

def _suite_perturbation(cfg: ModelConfig, rng: SplitRng):
    @functools.cache
    def instances():
        out = []
        for trial in range(8):
            child = rng.split("transfer").split(f"pair{trial}")
            a_dim = child.randint(1, 6)
            cones = child.randint(1, 10)
            c = random_contraction(child.split("c"), a_dim, cones)
            p = random_perturbation(child.split("t"), c, a_dim, cones)
            out.append((c, p))
        return out

    @_law
    def transfer_identities():
        for idx, (c, p) in enumerate(instances()):
            try:
                perturb(c, p)  # validates input and output five-tuples
            except ValueError as exc:
                yield f"pair={idx}: {exc}"
            else:
                yield None

    @_law
    def fixed_point():
        for idx, (c, p) in enumerate(instances()):
            x = x_series(c, p.t, p.nilpotency)
            yield None if x == p.t.sub(p.t.compose(c.h).compose(x)) else f"pair={idx}"

    @_law
    def nilpotency():
        for idx, (c, p) in enumerate(instances()):
            k = p.t.compose(c.h).nilpotency_index(p.nilpotency)
            yield (f"pair={idx}: power not zero" if k is None
                   else f"pair={idx}: index not minimal" if k < p.nilpotency else None)

    @_law
    def zero_idempotent():
        for idx, (c, _p) in enumerate(instances()):
            yield None if transfer(c, LinearMap.zero(c.d_b.dom, c.d_b.dom), 1) == c else f"pair={idx}"

    return [
        ("perturbation_fixed_point", fixed_point),
        ("perturbation_nilpotency", nilpotency),
        ("perturbation_transfer_identities", transfer_identities),
        ("perturbation_zero_idempotent", zero_idempotent),
    ]


# -- connection suite -----------------------------------------------------------

def _integrability_defects(cc) -> list:
    """Nonzero sums K^i K^j on generators, skipping truncated (unsafe) degrees."""
    return [f"gen={tag} n={n} defect={_ser_elem(acc)}" for tag, n, acc in square_sums(cc)]


def _curvatures(rng: SplitRng, cfg: ModelConfig, label: str, runs: int) -> list:
    child = rng.split(label)
    return [random_curvature(child.split(t), cfg.d, cfg.e) for t in range(runs)]


def _connection_depth(cfg: ModelConfig) -> int:
    """The recursion depth the suites build the connection to."""
    return min(cfg.e, 6)


def _suite_connection(cfg: ModelConfig, rng: SplitRng):
    mo = _connection_depth(cfg)
    runs = 3

    @_law
    def curvature_roundtrip():
        for idx, r in enumerate(_curvatures(rng, cfg, "roundtrip", runs)):
            yield None if CurvatureInput.from_json(r.to_json()) == r else f"run={idx}"

    @_law
    def k1_square_split():
        for idx, r in enumerate(_curvatures(rng, cfg, "ksq", runs)):
            op1 = k1(r, cfg)
            rt, rb = r_tilde_op(r, cfg), r_bar_op(r, cfg)
            lhs = GradedElement.zero(cfg)
            rhs = GradedElement.zero(cfg)
            for j in range(1, cfg.d + 1):
                vbar = GradedElement.a_gen(cfg, j)
                marker = GradedElement.b_gen(cfg, j)
                lhs = lhs.add(op1(op1(vbar)).mul(marker))
                rbv = rb(vbar)
                rhs = rhs.add(rt(rbv).add(rb(rbv)).mul(marker))
            yield None if lhs == rhs else f"run={idx} lhs={_ser_elem(lhs)} rhs={_ser_elem(rhs)}"

    @functools.cache
    def built():
        return [(r, build_connection(r, cfg, max_order=mo)) for r in _curvatures(rng, cfg, "build", runs)]

    def coefficient(k: int, weight: Fraction):
        def cases():
            for idx, (r, cc) in enumerate(built()):
                got = first_order_part(cc.generator_values[k], k)
                want = alt_power(r, cfg, k).scale(weight)
                yield None if got == want else f"run={idx} got={_ser_elem(got)} want={_ser_elem(want)}"

        return lambda: _tally(cases(), f"coefficient {weight}")

    @_law
    def k3_vanishing():
        for idx, (_r, cc) in enumerate(built()):
            for k in range(3, cc.max_order + 1, 2):
                got = first_order_part(cc.generator_values[k], k)
                yield None if got.is_zero() else f"run={idx} k={k} got={_ser_elem(got)}"

    @_law
    def total_integrability():
        for idx, (_r, cc) in enumerate(built()):
            defects = _integrability_defects(cc)
            yield f"run={idx}: {len(defects)} nonzero sums; first: {defects[0]}" if defects else None

    @_law
    def diagonal_integrability():
        child = rng.split("diagonal")
        for trial in range(runs):
            coeffs = {}
            for k in range(1, cfg.d + 1):
                w = child.randint(1, cfg.e)
                coeffs[(w, k, k, k)] = child.fraction()
            r = CurvatureInput.make(cfg.d, cfg.e, coeffs)
            cc = build_connection(r, cfg, max_order=mo)
            defects = _integrability_defects(cc)
            yield f"trial={trial}: first: {defects[0]}" if defects else None

    checks = [
        ("connection_curvature_roundtrip", curvature_roundtrip),
        ("connection_diagonal_integrability", diagonal_integrability),
        ("connection_k1_square_split", k1_square_split),
        ("connection_total_integrability", total_integrability),
    ]
    if mo >= 2:
        checks.append(("connection_k2_coefficient", coefficient(2, Fraction(1, 12))))
    if mo >= 3:
        checks.append(("connection_k3_vanishing", k3_vanishing))
    if mo >= 4:
        checks.append(("connection_k4_coefficient", coefficient(4, Fraction(-1, 720))))
    return checks


# -- todd suite -------------------------------------------------------------------

def top_degree_mismatches(r: CurvatureInput, cfg: ModelConfig, td, t) -> tuple[int, list]:
    """q_σ(η) = Td ⌟ η on every top-degree wedge basis η: (checked, [(key, got, want)]).

    A truncated side counts as a mismatch.
    """
    ws = WedgeSpace(cfg)
    top = [key for key in ws.keys if key[3] == cfg.full_b]
    bad = []
    for key in top:
        eta = ws.element(key)
        got = q_sigma(r, cfg, eta, t)
        want = interior_product(td.value, eta)
        if got.truncated or want.truncated or got != want:
            bad.append((key, got, want))
    return len(top), bad


# The single-step laws: ρ_j ⌟ η enters the step with weight 1/rule(d, l, j).
STEP_LAWS = {
    "display": lambda d, l, j: d - l + j,  # as displayed
    "fresh": lambda d, l, j: j,  # as measured
}


def step_law_mismatches(r: CurvatureInput, cfg: ModelConfig, t, rules) -> tuple[int, dict]:
    """One q_σ step against Σ_j ρ_j ⌟ η / rule(d, l, j) on every wedge basis η.

    The step is computed once per η for all rules.  Returns (checked,
    {name: [(key, l, got, want)] for each η where that rule's law fails}).
    """
    ws = WedgeSpace(cfg)
    rhos = list(enumerate(rho_forms(r, cfg), 1))
    bad = {name: [] for name in rules}
    for key in ws.keys:
        eta = ws.element(key)
        l = key[3].bit_count()
        got = q_sigma_step(eta, t)
        contractions = [(j, interior_product(rj, eta)) for j, rj in rhos]
        for name, rule in rules.items():
            want = GradedElement.zero(cfg)
            for j, contr in contractions:
                want = want.add(contr.scale(Fraction(1, rule(cfg.d, l, j))))
            if got != want:
                bad[name].append((key, l, got, want))
    return ws.dim, bad


def _suite_todd(cfg: ModelConfig, rng: SplitRng):
    ws = WedgeSpace(cfg)
    runs = 3

    def bernoulli_table():
        want = [
            Fraction(1), Fraction(1, 2), Fraction(1, 6), Fraction(0), Fraction(-1, 30),
            Fraction(0), Fraction(1, 42), Fraction(0), Fraction(-1, 30), Fraction(0),
            Fraction(5, 66), Fraction(0), Fraction(-691, 2730),
        ]
        got = [bernoulli(n) for n in range(len(want))]
        ok = got == want
        return ok, ",".join(map(format_rational, got)), ",".join(map(format_rational, want))

    def series_coefficients():
        want = [Fraction(1), Fraction(1, 2), Fraction(1, 12), Fraction(0), Fraction(-1, 720),
                Fraction(0), Fraction(1, 30240)]
        got = [todd_series_coeff(n) for n in range(len(want))]
        ok = got == want and all(
            todd_series_coeff(n) == bernoulli(n) / math.factorial(n) for n in range(2, 11)
        )
        return ok, ",".join(map(format_rational, got)), ",".join(map(format_rational, want))

    @_law
    def route_agreement():
        for idx, r in enumerate(_curvatures(rng, cfg, "routes", runs)):
            yield None if todd_exp(r, cfg).value == todd_det(r, cfg).value else f"run={idx}"

    @_law
    def zero_curvature():
        r = CurvatureInput.zero(cfg.d, cfg.e)
        yield None if todd_exp(r, cfg).value == GradedElement.unit(cfg) else "todd(0) != 1"
        yield None if perturbation_t_value(r, cfg).is_zero() else "t(0) != 0"
        t = perturbation_t(r, cfg)
        for key in ws.keys:
            eta = ws.element(key)
            yield None if q_sigma(r, cfg, eta, t) == eta else f"q(0) moved key={key}"

    @_law
    def top_degree_identity():
        for idx, r in enumerate(_curvatures(rng, cfg, "main", runs)):
            checked, misses = top_degree_mismatches(r, cfg, todd_det(r, cfg), perturbation_t(r, cfg))
            for key, got, want in misses:
                yield f"run={idx} eta={key} got={_ser_elem(got)} want={_ser_elem(want)}"
            yield from [None] * (checked - len(misses))

    @_law
    def perturbed_transfer():
        r = _curvatures(rng, cfg, "engine", runs)[0]
        q_mat = matrix_callable(perturbed_contractions(r, cfg), ws)  # asserts f∘T = 0 for both projections
        t = perturbation_t(r, cfg)
        for key in ws.keys:
            eta = ws.element(key)
            yield None if q_sigma(r, cfg, eta, t) == q_mat(eta) else f"eta={key}"

    @functools.cache
    def step_passes():
        return [step_law_mismatches(r, cfg, perturbation_t(r, cfg), STEP_LAWS)
                for r in _curvatures(rng, cfg, "pigti", runs)]

    def step_law(name):
        @_law
        def check():
            for idx, (checked, misses) in enumerate(step_passes()):
                for key, l, got, want in misses[name]:
                    yield f"run={idx} eta={key} l={l} got={_ser_elem(got)} want={_ser_elem(want)}"
                yield from [None] * (checked - len(misses[name]))

        return check

    @_law
    def t_first_order():
        for idx, r in enumerate(_curvatures(rng, cfg, "tfo", runs)):
            tv = perturbation_t_value(r, cfg)
            first = tv.restrict(lambda k: k[0].bit_count() == 1)
            yield None if first == wedge_generator_value(r, cfg) else f"run={idx} k=1"
            if idx == 0:
                cc = build_connection(r, cfg, max_order=_connection_depth(cfg))
                for k in range(2, cc.max_order + 1):
                    got = first_order_part(cc.generator_values[k], k)
                    want = tv.restrict(lambda key: key[0].bit_count() == k)
                    yield None if got == want else f"run={idx} k={k}"

    @_law
    def lambda_w_linearity():
        r = _curvatures(rng, cfg, "linear", runs)[0]
        t = perturbation_t(r, cfg)
        base = {key: q_sigma(r, cfg, ws.element(key), t) for key in ws.keys}
        for key in ws.keys:
            for j in range(1, cfg.e + 1):
                wl = GradedElement.w_gen(cfg, j)
                weta = wl.mul(ws.element(key))
                if not weta.is_zero():
                    yield None if q_sigma(r, cfg, weta, t) == wl.mul(base[key]) else f"eta={key} w={j}"

    return [
        ("todd_bernoulli_table", bernoulli_table),
        ("todd_lambda_w_linearity", lambda_w_linearity),
        ("todd_perturbed_transfer", perturbed_transfer),
        ("todd_pigti_fresh_step", step_law("fresh")),
        ("todd_pigti_step_display", step_law("display")),
        ("todd_route_agreement", route_agreement),
        ("todd_series_coefficients", series_coefficients),
        ("todd_t_first_order", t_first_order),
        ("todd_top_degree_identity", top_degree_identity),
        ("todd_zero_curvature", zero_curvature),
    ]


# -- combinatorics suite -----------------------------------------------------------

def _suite_combinatorics(cfg: ModelConfig, rng: SplitRng):
    @_law
    def fraction_lemma():
        for l in range(1, 13):
            for parts in partitions_of(l, max_parts=6):
                lhs, rhs = lemma_frac_check(parts)
                yield None if lhs == rhs else f"partition={parts} lhs={lhs} rhs={rhs}"

    @_law
    def bernoulli_recursion():
        for n in range(2, 16):
            lhs, rhs = bernoulli_recursion_check(n)
            yield None if lhs == rhs else f"n={n} lhs={lhs} rhs={rhs}"

    @_law
    def composition_count():
        for l in range(1, 10):
            by_k = {}
            for parts in partitions_of(l):
                by_k.setdefault(len(parts), []).append(parts)
            for k, plist in by_k.items():
                got = sum(len(compositions_of_partition(p)) for p in plist)
                yield None if got == math.comb(l - 1, k - 1) else f"l={l} k={k} got={got}"

    @_law
    def examples():
        for label, got, want in (
            ("C(1,2)", len(compositions_of_partition((1, 2))), 2),
            ("C(2,2)", len(compositions_of_partition((2, 2))), 1),
            ("C(1,1,2)", len(compositions_of_partition((1, 1, 2))), 3),
            ("erased(1,1,2)", len(erased_compositions((1, 1, 2))), 3),
            ("frac(1,2)", lemma_frac_check((1, 2)), (Fraction(1, 2), Fraction(1, 2))),
            ("bernoulli(2)", bernoulli_recursion_check(2), (Fraction(1, 6), Fraction(1, 6))),
        ):
            yield None if got == want else label

    return [
        ("comb_bernoulli_recursion", bernoulli_recursion),
        ("comb_composition_count", composition_count),
        ("comb_examples", examples),
        ("comb_fraction_lemma", fraction_lemma),
    ]


# -- runner -------------------------------------------------------------------------

_SUITE_BUILDERS = {
    "koszul": _suite_koszul,
    "hom": _suite_hom,
    "perturbation": _suite_perturbation,
    "connection": _suite_connection,
    "todd": _suite_todd,
    "combinatorics": _suite_combinatorics,
}


def _run_check(item):
    name, thunk = item
    start = time.perf_counter()
    try:
        ok, lhs, rhs = thunk()
    except Exception as exc:  # a crashed check is a failed check, not a crashed suite
        ok, lhs, rhs = False, f"error: {type(exc).__name__}: {exc}", ""
    elapsed = int((time.perf_counter() - start) * 1000)
    return CheckResult(name, "pass" if ok else "fail", lhs, rhs, elapsed)


# Largest basis a suite may enumerate: dim K = 2^(e+d)·C(d+m, m) for the
# koszul and connection suites, dim End = 2^d·dim K for those that build End
# matrices.  The largest End any documented config uses is 35,840 at (3,4,4).
# The q-sigma and todd commands never enumerate the symmetric slot, so their
# measure is 2^(e+2d), the wedge part of dim End; it also bounds Td's 2^d minors.
_MAX_BASIS_DIM = 1 << 16
_SIZE_MEASURES = {  # target: (power of d in the wedge bits, symmetric slot counted, label)
    **{f"suite {suite}": (1, True, "dim K") for suite in ("koszul", "connection")},
    **{f"suite {suite}": (2, True, "dim End") for suite in ("hom", "todd", "all")},
    **{command: (2, False, "2^(e+2d)") for command in ("q-sigma", "todd")},
}


def _check_size(target: str, cfg: ModelConfig) -> None:
    """Reject an oversized config from (d, e, m) alone, before any allocation.
    The target is a CLI command or "suite <name>"; one without a measure has no cap."""
    measure = _SIZE_MEASURES.get(target)
    if measure is None:
        return
    power, symmetric, label = measure
    wedge_bits = cfg.e + power * cfg.d
    # 2^wedge_bits alone is tested first, so a huge e or d never becomes a huge int
    if wedge_bits > _MAX_BASIS_DIM.bit_length() or (
        (1 << wedge_bits) * (math.comb(cfg.d + cfg.m, cfg.d) if symmetric else 1) > _MAX_BASIS_DIM
    ):
        raise ValueError(
            f"config d={cfg.d} e={cfg.e} m={cfg.m} is too large for {target} "
            f"(need {label} <= {_MAX_BASIS_DIM})"
        )


# What a suite needs of (d, e, m) besides its size, in the order it is checked.
_PRECONDITIONS = {
    "connection": (
        (lambda cfg: cfg.m >= 2, "m >= 2 (curvature is quadratic)"),
        (lambda cfg: cfg.e >= 1, "e >= 1"),
    ),
    "hom": (
        (lambda cfg: cfg.m >= 1, "m >= 1 (no End column is truncation-safe at m = 0)"),
    ),
    "todd": (
        (lambda cfg: cfg.m >= 2, "m >= 2 (curvature is quadratic)"),
        (lambda cfg: cfg.e >= 1, "e >= 1"),
    ),
}


def run_suite(suite: str, cfg: ModelConfig, seed: int = 0) -> Report:
    if suite == "all":
        names = list(SUITES)
    elif suite in _SUITE_BUILDERS:
        names = [suite]
    else:
        raise ValueError(f"unknown suite {suite!r} (expected one of {', '.join(SUITES + ('all',))})")
    _check_size(f"suite {suite}", cfg)
    for name in names:  # every suite's preconditions, before any suite is built
        for holds, need in _PRECONDITIONS.get(name, ()):
            if not holds(cfg):
                raise ValueError(f"{name} suite needs {need}")
    root = SplitRng(seed)
    checks = []
    for name in names:
        checks.extend(_SUITE_BUILDERS[name](cfg, root.split(name)))
    results = [_run_check(item) for item in checks]
    results.sort(key=lambda c: c.name)
    return Report(suite, cfg, seed, tuple(results))
