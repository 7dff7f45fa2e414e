"""Acceptance criteria, run end to end at exact (zero) tolerance.

Each test records one summary line; a criterion whose mathematical claim
does not hold in this implementation fails its assert after recording the
measured facts — the claims are asserted as stated, never weakened.
"""

import time
from fractions import Fraction as F

from koszul_perturb import (
    GradedElement as G,
    ModelConfig,
    SplitRng,
    alt_power,
    bernoulli_recursion_check,
    build_connection,
    first_order_part,
    lemma_frac_check,
    matrix_of,
    partitions_of,
    perturb,
    q_sigma,
    random_contraction,
    random_curvature,
    run_suite,
    todd_det,
    todd_exp,
)
from koszul_perturb.connection import square_sums
from koszul_perturb.homcomplex import WedgeSpace, apply_end, matrix_callable
from koszul_perturb.koszul import KoszulSpace
from koszul_perturb.perturbation import random_perturbation
from koszul_perturb.todd import perturbation_t, perturbation_t_value, perturbed_contractions
from koszul_perturb.verify import STEP_LAWS, step_law_mismatches, top_degree_mismatches

RUNS = 20
Q_SIGMA_CONFIGS = [(1, 2), (1, 3), (2, 3), (2, 4)]


def _curvatures(label, d, e, runs=RUNS):
    rng = SplitRng(0).split(label)
    return [random_curvature(rng.split(i), d, e) for i in range(runs)]


def test_criterion_1_koszul_suites(criterion_recorder):
    budget, t0 = 5.0, time.time()
    failures = []
    for d in (1, 2, 3):
        for e in (1, 2):
            for m in (2, 3):
                report = run_suite("koszul", ModelConfig(d, e, m), seed=0)
                if not report.overall:
                    failures.append((d, e, m))
    elapsed = time.time() - t0
    status = "PASS" if not failures and elapsed < budget else "FAIL"
    criterion_recorder(
        f"criterion 1 [{status}] koszul suite on d×e×m = {{1,2,3}}×{{1,2}}×{{2,3}}: "
        f"{12 - len(failures)}/12 configs clean in {elapsed:.1f}s (budget {budget:.0f}s)"
    )
    assert not failures and elapsed < budget


def test_criterion_2_hom_suites(criterion_recorder):
    budget, t0 = 30.0, time.time()
    failures = []
    for d in (1, 2):
        for e in (1, 2):
            for m in (2, 3):
                report = run_suite("hom", ModelConfig(d, e, m), seed=0)
                if not report.overall:
                    failures.append((d, e, m))
    elapsed = time.time() - t0
    status = "PASS" if not failures and elapsed < budget else "FAIL"
    criterion_recorder(
        f"criterion 2 [{status}] hom suite (incl. residue factorization) on "
        f"{{1,2}}×{{1,2}}×{{2,3}}: {8 - len(failures)}/8 configs clean in {elapsed:.1f}s "
        f"(budget {budget:.0f}s)"
    )
    assert not failures and elapsed < budget


def test_criterion_3_random_transfer_instances(criterion_recorder):
    budget, t0 = 30.0, time.time()
    rng = SplitRng(12)
    failures = []
    for trial in range(50):
        child = rng.split(f"pair{trial}")
        a_dim = child.randint(1, 20)
        cones = child.randint(1, (200 - a_dim) // 2)
        try:
            c = random_contraction(child.split("c"), a_dim, cones)
            p = random_perturbation(child.split("t"), c, a_dim, cones)
            perturb(c, p)  # validates the five-tuple on both ends
        except ValueError as ex:
            failures.append((trial, str(ex)))
    elapsed = time.time() - t0
    status = "PASS" if not failures and elapsed < budget else "FAIL"
    criterion_recorder(
        f"criterion 3 [{status}] 50 random contraction/perturbation pairs "
        f"(dim ≤ 200) transferred and validated in {elapsed:.1f}s (budget {budget:.0f}s)"
    )
    assert not failures and elapsed < budget


def test_criterion_4_component_coefficients_and_integrability(criterion_recorder):
    budget, t0 = 120.0, time.time()
    cfg = ModelConfig(2, 4, 4)
    coeff_failures, integrability_failures = [], []
    for idx, r in enumerate(_curvatures("criterion4", 2, 4)):
        cc = build_connection(r, cfg, max_order=4)
        if first_order_part(cc.generator_values[2], 2) != alt_power(r, cfg, 2).scale(F(1, 12)):
            coeff_failures.append((idx, 2))
        if not first_order_part(cc.generator_values[3], 3).is_zero():
            coeff_failures.append((idx, 3))
        if first_order_part(cc.generator_values[4], 4) != alt_power(r, cfg, 4).scale(F(-1, 720)):
            coeff_failures.append((idx, 4))
        defects = [n for n, dft in enumerate(cc.closure_defects, start=2) if not dft.is_zero()]
        sums = [n for _tag, n, _sum in square_sums(cc)]
        if defects or sums:
            integrability_failures.append((idx, defects, sorted(set(sums))))
    elapsed = time.time() - t0
    status = "PASS" if not coeff_failures and not integrability_failures else "FAIL"
    criterion_recorder(
        f"criterion 4 [{status}] d=2,e=4,m=4, 20 curvatures: first-order coefficients "
        f"1/12, 0, -1/720 clean on {RUNS - len({i for i, _ in coeff_failures})}/{RUNS}; "
        f"total integrability fails on {len(integrability_failures)}/{RUNS} "
        f"(recursion stops closing at order 3 for generic curvature; "
        f"diagonal subfamily and d=1 stay integrable) [{elapsed:.1f}s]"
    )
    assert not coeff_failures
    assert not integrability_failures, integrability_failures[0]


def test_criterion_5_q_sigma_equals_todd_contraction(criterion_recorder):
    budget, t0 = 300.0, time.time()
    failures, route_failures, checked = [], [], 0
    for d, e in Q_SIGMA_CONFIGS:
        cfg = ModelConfig(d, e, 4)
        for idx, r in enumerate(_curvatures(f"criterion5:{d}:{e}", d, e)):
            via_exp, via_det = todd_exp(r, cfg), todd_det(r, cfg)
            if via_exp.value != via_det.value:
                route_failures.append((d, e, idx))
            n, misses = top_degree_mismatches(r, cfg, via_det, perturbation_t(r, cfg))
            checked += n
            failures += [(d, e, idx, key) for key, _got, _want in misses]
    elapsed = time.time() - t0
    ok = not failures and not route_failures and elapsed < budget
    status = "PASS" if ok else "FAIL"
    criterion_recorder(
        f"criterion 5 [{status}] q_σ(η) = Td ⌟ η on every top-degree basis η, "
        f"(d,e) ∈ {Q_SIGMA_CONFIGS}, 20 curvatures each: {checked} identities, "
        f"{len(failures)} mismatches, exp/det routes agree {80 - len(route_failures)}/80 "
        f"[{elapsed:.1f}s, budget {budget:.0f}s]"
    )
    assert ok, (failures[:1], route_failures[:1])


def test_criterion_6_single_step_normalization(criterion_recorder):
    budget, t0 = 60.0, time.time()
    display_failures, fresh_failures, checked = [], [], 0
    for d, e in Q_SIGMA_CONFIGS:
        cfg = ModelConfig(d, e, 4)
        for idx, r in enumerate(_curvatures(f"criterion6:{d}:{e}", d, e)):
            n, misses = step_law_mismatches(r, cfg, perturbation_t(r, cfg), STEP_LAWS)
            checked += n
            display_failures += [(d, e, idx, l) for _key, l, _got, _want in misses["display"]]
            fresh_failures += [(d, e, idx, l) for _key, l, _got, _want in misses["fresh"]]
    elapsed = time.time() - t0
    status = "PASS" if not display_failures and elapsed < budget else "FAIL"
    bad_cells = sorted({(d, e, l) for d, e, _i, l in display_failures})
    criterion_recorder(
        f"criterion 6 [{status}] single-step law with weights 1/(d−l+j): "
        f"{len(display_failures)}/{checked} basis mismatches, exactly at (d,e,l) ∈ {bad_cells}; "
        f"the measured law Σ_j (1/j)·ρ_j ⌟ η holds on {checked - len(fresh_failures)}/{checked} "
        f"[{elapsed:.1f}s]"
    )
    assert not fresh_failures  # the measured law itself must not regress
    assert not display_failures, bad_cells


def test_criterion_7_fraction_lemma_and_recursion(criterion_recorder):
    budget, t0 = 5.0, time.time()
    failures = 0
    total = 0
    for l in range(1, 13):
        for parts in partitions_of(l, 6):
            total += 1
            lhs, rhs = lemma_frac_check(parts)
            if lhs != rhs:
                failures += 1
    bern_total = 0
    for n in range(2, 16):
        bern_total += 1
        lhs, rhs = bernoulli_recursion_check(n)
        if lhs != rhs:
            failures += 1
    elapsed = time.time() - t0
    status = "PASS" if not failures and elapsed < budget else "FAIL"
    criterion_recorder(
        f"criterion 7 [{status}] reciprocal-product lemma on all partitions of l ≤ 12 "
        f"(≤ 6 parts, {total} cases) and the Bernoulli recursion for 2 ≤ n ≤ 15 "
        f"({bern_total} cases): {failures} failures in {elapsed:.2f}s (budget {budget:.0f}s)"
    )
    assert not failures and elapsed < budget


def test_criterion_8_series_vs_transfer_engine(criterion_recorder):
    t0 = time.time()
    series_failures, derivation_failures, first_order_gaps = [], [], []
    for d, e in [(1, 3), (2, 3)]:
        cfg = ModelConfig(d, e, 4)
        r = _curvatures(f"criterion8:{d}:{e}", d, e, runs=1)[0]
        # clause 1: the End-level series equals the transferred-contraction composite
        ws = WedgeSpace(cfg)
        q_mat = matrix_callable(perturbed_contractions(r, cfg), ws)
        t = perturbation_t(r, cfg)
        for key in ws.keys:
            eta = ws.element(key)
            if q_mat(eta) != q_sigma(r, cfg, eta, t):
                series_failures.append((d, e, key))
        # clause 2: the perturbing derivation t versus the connection tail Σ_{k≥1} 𝕂^k
        cc = build_connection(r, cfg, max_order=min(e, 6))
        ks = KoszulSpace(cfg)
        t_mat = matrix_of(lambda x: apply_end(t, x), ks, allow_truncation=True)
        tail_mat = matrix_of(cc.tail, ks, allow_truncation=True)
        if t_mat != tail_mat:
            derivation_failures.append((d, e))
        got_first = G.zero(cfg)
        for k in range(2, cc.max_order + 1):
            got_first = got_first.add(first_order_part(cc.generator_values[k], k))
        want_first = perturbation_t_value(r, cfg).restrict(lambda key: key[0].bit_count() >= 2)
        if got_first != want_first:
            first_order_gaps.append((d, e))
    elapsed = time.time() - t0
    status = "PASS" if not series_failures and not derivation_failures else "FAIL"
    criterion_recorder(
        f"criterion 8 [{status}] perturbed-inclusion series == transfer-engine composite "
        f"on all basis η at (d,e) ∈ [(1,3),(2,3)] ({len(series_failures)} mismatches); "
        f"t == Σ_k 𝕂^k fails on {len(derivation_failures)}/2 configs (the tail carries "
        f"higher symmetric degree; first-order generator values agree on "
        f"{2 - len(first_order_gaps)}/2) [{elapsed:.1f}s]"
    )
    assert not series_failures
    assert not first_order_gaps  # the measured partial agreement must not regress
    assert not derivation_failures, derivation_failures
