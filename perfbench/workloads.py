"""The four benchmark workloads: seeded inputs, one round of program calls, exact oracles.

A workload has three parts.  ``setup(kp, seed)`` builds every input from the
seed; the program only ever sees the generated inputs.  ``run(kp, inputs)``
is one round: the timed program calls, returning the wall seconds of each
op, in a fixed order, and the raw outputs.  ``check(kp, inputs,
outputs, seed)`` is the untimed oracle: it names every failed op, lists
correctness problems that are not tied to an op, and returns the text the
round's output digest is taken over.  An op that raises is kept as its
exception and counts as a failed op.

Every call into the package goes through a module attribute (``kp.q_sigma``,
``kp.verify._run_check``) at call time, so the tracer's wrappers see it.
"""

import hashlib
import json
import time
from fractions import Fraction

perf = time.perf_counter


def _call(fn, *args):
    """(seconds, output or the exception it raised)."""
    start = perf()
    try:
        out = fn(*args)
    except Exception as exc:  # a raising op is a failed op, never a crashed run
        out = exc
    return perf() - start, out


def _failed(out) -> bool:
    return isinstance(out, Exception)


def _ser_exc(exc) -> str:
    return f"error:{type(exc).__name__}:{exc}"


def _ser_elem(kp, x) -> str:
    if _failed(x):
        return _ser_exc(x)
    return json.dumps(kp.terms_to_json(x), separators=(",", ":"))


def _ser_map(m) -> str:
    return f"{m.cod}x{m.dom}:" + ";".join(f"{i},{j},{c}" for i, j, c in m.entries())


class Verdict:
    """Oracle result for one round."""

    def __init__(self):
        self.failed = []  # one entry per failed op
        self.problems = []  # correctness failures not tied to one op
        self.parts = []  # text the output digest covers
        self.data = {}  # workload-specific facts recorded with the result


# -- qsigma_sweep ------------------------------------------------------------------

class QSigmaSweep:
    """q_σ(η) on every wedge-basis η, after both Todd routes and the derivation t."""

    name = "qsigma_sweep"
    configs = ((2, 5, 4), (3, 3, 4))
    min_rounds = 3
    zero_layers = ("sparse", "perturbation")

    def setup(self, kp, seed):
        rng = kp.SplitRng(seed).split(self.name)
        cases = []
        for d, e, m in self.configs:
            cfg = kp.ModelConfig(d, e, m)
            r = kp.random_curvature(rng.split(f"{d}:{e}:{m}"), d, e)
            etas = [kp.GradedElement(cfg, {key: 1}) for key in kp.WedgeSpace(cfg).keys]
            cases.append((cfg, r, etas))
        return cases

    def ops_per_round(self, inputs):
        return sum(len(etas) for _, _, etas in inputs)

    def run(self, kp, inputs):
        latencies, outputs = [], []
        for cfg, r, etas in inputs:
            _, via_exp = _call(kp.todd_exp, r, cfg)
            _, via_det = _call(kp.todd_det, r, cfg)
            _, t_op = _call(kp.perturbation_t, r, cfg)
            qs = []
            for eta in etas:
                dt, q = _call(kp.q_sigma, r, cfg, eta, t_op)
                latencies.append(dt)
                qs.append(q)
            outputs.append((via_exp, via_det, qs))
        return latencies, outputs

    def check(self, kp, inputs, outputs, seed):
        v = Verdict()
        top_degree = 0
        for (cfg, r, etas), (via_exp, via_det, qs) in zip(inputs, outputs):
            label = f"({cfg.d},{cfg.e},{cfg.m})"
            routes_agree = not _failed(via_exp) and not _failed(via_det) and via_exp.value == via_det.value
            if not routes_agree:
                v.problems.append(f"{label}: todd_exp and todd_det disagree or raised")
            v.parts.append(_ser_elem(kp, via_det if _failed(via_det) else via_det.value))
            for eta, q in zip(etas, qs):
                (key,) = eta.terms
                ok = routes_agree and not _failed(q)
                if ok and key[3].bit_count() == cfg.d:
                    top_degree += 1
                    ok = q == kp.interior_product(via_det.value, eta)
                if not ok:
                    v.failed.append(f"{label} eta={key}")
                v.parts.append(_ser_elem(kp, q))
        v.data["top_degree_identities"] = top_degree
        return v


# -- transfer_random ----------------------------------------------------------------

class TransferRandom:
    """Random contraction/perturbation pairs of dim ≤ 200, as in acceptance criterion 3.

    Pair k draws its cone count so that its dimension falls in the k-th of
    `pairs` equal bins of 1..200 (or is as small as its A allows), so every
    seed covers the dimensions evenly and the work per round does not swing
    with the seed.
    """

    name = "transfer_random"
    pairs = 24
    max_dim = 200
    min_rounds = 5
    zero_layers = ("algebra", "koszul", "homcomplex", "connection", "todd")

    def setup(self, kp, seed):
        rng = kp.SplitRng(seed).split(self.name)
        out = []
        for k in range(self.pairs):
            child = rng.split(k)
            a_dim = child.randint(1, 20)
            lo_dim = k * self.max_dim // self.pairs + 1
            hi_dim = (k + 1) * self.max_dim // self.pairs
            lo = max(1, (lo_dim - a_dim + 1) // 2)
            cones = child.randint(lo, max(lo, (hi_dim - a_dim) // 2))
            c = kp.random_contraction(child.split("c"), a_dim, cones)
            p = kp.random_perturbation(child.split("t"), c, a_dim, cones)
            out.append((c, p))
        return out

    def ops_per_round(self, inputs):
        return len(inputs)

    def run(self, kp, inputs):
        latencies, outputs = [], []
        for c, p in inputs:
            dt, out = _call(kp.perturb, c, p)
            latencies.append(dt)
            outputs.append(out)
        return latencies, outputs

    def check(self, kp, inputs, outputs, seed):
        v = Verdict()
        dims = []
        for k, ((c, _p), out) in enumerate(zip(inputs, outputs)):
            dims.append(c.d_b.dom)
            if _failed(out):
                v.failed.append(f"pair={k}: {_ser_exc(out)}")
                v.parts.append(_ser_exc(out))
                continue
            v.parts.extend(_ser_map(m) for m in (out.d_b, out.d_a, out.f, out.g, out.h))
        v.data["dims"] = dims
        return v


# -- verify_all ----------------------------------------------------------------------

class VerifyAll:
    """`run_suite("all")`; one op is one check, timed at the suite's check runner."""

    name = "verify_all"
    configs = ((1, 2, 2), (2, 3, 3))
    expected_checks = {(1, 2, 2): 44, (2, 3, 3): 45}
    expected_red = {
        (1, 2, 2): frozenset(),
        (2, 3, 3): frozenset({"connection_total_integrability", "todd_pigti_step_display"}),
    }
    # hashlib.sha256(report.to_json(mask_timing=True).encode()).hexdigest()[:16] at seed 0
    seed0_digests = {(1, 2, 2): "86149e8b244f3108", (2, 3, 3): "0988946389a62352"}
    min_rounds = 3
    zero_layers = ()

    def setup(self, kp, seed):
        return seed, [kp.ModelConfig(*cfg) for cfg in self.configs]

    def ops_per_round(self, inputs):
        return sum(self.expected_checks.values())

    def run(self, kp, inputs):
        verify = kp.verify
        run_check = verify._run_check
        latencies = []

        def timed_check(item):
            start = perf()
            try:
                return run_check(item)
            finally:
                latencies.append(perf() - start)

        seed, configs = inputs
        outputs = []
        verify._run_check = timed_check
        try:
            for cfg in configs:
                outputs.append(_call(kp.run_suite, "all", cfg, seed)[1])
        finally:
            verify._run_check = run_check
        return latencies, outputs

    def check(self, kp, inputs, outputs, seed):
        v = Verdict()
        digests = {}
        for cfg, report in zip(self.configs, outputs):
            if _failed(report):
                v.failed.extend(f"{cfg}: {_ser_exc(report)}" for _ in range(self.expected_checks[cfg]))
                v.parts.append(_ser_exc(report))
                continue
            if len(report.checks) != self.expected_checks[cfg]:
                v.problems.append(f"{cfg}: {len(report.checks)} checks, expected {self.expected_checks[cfg]}")
            for c in report.checks:
                expected = "fail" if c.name in self.expected_red[cfg] else "pass"
                if c.status != expected:
                    v.failed.append(f"{cfg} {c.name}: {c.status}, expected {expected}")
            masked = report.to_json(mask_timing=True)
            digest = hashlib.sha256(masked.encode()).hexdigest()[:16]
            digests["%d,%d,%d" % cfg] = digest
            v.parts.append(masked)
            if seed == 0 and digest != self.seed0_digests[cfg]:
                v.problems.append(f"{cfg}: masked digest {digest} != {self.seed0_digests[cfg]}")
        v.data["masked_digests"] = digests
        return v


# -- connection_recursion --------------------------------------------------------------

def _square_sums(kp, cc, cfg):
    """Orders n at which Σ_{i+j=n} 𝕂^i 𝕂^j is nonzero on a generator (truncated cells skipped)."""
    mo = cc.max_order
    out = []
    gens = [kp.GradedElement.s_gen(cfg, j) for j in range(1, cfg.d + 1)]
    gens += [kp.GradedElement.a_gen(cfg, j) for j in range(1, cfg.d + 1)]
    for gen in gens:
        for n in range(1, 2 * mo + 1):
            acc = kp.GradedElement.zero(cfg)
            for i in range(max(0, n - mo), min(mo, n) + 1):
                y = cc.components[n - i](gen)
                z = None if y.truncated else cc.components[i](y)
                if z is None or z.truncated:
                    acc = None
                    break
                acc = acc.add(z)
            if acc is not None and not acc.is_zero():
                out.append(n)
    return out


class ConnectionRecursion:
    """`build_connection(max_order=4)` at (2,4,4) plus the integrability sums (criterion 4)."""

    name = "connection_recursion"
    config = (2, 4, 4)
    curvatures = 20
    max_order = 4
    min_rounds = 5
    zero_layers = ("sparse", "perturbation")

    def setup(self, kp, seed):
        d, e, m = self.config
        rng = kp.SplitRng(seed).split(self.name)
        return kp.ModelConfig(d, e, m), [kp.random_curvature(rng.split(i), d, e) for i in range(self.curvatures)]

    def ops_per_round(self, inputs):
        return len(inputs[1])

    def _op(self, kp, cfg, r):
        cc = kp.build_connection(r, cfg, max_order=self.max_order)
        return cc, _square_sums(kp, cc, cfg)

    def run(self, kp, inputs):
        cfg, curvatures = inputs
        latencies, outputs = [], []
        for r in curvatures:
            dt, out = _call(self._op, kp, cfg, r)
            latencies.append(dt)
            outputs.append(out)
        return latencies, outputs

    def check(self, kp, inputs, outputs, seed):
        cfg, curvatures = inputs
        v = Verdict()
        expected = {2: Fraction(1, 12), 3: Fraction(0), 4: Fraction(-1, 720)}
        defects = 0
        for idx, (r, out) in enumerate(zip(curvatures, outputs)):
            if _failed(out):
                v.failed.append(f"curvature={idx}: {_ser_exc(out)}")
                v.parts.append(_ser_exc(out))
                continue
            cc, sums = out
            bad = [
                k for k, coeff in expected.items()
                if kp.first_order_part(cc.generator_values[k], k) != kp.alt_power(r, cfg, k).scale(coeff)
            ]
            if bad:
                v.failed.append(f"curvature={idx}: first-order coefficient wrong at orders {bad}")
            defects += len(sums)
            v.parts.extend(_ser_elem(kp, g) for g in cc.generator_values[2:])
            v.parts.append(json.dumps(sums))
        v.data["integrability_defects"] = defects
        return v


WORKLOADS = {w.name: w for w in (QSigmaSweep(), TransferRandom(), VerifyAll(), ConnectionRecursion())}
