"""The benchmark's contract with the package: the names perfbench traces and calls exist.

perfbench/ is the benchmark harness and is never edited alongside the
package, so renaming a function it wraps or calls must fail here first.
"""

import re
import sys
from pathlib import Path

import pytest

import koszul_perturb

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _bindings():
    """Every binding in every koszul_perturb namespace and in the two traced classes."""
    modules = [m for n, m in sys.modules.items() if n == "koszul_perturb" or n.startswith("koszul_perturb.")]
    out = {(m.__name__, attr): value for m in modules for attr, value in vars(m).items()}
    for cls in (koszul_perturb.GradedElement, koszul_perturb.LinearMap):
        out.update({(cls.__qualname__, attr): value for attr, value in vars(cls).items()})
    return out


def test_tracer_round_trip_and_workload_names(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer

    before = _bindings()
    trace = tracer.Tracer(koszul_perturb)
    trace.install()  # raises AttributeError if a traced target is gone
    try:
        assert koszul_perturb.alt_power is not before[("koszul_perturb", "alt_power")]
        wrapped = koszul_perturb.todd.perturbed_contractions
        assert wrapped is not before[("koszul_perturb.todd", "perturbed_contractions")]
    finally:
        trace.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert [key for key, value in before.items() if after[key] is not value] == []

    source = (PERFBENCH / "workloads.py").read_text(encoding="utf-8")
    names = {name.rstrip(".") for name in re.findall(r"\bkp\.([A-Za-z_][\w.]*)", source)}
    assert {"alt_power", "q_sigma", "run_suite", "verify._run_check"} <= names
    for name in sorted(names):
        obj = koszul_perturb
        for part in name.split("."):
            assert hasattr(obj, part), name
            obj = getattr(obj, part)


@pytest.mark.parametrize("name, want", [("qsigma_sweep", "d4eab95c6a9d4f88"),
                                        ("connection_recursion", "a1073d64114a3664")])
def test_workload_round_keeps_its_seed_0_digest(monkeypatch, name, want):
    # one checked round of a benchmark workload on this package, without
    # worker._setup, which re-imports the package by clearing sys.modules
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import worker
    import workloads

    workload = workloads.WORKLOADS[name]
    out = worker._round(koszul_perturb, workload, workload.setup(koszul_perturb, 0), 0)
    assert out["verdict"].problems == [] and out["verdict"].failed == []
    assert out["digest"] == want
