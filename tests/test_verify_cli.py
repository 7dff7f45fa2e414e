"""Invariant-suite runner and the console entry point."""

import contextlib
import hashlib
import io
import json
import re
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from koszul_perturb import ModelConfig, run_suite, verify
from koszul_perturb.cli import main
from koszul_perturb.rng import SplitRng
from koszul_perturb.verify import SUITES, _SUITE_BUILDERS, _check_size, _run_check

TINY = ModelConfig(1, 1, 2)


# -- run_suite ------------------------------------------------------------------

def test_all_suites_pass_on_tiny_config():
    for suite in SUITES:
        report = run_suite(suite, TINY, seed=0)
        assert report.overall, (suite, [c.name for c in report.checks if c.status != "pass"])


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        run_suite("nonsense", TINY)


def test_checks_are_sorted_and_named():
    report = run_suite("koszul", TINY)
    names = [c.name for c in report.checks]
    assert names == sorted(names)
    assert all(name.startswith("koszul_") for name in names)


def test_report_serialization_is_byte_stable():
    a = run_suite("combinatorics", TINY, seed=3).to_json(mask_timing=True)
    b = run_suite("combinatorics", TINY, seed=3).to_json(mask_timing=True)
    assert a == b


# At TINY every check passes and reports only counts; the red integrability
# check at (2,3,3) reports drawn data, so a draw that moved with order shows.
@pytest.mark.parametrize(
    "suite, cfg", [(s, TINY) for s in SUITES] + [("connection", ModelConfig(2, 3, 3))]
)
def test_check_results_do_not_depend_on_run_order(suite, cfg):
    # every check draws from its own child stream, so running them backwards changes nothing
    seed = 3
    checks = _SUITE_BUILDERS[suite](cfg, SplitRng(seed).split(suite))
    backwards = sorted((_run_check(item) for item in reversed(checks)), key=lambda c: c.name)
    report = run_suite(suite, cfg, seed=seed)
    assert [(c.name, c.status, c.lhs, c.rhs) for c in backwards] == [
        (c.name, c.status, c.lhs, c.rhs) for c in report.checks
    ]


# (3,2,2) pins d = 3, where the connection recursion takes P_K ⊗ 1: red only on
# connection_total_integrability, hom_derivation_pt_collapse and todd_pigti_step_display.
@pytest.mark.parametrize("cfg, want", [((1, 2, 2), "86149e8b244f3108"), ((2, 3, 3), "0988946389a62352"),
                                       ((3, 2, 2), "2fdc6fb1f1ec49e0")])
def test_masked_report_digest_is_pinned(cfg, want):
    report = run_suite("all", ModelConfig(*cfg), seed=0)
    digest = hashlib.sha256(report.to_json(mask_timing=True).encode()).hexdigest()[:16]
    assert digest == want


def test_report_text_and_dict_shapes():
    report = run_suite("koszul", TINY, seed=1)
    data = report.to_dict(mask_timing=True)
    assert data["suite"] == "koszul"
    assert data["overall"] is True
    assert {c["status"] for c in data["checks"]} == {"pass"}
    text = report.to_text()
    assert "overall: pass" in text


def test_connection_suite_guards_truncation_order():
    with pytest.raises(ValueError):
        run_suite("connection", ModelConfig(1, 1, 1))  # needs m >= 2


def test_todd_zero_curvature_counts_every_moved_eta(monkeypatch):
    # a q_σ that doubles every η moves all 16 basis vectors at (2,2,2), not only the first
    q_sigma = verify.q_sigma
    monkeypatch.setattr(verify, "q_sigma", lambda *args: q_sigma(*args).scale(2))
    checks = dict(_SUITE_BUILDERS["todd"](ModelConfig(2, 2, 2), SplitRng(0).split("todd")))
    result = _run_check(("todd_zero_curvature", checks["todd_zero_curvature"]))
    assert (result.status, result.lhs) == ("fail", "failures=16/18; first: q(0) moved key=(0, (), 0, 0)")


def test_todd_suite_guards_truncation_order(capsys):
    # todd_t_first_order builds the connection, whose curvature is quadratic
    with pytest.raises(ValueError, match=r"^todd suite needs m >= 2 \(curvature is quadratic\)$"):
        run_suite("todd", ModelConfig(2, 2, 1))
    assert main(["verify", "todd", "--d", "2", "--e", "2", "--m", "1"]) == 2
    assert capsys.readouterr().err == "error: todd suite needs m >= 2 (curvature is quadratic)\n"


# -- CLI ---------------------------------------------------------------------------

def _write(path, payload):
    path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
    return str(path)


def _r_zero(tmp_path, d=2, e=3):
    return _write(tmp_path / "r0.json", {"d": d, "e": e, "entries": []})


def _r_rand(tmp_path):
    return _write(
        tmp_path / "r.json",
        {
            "d": 2,
            "e": 3,
            "entries": [
                {"w": 1, "i": 1, "j": 2, "k": 1, "c": "3/2"},
                {"w": 2, "i": 1, "j": 1, "k": 2, "c": "-1/3"},
                {"w": 3, "i": 2, "j": 2, "k": 2, "c": "2"},
            ],
        },
    )


def test_cli_verify_pass_and_fail(capsys):
    assert main(["verify", "koszul", "--d", "1", "--e", "1", "--m", "2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["overall"] is True
    # generic d=2 curvature leaves the recursion open: suite reports the failure
    assert main(["verify", "connection", "--d", "2", "--e", "3", "--m", "4"]) == 1
    payload = json.loads(capsys.readouterr().out)
    failing = [c["name"] for c in payload["checks"] if c["status"] == "fail"]
    assert "connection_total_integrability" in failing


def test_cli_verify_rejects_bad_usage(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "nonsense"])
    assert exc.value.code == 2
    assert main(["verify", "koszul", "--d", "0", "--e", "1", "--m", "2"]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "suite, d, e, m, space",
    [("koszul", 12, 12, 4, "K"), ("koszul", 1, 10**9, 2, "K"), ("hom", 4, 4, 4, "End"), ("all", 4, 4, 4, "End")],
)
def test_cli_verify_rejects_oversized_config_before_allocating(capsys, suite, d, e, m, space):
    # dim K = 2^(e+d)·C(d+m, m) = 2^24·495 at (12,12,4); dim End = 2^d·dim K = 286,720 at (4,4,4)
    tracemalloc.start()
    try:
        code = main(["verify", suite, "--d", str(d), "--e", str(e), "--m", str(m)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2
    assert peak < 1 << 20
    assert capsys.readouterr().err == (
        f"error: config d={d} e={e} m={m} is too large for suite {suite} (need dim {space} <= 65536)\n"
    )


@pytest.mark.parametrize(
    "suite, d, e, m, need",
    [("all", 4, 0, 4, "connection suite needs e >= 1"),
     ("all", 4, 1, 1, "connection suite needs m >= 2 (curvature is quadratic)"),
     ("all", 2, 0, 2, "connection suite needs e >= 1"),
     ("todd", 3, 0, 1, "todd suite needs m >= 2 (curvature is quadratic)"),
     ("hom", 1, 0, 0, "hom suite needs m >= 1 (no End column is truncation-safe at m = 0)")],
)
def test_cli_verify_rejects_unmet_precondition_before_building(capsys, suite, d, e, m, need):
    # (4,0,4) passes the size guard (dim End = 17,920), and building the koszul and hom
    # suites there would take seconds and tens of MB before the connection suite could refuse e = 0
    tracemalloc.start()
    try:
        code = main(["verify", suite, "--d", str(d), "--e", str(e), "--m", str(m)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2
    assert peak < 1 << 20
    assert capsys.readouterr().err == f"error: {need}\n"


def test_size_guard_admits_every_documented_config():
    # the largest End is 35,840 at (3,4,4); at (4,4,4) dim K = 17,920 fits but dim End does not
    for target, cfg in [("suite all", (3, 4, 4)), ("suite all", (2, 6, 4)), ("suite todd", (3, 3, 3)),
                        ("suite todd", (5, 1, 2)), ("suite koszul", (4, 4, 4)), ("suite connection", (2, 6, 4)),
                        ("suite perturbation", (12, 12, 4)), ("q-sigma", (2, 5, 4)), ("q-sigma", (3, 3, 4)),
                        ("q-sigma", (3, 4, 4)), ("q-sigma", (2, 6, 4)), ("todd", (5, 6, 4))]:
        _check_size(target, ModelConfig(*cfg))


def test_cli_q_sigma_rejects_oversized_config_before_allocating(tmp_path, capsys):
    # the measure is 2^(e+2d), the wedge part of dim End: 2^25 at (12,1), 2^17 at (7,3)
    _check_size("q-sigma", ModelConfig(7, 2, 4))
    with pytest.raises(ValueError, match=r"^config d=7 e=3 m=4 is too large for q-sigma "):
        _check_size("q-sigma", ModelConfig(7, 3, 4))
    r = _r_zero(tmp_path, d=12, e=1)
    eta = _write(tmp_path / "eta.json", [{"w": [1], "c": "1"}])
    tracemalloc.start()
    try:
        code = main(["q-sigma", "--input", r, "--eta", eta])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2
    assert peak < 1 << 20
    assert capsys.readouterr().err == (
        "error: config d=12 e=1 m=4 is too large for q-sigma (need 2^(e+2d) <= 65536)\n"
    )


@pytest.mark.parametrize("suite", ["todd", "connection"])
def test_cli_verify_rejects_e_zero_in_one_line(capsys, suite):
    assert main(["verify", suite, "--d", "1", "--e", "0", "--m", "2"]) == 2
    assert capsys.readouterr().err == f"error: {suite} suite needs e >= 1\n"
    assert main(["verify", "koszul", "--d", "1", "--e", "0", "--m", "2"]) == 0


def test_cli_todd_zero_curvature(tmp_path, capsys):
    assert main(["todd", "--input", _r_zero(tmp_path), "--m", "4"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["route"] == "both"
    assert payload["routes_agree"] is True
    assert payload["todd"]["terms"] == [
        {"w": [], "s": [], "a": [], "b": [], "c": "1/1"}
    ]


def test_cli_todd_routes_and_output_file(tmp_path, capsys):
    out = tmp_path / "todd.json"
    assert main(["todd", "--input", _r_rand(tmp_path), "--m", "4", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["routes_agree"] is True
    assert capsys.readouterr().out == ""
    assert main(["todd", "--input", _r_rand(tmp_path), "--route", "exp", "--m", "4"]) == 0
    assert json.loads(capsys.readouterr().out)["route"] == "exp"


def test_cli_todd_does_not_depend_on_m(tmp_path, capsys):
    # the class lives in ΛW ⊗ ∧V∨, so m = 0 gives the m = 4 class
    payloads = []
    for m in ("0", "4"):
        assert main(["todd", "--input", _r_rand(tmp_path), "--m", m]) == 0
        payloads.append(json.loads(capsys.readouterr().out))
    assert payloads[0]["todd"].pop("m") == 0 and payloads[1]["todd"].pop("m") == 4
    assert payloads[0] == payloads[1]
    # q_σ's derivation t has symmetric letters, so it still needs m ≥ 1
    eta = _write(tmp_path / "eta.json", [{"w": [], "s": [], "a": [], "b": [1, 2], "c": "1"}])
    assert main(["q-sigma", "--input", _r_rand(tmp_path), "--eta", eta, "--m", "0"]) == 2
    assert capsys.readouterr().err == "error: symmetric degree exceeds truncation\n"


def test_cli_todd_text_mode(tmp_path, capsys):
    assert main(["todd", "--input", _r_rand(tmp_path), "--m", "4", "--text"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("route: both")
    assert "routes_agree: true" in out


def test_cli_todd_rejects_large_dimension(tmp_path, capsys):
    # the cap is q-sigma's 2^(e+2d), from (d, e) alone: 2^17 at (8,1), over Td's 2^8 minors
    path = _write(tmp_path / "r8.json", {"d": 8, "e": 1, "entries": []})
    tracemalloc.start()
    try:
        code = main(["todd", "--input", path, "--m", "2"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2
    assert peak < 1 << 20
    assert capsys.readouterr().err == (
        "error: config d=8 e=1 m=2 is too large for todd (need 2^(e+2d) <= 65536)\n"
    )
    # d = 4 is in range, and both routes agree on a dense curvature
    entries = [{"w": w, "i": i, "j": j, "k": k, "c": f"{(-1) ** (i + k) * (w + j)}/{k}"}
               for w in (1, 2) for i in range(1, 5) for j in range(i, 5) for k in range(1, 5)]
    path = _write(tmp_path / "r4.json", {"d": 4, "e": 2, "entries": entries})
    assert main(["todd", "--input", path, "--m", "2"]) == 0
    assert json.loads(capsys.readouterr().out)["routes_agree"] is True


def test_cli_todd_rejects_malformed_json(tmp_path, capsys):
    path = _write(tmp_path / "bad.json", "{not json")
    assert main(["todd", "--input", path]) == 2
    assert "error:" in capsys.readouterr().err


def test_cli_q_sigma_top_degree(tmp_path, capsys):
    eta = _write(
        tmp_path / "eta.json", [{"w": [], "s": [], "a": [], "b": [1, 2], "c": "1"}]
    )
    code = main(["q-sigma", "--input", _r_rand(tmp_path), "--eta", eta, "--m", "4"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["asserted"] is True
    assert payload["equal"] is True
    assert "todd_route" not in payload


def test_cli_q_sigma_below_top_degree_not_asserted(tmp_path, capsys):
    eta = _write(
        tmp_path / "eta1.json", [{"w": [2], "s": [], "a": [], "b": [1], "c": "1"}]
    )
    code = main(["q-sigma", "--input", _r_rand(tmp_path), "--eta", eta, "--m", "4"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["asserted"] is False


def test_cli_q_sigma_rejects_non_wedge_eta(tmp_path, capsys):
    eta = _write(
        tmp_path / "eta_bad.json", [{"w": [], "s": [1], "a": [], "b": [1], "c": "1"}]
    )
    assert main(["q-sigma", "--input", _r_rand(tmp_path), "--eta", eta]) == 2
    assert "error:" in capsys.readouterr().err


_TERM = {"w": 1, "i": 1, "j": 1, "k": 1, "c": "1"}


@pytest.mark.parametrize(
    "curvature, eta",
    [
        ({"d": 2, "e": 3, "entries": "w1"}, []),
        ({"d": 2, "e": 3, "entries": [dict(_TERM, w="1")]}, []),
        ([_TERM], []),
        ({"d": 2, "e": 3, "entries": []}, [{"w": [], "s": [], "a": [], "b": "12", "c": "1"}]),
        ({"d": 1, "e": 7, "entries": []}, []),
    ],
    ids=["entries-string", "w-string", "top-level-array", "eta-b-string", "e-above-6"],
)
def test_cli_q_sigma_rejects_bad_input(tmp_path, capsys, curvature, eta):
    r = _write(tmp_path / "r.json", curvature)
    assert main(["q-sigma", "--input", r, "--eta", _write(tmp_path / "eta.json", eta)]) == 2
    assert "error:" in capsys.readouterr().err


def test_cli_q_sigma_rejects_huge_index_in_one_line(tmp_path, capsys):
    eta = _write(tmp_path / "eta.json", [{"w": [10**8], "c": "1"}])
    assert main(["q-sigma", "--input", _r_rand(tmp_path), "--eta", eta]) == 2
    assert capsys.readouterr().err == "error: generator index out of range\n"


@pytest.mark.parametrize("literal", ["1e200000", "2.5", "1_000"])
@pytest.mark.parametrize("command", ["todd", "q-sigma"])
def test_cli_rejects_non_fraction_literal_in_one_line(tmp_path, capsys, command, literal):
    r = _write(tmp_path / "r.json", {"d": 1, "e": 1, "entries": [dict(_TERM, c=literal)]})
    argv = [command, "--input", r]
    if command == "q-sigma":
        argv += ["--eta", _write(tmp_path / "eta.json", [{"b": [1], "c": "1"}])]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: bad rational literal {literal!r}\n"


def test_cli_verify_has_no_max_order_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "connection", "--max-order", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --max-order 2" in capsys.readouterr().err


# -- the wire format of the two input files -------------------------------------------

def _argv_with(tmp_path, slot, path):
    """Feed the file `path` to one input slot; the other file of q-sigma is valid."""
    if slot == "todd --input":
        return ["todd", "--input", path]
    r = path if slot == "q-sigma --input" else _r_rand(tmp_path)
    eta = path if slot == "q-sigma --eta" else _write(tmp_path / "eta_ok.json", [{"b": [1, 2]}])
    return ["q-sigma", "--input", r, "--eta", eta]


_SLOTS = ["todd --input", "q-sigma --input", "q-sigma --eta"]


@pytest.mark.parametrize("slot", _SLOTS)
def test_cli_rejects_too_deep_json_in_one_line(tmp_path, capsys, slot):
    # the decoder raises RecursionError here, which is not a ValueError
    deep = _write(tmp_path / "deep.json", "[" * 200_000)
    assert main(_argv_with(tmp_path, slot, deep)) == 2
    assert capsys.readouterr().err == "error: JSON nesting too deep to decode\n"


@pytest.mark.parametrize(
    "slot, payload",
    [("todd --input", {"d": 1, "e": 1, "entries": [dict(_TERM, c=True)]}),
     ("q-sigma --eta", [{"b": [1, 2], "c": True}])]
    + [("todd --input", {"d": 1, "e": 1, "entries": [dict(_TERM, **{f: True})]}) for f in "wijk"]
    + [("todd --input", dict({"d": 1, "e": 1, "entries": []}, **{f: True})) for f in "de"]
    + [("q-sigma --eta", [{"b": [1], f: [True]}]) for f in "wsab"],
    ids=["entry-c", "eta-c", "entry-w", "entry-i", "entry-j", "entry-k", "d", "e",
         "eta-w", "eta-s", "eta-a", "eta-b"],
)
def test_cli_rejects_booleans_as_numbers_in_one_line(tmp_path, capsys, slot, payload):
    # Python counts a bool as an int, so no integer or rational field may take true as 1
    assert main(_argv_with(tmp_path, slot, _write(tmp_path / "in.json", payload))) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("what, field", [("curvature entry", f) for f in "cw"] + [("curvature", f) for f in "de"])
def test_cli_names_a_missing_field(tmp_path, capsys, what, field):
    curvature = {"d": 1, "e": 1, "entries": [dict(_TERM)]}
    del (curvature["entries"][0] if what == "curvature entry" else curvature)[field]
    assert main(["todd", "--input", _write(tmp_path / "r.json", curvature)]) == 2
    assert capsys.readouterr().err == f"error: {what} is missing field {field!r}\n"


def test_cli_lets_an_engine_error_raise(tmp_path, monkeypatch):
    # only input errors exit 2; a KeyError from the engine is a bug and keeps its traceback
    def broken(*args):
        raise KeyError("engine bug")

    monkeypatch.setattr("koszul_perturb.cli.todd_exp", broken)
    with pytest.raises(KeyError, match="engine bug"):
        main(["todd", "--input", _r_rand(tmp_path), "--route", "exp"])


def test_cli_runs_the_readme_examples_verbatim(tmp_path, capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    curvature, eta = (
        re.search(r"```json\n(.*?)```", readme[readme.index(heading):], re.S)[1]
        for heading in ("### `todd`", "### `q-sigma`")
    )
    r = _write(tmp_path / "curvature.json", curvature)
    assert main(["todd", "--input", r]) == 0
    assert json.loads(capsys.readouterr().out)["routes_agree"] is True
    assert main(["q-sigma", "--input", r, "--eta", _write(tmp_path / "eta.json", eta)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["equal"] is True and payload["asserted"] is True


# Random trees, and trees shaped like each file with random indices and scalars,
# so that the checks past the shape are reached too.
_SCALARS = (st.none() | st.booleans() | st.integers(-1, 3) | st.just(10**8) | st.floats()
            | st.sampled_from(["1", "-3/4", "2/0", "1e5", "x", ""]))
_TREES = st.recursive(
    _SCALARS,
    lambda kids: st.lists(kids, max_size=4)
    | st.dictionaries(st.sampled_from(["d", "e", "entries", "terms", *"wijkcsab"]), kids, max_size=6),
    max_leaves=12,
)
_INDICES = st.integers(-1, 3)
_CURVATURES = st.fixed_dictionaries({
    "d": _INDICES, "e": _INDICES,
    "entries": st.lists(st.fixed_dictionaries({**dict.fromkeys("wijk", _INDICES), "c": _SCALARS}), max_size=3),
})
_ETAS = st.lists(st.fixed_dictionaries(
    {}, optional={**dict.fromkeys("wsab", st.lists(_INDICES, max_size=3)), "c": _SCALARS}
), max_size=3)


@settings(max_examples=40)
@given(raw=(_TREES | _CURVATURES | _ETAS).map(lambda tree: json.dumps(tree).encode()))
@example(raw=b"\xff\xfe[]")  # not UTF-8
def test_cli_fuzz_contract(raw):
    # every input exits 0, 1 or 2 and raises nothing; a rejection is one line and allocates little
    with tempfile.TemporaryDirectory() as tmp:
        tmp_path = Path(tmp)
        (tmp_path / "in.json").write_bytes(raw)
        for slot in _SLOTS:
            out, err = io.StringIO(), io.StringIO()
            tracemalloc.start()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = main(_argv_with(tmp_path, slot, str(tmp_path / "in.json")))
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert code in (0, 1, 2)
            if code == 2:
                assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
                assert peak < 1 << 20
