"""Command-line entry point.

Three subcommands: `verify` runs a named invariant suite and emits a
report, `todd` computes the generalized Todd class of a curvature input
by either or both routes, `q-sigma` evaluates the contraction
endomorphism on an element and compares it against the Todd contraction.

All I/O is JSON with rationals as exact "p/q" strings.  Exit codes:
0 every check passed, 1 a check failed (or an asserted comparison came
out unequal), 2 usage or input error.  Output is byte-stable for a fixed
seed, except the elapsed_ms timing fields of reports.
"""
from __future__ import annotations

import argparse
import json
import sys

from .algebra import ModelConfig, interior_product, terms_from_json, terms_to_json
from .connection import CurvatureInput
from .rational import load_json
from .todd import q_sigma, todd_det, todd_exp
from .verify import SUITES, _check_size, run_suite


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="koszul-perturb",
        description="exact-rational Koszul / homotopy-perturbation engine",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run a module invariant suite")
    p_verify.add_argument("suite", choices=SUITES + ("all",))
    p_verify.add_argument("--d", type=int, default=2, help="dim V (default 2)")
    p_verify.add_argument("--e", type=int, default=3, help="dim W (default 3)")
    p_verify.add_argument("--m", type=int, default=4, help="symmetric truncation (default 4)")
    p_verify.add_argument("--seed", type=int, default=0)
    _output_flags(p_verify)

    p_todd = sub.add_parser("todd", help="generalized Todd class of a curvature input")
    p_todd.add_argument("--input", required=True, help="CurvatureInput JSON file")
    p_todd.add_argument("--route", choices=("exp", "det", "both"), default="both")
    p_todd.add_argument("--m", type=int, default=4, help="symmetric truncation (default 4)")
    _output_flags(p_todd)

    p_q = sub.add_parser("q-sigma", help="contraction endomorphism vs Todd contraction")
    p_q.add_argument("--input", required=True, help="CurvatureInput JSON file")
    p_q.add_argument("--eta", required=True, help="element JSON file (terms in ΛW ⊗ ∧V)")
    p_q.add_argument("--m", type=int, default=4, help="symmetric truncation (default 4)")
    _output_flags(p_q)
    return parser


def _output_flags(p: argparse.ArgumentParser) -> None:
    fmt = p.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true", default=True, dest="as_json")
    fmt.add_argument("--text", action="store_false", dest="as_json")
    p.add_argument("--out", default=None, help="write output to this file instead of stdout")


def _emit(text: str, out_path) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _load_curvature(path: str) -> CurvatureInput:
    with open(path, encoding="utf-8") as fh:
        r = CurvatureInput.from_json(fh.read())
    if r.e > 6:
        raise ValueError(f"unsupported e={r.e} (need e <= 6)")
    return r


def _cmd_verify(args) -> int:
    cfg = ModelConfig(args.d, args.e, args.m)
    report = run_suite(args.suite, cfg, seed=args.seed)
    _emit(report.to_json() if args.as_json else report.to_text(), args.out)
    return 0 if report.overall else 1


def _cmd_todd(args) -> int:
    r = _load_curvature(args.input)
    cfg = ModelConfig(r.d, r.e, args.m)
    _check_size("todd", cfg)
    code = 0
    if args.route == "exp":
        payload = {"route": "exp", "todd": todd_exp(r, cfg).to_dict()}
    elif args.route == "det":
        payload = {"route": "det", "todd": todd_det(r, cfg).to_dict()}
    else:
        via_exp = todd_exp(r, cfg)
        via_det = todd_det(r, cfg)
        agree = via_exp.value == via_det.value
        payload = {"route": "both", "routes_agree": agree, "todd": via_exp.to_dict()}
        if not agree:
            payload["todd_det"] = via_det.to_dict()
            code = 1
    if args.as_json:
        _emit(json.dumps(payload, indent=2), args.out)
    else:
        lines = [f"route: {payload['route']}"]
        if "routes_agree" in payload:
            lines.append(f"routes_agree: {str(payload['routes_agree']).lower()}")
        lines.append(json.dumps(payload["todd"], indent=2))
        _emit("\n".join(lines), args.out)
    return code


def _cmd_q_sigma(args) -> int:
    r = _load_curvature(args.input)
    cfg = ModelConfig(r.d, r.e, args.m)
    _check_size("q-sigma", cfg)
    with open(args.eta, encoding="utf-8") as fh:
        eta = terms_from_json(cfg, load_json(fh.read()))
    if any(k[1] or k[2] for k in eta.terms):
        raise ValueError("eta must lie in ΛW ⊗ ∧V (no symmetric or ∧V∨ letters)")
    td = todd_exp(r, cfg)
    q_eta = q_sigma(r, cfg, eta)
    td_eta = interior_product(td.value, eta)
    asserted = all(k[3].bit_count() == cfg.d for k in eta.terms)
    equal = q_eta == td_eta
    payload = {
        "d": cfg.d,
        "e": cfg.e,
        "m": cfg.m,
        "eta": terms_to_json(eta),
        "q_of_eta": terms_to_json(q_eta),
        "todd_contract_eta": terms_to_json(td_eta),
        "equal": equal,
        "asserted": asserted,
    }
    if args.as_json:
        _emit(json.dumps(payload, indent=2), args.out)
    else:
        lines = [
            f"equal: {str(equal).lower()}",
            f"asserted: {str(asserted).lower()}",
            f"q(eta): {json.dumps(payload['q_of_eta'])}",
            f"Td ⌟ eta: {json.dumps(payload['todd_contract_eta'])}",
        ]
        _emit("\n".join(lines), args.out)
    return 0 if equal or not asserted else 1


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {"verify": _cmd_verify, "todd": _cmd_todd, "q-sigma": _cmd_q_sigma}
    try:
        return handlers[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
