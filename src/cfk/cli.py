"""Command-line interface.

Exit codes:
  0  success
  1  usage errors, expression syntax errors, semantic errors
  2  file format errors and complex validation failures
  3  unsupported constructions and violated preconditions
"""
from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from math import gcd
from typing import Any

from . import __version__, cfkfile
from .complexes import validate
from .errors import CfkError, PreconditionError
from .expr import build_complex, parse, to_text
from .invariants import V, epsilon, hfk_hat, seifert_genus, tau
from .surgery import (SurgerySpec, cable_nu_plus_bounds, cable_tau,
                      d_invariants, g4_upper_annotation, genus_report,
                      surgery_d)

# ASCII digits only: int() alone would also take "+1", "1_0" and
# non-ASCII digits.
_INT = re.compile(r"-?[0-9]+")
_VK_RANGE = re.compile(r"(-?[0-9]+)\.\.(-?[0-9]+)")
_SURGERY = re.compile(r"([0-9]+)(?:/([0-9]+))?")


class _UsageError(CfkError):
    exit_code = 1


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(message)


def _int(text: str) -> int:
    """argparse type for integer arguments."""
    try:
        if _INT.fullmatch(text) is None:
            raise ValueError(text)
        return int(text)
    except ValueError:  # not ASCII decimal, or past int()'s digit limit
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def _parse_vk(text: str) -> tuple[int, int]:
    m = _VK_RANGE.fullmatch(text)
    try:
        if m is None:
            raise ValueError(text)
        lo, hi = int(m.group(1)), int(m.group(2))
    except ValueError:
        raise _UsageError(f"--vk expects MIN..MAX, got {text!r}") from None
    if lo > hi:
        raise _UsageError(f"--vk range is empty: {text}")
    return lo, hi


def _parse_surgery(text: str) -> SurgerySpec:
    m = _SURGERY.fullmatch(text)
    try:
        if m is None:
            raise ValueError(text)
        p = int(m.group(1))
        q = int(m.group(2)) if m.group(2) else 1
    except ValueError:
        raise _UsageError(
            f"--surgery expects P or P/Q with positive integers, got {text!r}") from None
    try:
        return SurgerySpec(p, q)
    except PreconditionError as exc:
        raise _UsageError(str(exc)) from exc


def _hfk_rows(C) -> list[dict[str, int]]:
    table = hfk_hat(C)
    return [{"alexander": a, "maslov": m, "rank": table[(a, m)]}
            for (a, m) in sorted(table, key=lambda am: (-am[0], -am[1]))]


def _invariants_report(text: str, vk: tuple[int, int] | None) -> dict[str, Any]:
    """The invariants report, with V and H over the window [lo, hi]
    (default [-g, g], g the Seifert genus).

    V is nonincreasing and >= 0, so V_k = 0 for every k >= nu+, which the
    genus report already holds: those levels are filled with 0, in V and
    in H_k = V_{-k}, and only levels below nu+ are reduced.  Every level
    below nu+ in the window is reduced, so the V(-k) = V(k) + k warning
    still compares each computed level with its partner."""
    e = parse(text)
    C = build_complex(e)
    rep = genus_report(C, e)
    genus = rep.seifert_genus
    lo, hi = vk if vk is not None else (-genus, genus)

    def level(k: int) -> int:
        return V(C, k) if k < rep.nu_plus else 0

    vals = {k: level(k) for k in range(lo, hi + 1)}
    warnings = []
    for k in vals:
        if -k in vals and vals[-k] != vals[k] + k:
            warnings.append(f"V table violates V(-k) = V(k) + k at k={k}")
    return {
        "expression": to_text(e),
        "generators": len(C.index().names),
        "tau": rep.tau,
        "nu": rep.nu,
        "nu_plus": rep.nu_plus,
        "epsilon": epsilon(C),
        "V": {str(k): vals[k] for k in sorted(vals)},
        "H": {str(k): level(-k) for k in sorted(vals)},
        "hfk": _hfk_rows(C),
        "sigma": rep.sigma,
        "g4_lower": rep.g4_lower,
        "g4_upper": rep.g4_upper,
        "seifert_genus": genus,
        "warnings": warnings,
    }


def _dinv_report(text: str, spec: SurgerySpec, spinc: int | None) -> dict[str, Any]:
    e = parse(text)
    C = build_complex(e)
    report: dict[str, Any] = {
        "expression": to_text(e),
        "surgery": f"{spec.p}/{spec.q}",
    }
    if spinc is not None:
        if not 0 <= spinc < spec.p:
            raise _UsageError(f"--spinc must lie in [0, {spec.p}), got {spinc}")
        report["spinc"] = spinc
        report["d_invariants"] = [str(surgery_d(C, spec, spinc))]
    else:
        report["d_invariants"] = [str(d) for d in d_invariants(C, spec)]
    return report


def _genus_report(text: str) -> dict[str, Any]:
    e = parse(text)
    C = build_complex(e)
    return {"expression": to_text(e), **genus_report(C, e)._asdict()}


def _cable_bounds_report(text: str, p: int, q: int) -> dict[str, Any]:
    if p < 1 or q < 1 or gcd(p, q) != 1:
        raise _UsageError(f"cable parameters must be coprime and >= 1, got ({p},{q})")
    e = parse(text)
    g4_upper = g4_upper_annotation(e)
    C = build_complex(e)
    bounds = cable_nu_plus_bounds(C, p, q, g4_upper=g4_upper)
    t, eps = tau(C), epsilon(C)
    report: dict[str, Any] = {
        "expression": to_text(e),
        "p": p,
        "q": q,
        "tau": t,
        "epsilon": eps,
        "cable_tau": cable_tau(t, eps, p, q) if eps == -1 else None,
        "lower": bounds.lower,
        "upper": bounds.upper,
    }
    return report


def _hfk_report(text: str) -> dict[str, Any]:
    e = parse(text)
    C = build_complex(e)
    rows = _hfk_rows(C)
    return {
        "expression": to_text(e),
        "hfk": rows,
        "total_rank": sum(r["rank"] for r in rows),
        "seifert_genus": seifert_genus(C),
    }


def _print_table(label: str, table: dict[str, int]) -> None:
    for k in sorted(table, key=int):
        print(f"  {label}[{k}] = {table[k]}")


def _print_hfk(rows: list[dict[str, int]]) -> None:
    for row in rows:
        print(f"  A={row['alexander']:>3}  M={row['maslov']:>3}  rank={row['rank']}")


def _render_text(cmd: str, report: dict[str, Any]) -> None:
    print(f"expression: {report['expression']}")
    if cmd == "invariants":
        for key in ("generators", "tau", "nu", "nu_plus", "epsilon"):
            print(f"{key}: {report[key]}")
        print("V:")
        _print_table("V", report["V"])
        print("H:")
        _print_table("H", report["H"])
        print("hfk:")
        _print_hfk(report["hfk"])
        sigma = report["sigma"]
        print(f"sigma: {sigma if sigma is not None else 'unknown'}")
        print(f"g4_lower: {report['g4_lower']}")
        print(f"g4_upper: {report['g4_upper']}")
        print(f"seifert_genus: {report['seifert_genus']}")
        for w in report["warnings"]:
            print(f"warning: {w}", file=sys.stderr)
    elif cmd == "dinv":
        print(f"surgery: {report['surgery']}")
        base = report.get("spinc", 0)
        for i, d in enumerate(report["d_invariants"]):
            print(f"d[{base + i}] = {d}")
    elif cmd == "genus":
        for key in ("tau", "nu", "nu_plus", "nu_plus_mirror"):
            print(f"{key}: {report[key]}")
        sigma = report["sigma"]
        print(f"sigma: {sigma if sigma is not None else 'unknown'}")
        print(f"seifert_genus: {report['seifert_genus']}")
        print(f"g4_lower: {report['g4_lower']}")
        print(f"g4_upper: {report['g4_upper']}")
        for note in report["notes"]:
            print(f"note: {note}")
    elif cmd == "cable-bounds":
        print(f"cable: ({report['p']},{report['q']})")
        print(f"tau: {report['tau']}")
        print(f"epsilon: {report['epsilon']}")
        ct = report["cable_tau"]
        print(f"cable_tau: {ct if ct is not None else 'unknown (epsilon != -1)'}")
        for key in ("lower", "upper"):
            bound = report[key]
            print(f"nu_plus_{key}: {bound if bound is not None else 'unknown'}")
    elif cmd == "hfk":
        _print_hfk(report["hfk"])
        print(f"total_rank: {report['total_rank']}")
        print(f"seifert_genus: {report['seifert_genus']}")


@functools.cache  # parse_args leaves the parser as it was
def _build_argparser() -> _Parser:
    ap = _Parser(prog="cfk", description="knot concordance invariants from bifiltered complexes")
    ap.add_argument("--version", action="version", version=f"cfk {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    p_inv = sub.add_parser("invariants", help="tau, nu, nu+, epsilon, V/H tables")
    p_inv.add_argument("expression")
    p_inv.add_argument("--vk", metavar="MIN..MAX", help="range of k for the V/H tables")
    p_inv.add_argument("--json", action="store_true")

    p_dinv = sub.add_parser("dinv", help="d-invariants of positive surgeries")
    p_dinv.add_argument("expression")
    p_dinv.add_argument("--surgery", required=True, metavar="P[/Q]")
    p_dinv.add_argument("--spinc", type=_int, default=None)
    p_dinv.add_argument("--json", action="store_true")

    p_genus = sub.add_parser("genus", help="4-ball genus bounds")
    p_genus.add_argument("expression")
    p_genus.add_argument("--json", action="store_true")

    p_cable = sub.add_parser("cable-bounds", help="nu+ bounds for the (p,q)-cable")
    p_cable.add_argument("expression")
    p_cable.add_argument("p", type=_int)
    p_cable.add_argument("q", type=_int)
    p_cable.add_argument("--json", action="store_true")

    p_hfk = sub.add_parser("hfk", help="hat-flavor knot homology ranks")
    p_hfk.add_argument("expression")
    p_hfk.add_argument("--json", action="store_true")

    p_val = sub.add_parser("validate", help="check a complex file")
    p_val.add_argument("file")
    p_val.add_argument("--json", action="store_true")

    sub.add_parser("selftest", help="run the built-in verification battery")
    return ap


def _run_validate(path: str, as_json: bool) -> int:
    C = cfkfile.read_complex(path)
    violations = validate(C)
    index = C.index()
    if as_json:
        print(json.dumps({
            "file": path,
            "valid": not violations,
            "violations": [{"kind": v.kind, "message": v.message} for v in violations],
        }, indent=2))
    else:
        for v in violations:
            print(f"[{v.kind}] {v.message}")
        print(f"{path}: {'INVALID' if violations else 'OK'} "
              f"({len(index.names)} generators, {len(index.powers)} terms)")
    return 2 if violations else 0


def main(argv: list[str] | None = None) -> int:
    ap = _build_argparser()
    try:
        args = ap.parse_args(argv)
        if args.command == "selftest":
            # the golden table and the oracle load only for this subcommand
            from . import selftest
            return 1 if selftest.run() else 0
        if args.command == "validate":
            return _run_validate(args.file, args.json)
        if args.command == "invariants":
            vk = _parse_vk(args.vk) if args.vk else None
            report = _invariants_report(args.expression, vk)
        elif args.command == "dinv":
            spec = _parse_surgery(args.surgery)
            report = _dinv_report(args.expression, spec, args.spinc)
        elif args.command == "genus":
            report = _genus_report(args.expression)
        elif args.command == "cable-bounds":
            report = _cable_bounds_report(args.expression, args.p, args.q)
        else:
            report = _hfk_report(args.expression)
        if args.json:
            print(json.dumps(report, indent=2))
        else:
            _render_text(args.command, report)
        return 0
    except CfkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
