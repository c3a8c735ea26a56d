"""Checks of cfk's reports against values computed apart from cfk's engine.

Each checker takes one parsed `--json` report and the expected values, and
returns the list of problems it found (empty when the report is right).
V and V_mirror are functions k -> V_k of the knot and of its mirror, from
the closed forms in knots.py or from cfk's brute-force oracle.  The checks
raise nothing, so they keep working under `python -O`.
"""
from __future__ import annotations

from knots import Knot, g4_bounds, lens_d, nu_plus_of


def _expect(problems: list[str], what: str, got, want) -> None:
    if got != want:
        problems.append(f"{what}: got {got!r}, want {want!r}")


def hfk_rows(knot: Knot) -> list[dict[str, int]]:
    return [{"alexander": a, "maslov": m, "rank": r}
            for (a, m), r in sorted(knot.hfk.items(), key=lambda am: (-am[0][0], -am[0][1]))]


def ladder(report: dict) -> list[str]:
    """The V-ladder identities on one report's V and H tables:
    V_{-k} = V_k + k, V_k - 1 <= V_{k+1} <= V_k, H_k = V_{-k}, nu+ is the
    least k >= 0 with V_k = 0, and tau <= nu <= tau + 1."""
    problems: list[str] = []
    V = {int(k): v for k, v in report["V"].items()}
    H = {int(k): v for k, v in report["H"].items()}
    for k, v in V.items():
        if -k in V and V[-k] != v + k:
            problems.append(f"V[{-k}] = {V[-k]} but V[{k}] + {k} = {v + k}")
        if k + 1 in V and not v - 1 <= V[k + 1] <= v:
            problems.append(f"V[{k + 1}] = {V[k + 1]} is not within [V[{k}] - 1, V[{k}]]")
        if -k in H and H[-k] != v:
            problems.append(f"H[{-k}] = {H[-k]} but V[{k}] = {v}")
    nu_plus = report["nu_plus"]
    if nu_plus in V and V[nu_plus] != 0:
        problems.append(f"V[nu_plus = {nu_plus}] = {V[nu_plus]} is not 0")
    if any(V[k] == 0 for k in range(0, nu_plus) if k in V):
        problems.append(f"V vanishes below nu_plus = {nu_plus}")
    if not report["tau"] <= report["nu"] <= report["tau"] + 1:
        problems.append(f"nu = {report['nu']} is not tau or tau + 1 (tau = {report['tau']})")
    return problems


def invariants(report: dict, knot: Knot, V, V_mirror) -> list[str]:
    problems = ladder(report)
    lower, upper = g4_bounds(nu_plus_of(V), nu_plus_of(V_mirror), knot)
    for key, want in (("expression", knot.expr), ("generators", knot.generators),
                      ("tau", knot.tau), ("nu", knot.nu), ("nu_plus", nu_plus_of(V)),
                      ("epsilon", knot.epsilon), ("hfk", hfk_rows(knot)),
                      ("sigma", knot.signature), ("g4_lower", lower), ("g4_upper", upper),
                      ("seifert_genus", knot.genus), ("warnings", [])):
        _expect(problems, key, report[key], want)
    for k, v in report["V"].items():
        _expect(problems, f"V[{k}]", v, V(int(k)))
    for k, v in report["H"].items():
        _expect(problems, f"H[{k}]", v, V(-int(k)))
    return problems


def genus(report: dict, knot: Knot, V, V_mirror) -> list[str]:
    problems: list[str] = []
    lower, upper = g4_bounds(nu_plus_of(V), nu_plus_of(V_mirror), knot)
    for key, want in (("expression", knot.expr), ("tau", knot.tau), ("nu", knot.nu),
                      ("nu_plus", nu_plus_of(V)), ("nu_plus_mirror", nu_plus_of(V_mirror)),
                      ("sigma", knot.signature), ("seifert_genus", knot.genus),
                      ("g4_lower", lower), ("g4_upper", upper)):
        _expect(problems, key, report[key], want)
    return problems


def cable_bounds(report: dict, knot: Knot, V, p: int, q: int) -> list[str]:
    """cfk's two-sided nu+ bounds for the (p,q)-cable and, when
    epsilon = -1, its tau = p tau + (p-1)(q+1)/2."""
    problems: list[str] = []
    lower = p * q // 2 + 1 if all(max(V(s // p), V(-((s - q) // p))) > 0
                                   for s in range(q)) else None
    upper = None if knot.g4_upper is None else p * knot.g4_upper + (p - 1) * (q - 1) // 2
    cable_tau = p * knot.tau + (p - 1) * (q + 1) // 2 if knot.epsilon == -1 else None
    for key, want in (("expression", knot.expr), ("p", p), ("q", q), ("tau", knot.tau),
                      ("epsilon", knot.epsilon), ("cable_tau", cable_tau),
                      ("lower", lower), ("upper", upper)):
        _expect(problems, key, report[key], want)
    return problems


def dinv(report: dict, knot: Knot, V, p: int) -> list[str]:
    """d-invariants of +p surgery: d(L(p,1), i) - 2 max(V_i, H_{i-p}),
    with H_{i-p} = V_{p-i}."""
    problems: list[str] = []
    want = [str(lens_d(p, i) - 2 * max(V(i), V(p - i))) for i in range(p)]
    _expect(problems, "expression", report["expression"], knot.expr)
    _expect(problems, "surgery", report["surgery"], f"{p}/1")
    _expect(problems, "d_invariants", report["d_invariants"], want)
    return problems


def hfk(report: dict, knot: Knot) -> list[str]:
    problems: list[str] = []
    rows = hfk_rows(knot)
    _expect(problems, "hfk", report["hfk"], rows)
    _expect(problems, "total_rank", report["total_rank"], sum(r["rank"] for r in rows))
    _expect(problems, "seifert_genus", report["seifert_genus"], knot.genus)
    return problems


def validate(report: dict, path: str) -> list[str]:
    problems: list[str] = []
    for key, want in (("file", path), ("valid", True), ("violations", [])):
        _expect(problems, key, report[key], want)
    return problems


PAPER_VALUES = {"tau": 0, "nu": 1, "nu_plus": 2, "epsilon": -1}


def paper_values(report: dict, annotated: bool) -> list[str]:
    """The source paper's values for its 45- and 225-generator examples,
    and g4 = 2 once the annotation g4_upper=2 supplies the upper bound."""
    problems: list[str] = []
    for key, want in PAPER_VALUES.items():
        if key in report:
            _expect(problems, key, report[key], want)
    if annotated and "g4_lower" in report:
        _expect(problems, "g4", (report["g4_lower"], report["g4_upper"]), (2, 2))
    return problems
