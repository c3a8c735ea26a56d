"""The benchmark's workloads: seeded inputs, the commands of one job, and
the expected values each output is checked against.

A job is one knot taken through the workload's commands.  Every seed of a
workload gets the same slots: the same kinds of knot and the same
continuous ladder of job sizes, about a factor of two from the smallest to
the largest, so that no single size class sets the median (see
README.md).  The seed never picks a size.
"""
from __future__ import annotations

import contextlib
import functools
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path

import checks
from knots import Knot, cable, torus

T23, T25, T34 = torus(2, 3), torus(2, 5), torus(3, 4)
CAB = cable(2, 5, T23)


def _knot(parts, g4_upper=None) -> Knot:
    return Knot(tuple(f for f, _m in parts), tuple(m for _f, m in parts), g4_upper)


PAPER_45 = _knot([(torus(2, 9), False), (CAB, True)], g4_upper=2)
PAPER_225 = _knot([(T25, False), (T23, False), (T23, False), (CAB, True)], g4_upper=2)


@dataclass(frozen=True)
class Item:
    """One knot of a workload's pool with its job's parameters: the
    surgery coefficient p, the half-width of the V window of
    paper_reports, and the .cfk file of file_check."""
    knot: Knot
    p: int = 0
    vk: int = 0
    path: str = ""


def cli(cfk, argv: list[str]) -> tuple:
    """(exit code, stdout, stderr) of one `cfk` command, or ("raised",
    repr) when it raises: an operation that fails is counted, not fatal."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cfk.cli.main(argv)
    except Exception as exc:
        return "raised", repr(exc)
    return rc, out.getvalue(), err.getvalue()


def failure(output) -> str:
    """Why an operation failed: it raised, or a CLI call exited nonzero."""
    if not isinstance(output, tuple):
        return ""
    if output[0] == "raised":
        return f"raised {output[1]}"
    if len(output) == 3 and output[0] != 0:
        return f"exit code {output[0]}: {output[2].strip()}"
    return ""


def verdict(output, check) -> tuple[bool, list[str]]:
    """(failed, problems) of one operation; check(output) lists the
    problems of an output, and a check that raises counts as one."""
    why = failure(output)
    if why:
        return True, [why]
    try:
        return False, check(output)
    except Exception as exc:  # a malformed output is a wrong one
        return False, [f"unreadable output: {exc!r}"]


def oracle_V(cfk, C):
    """k -> V_k of C from cfk's brute-force oracle, which expands the
    F2[U]-complex over F2 and never runs the Smith reduction."""
    return functools.cache(lambda k: cfk.oracle.v_by_u_rank(C, k))


class ReportWorkload:
    """Jobs that run CLI subcommands on an expression and check each
    report.  Subclasses name the commands and where V comes from."""
    name = ""

    def pool(self, rng: random.Random, workdir: Path, cfk) -> list[Item]:
        raise NotImplementedError

    def commands(self, item: Item) -> list[list[str]]:
        raise NotImplementedError

    def run(self, cfk, item: Item) -> list:
        return [cli(cfk, argv) for argv in self.commands(item)]

    def V_pair(self, cfk, item: Item):
        raise NotImplementedError

    def check(self, cfk, item: Item, outputs: list) -> list[tuple[bool, list[str]]]:
        """(failed, problems) per operation of one job."""
        V, V_mirror = self.V_pair(cfk, item)
        return [verdict(output, lambda o, command=argv[0]: self.check_report(
                    command, json.loads(o[1]), item, V, V_mirror))
                for argv, output in zip(self.commands(item), outputs)]

    def check_report(self, command, report, item, V, V_mirror) -> list[str]:
        knot = item.knot
        if command == "invariants":
            return checks.invariants(report, knot, V, V_mirror)
        if command == "genus":
            return checks.genus(report, knot, V, V_mirror)
        if command == "dinv":
            return checks.dinv(report, knot, V, item.p)
        return [f"no check for {command}"]

    def extra(self, cfk) -> list[tuple[bool, list[str]]]:
        """Verdicts of operations run once per run, outside the timed part."""
        return []


class PaperReports(ReportWorkload):
    """Reports on the paper's 225-generator example and on other sums with
    exactly 225 generators and 660 terms: torus(2,3) twice and two knots of
    five generators, some mirrored.  Every seed draws the same slots, each
    with nu+ = 2 on one side and 0 on the other and with its own half-width
    of the V window, so that the jobs of every seed make the same ladder of
    reduction counts; the seed picks the factor order, the order of the
    jobs, and whether the paper's class carries g4_upper=2."""
    name = "paper_reports"
    CABLE = (2, 3)
    PAPER = ((T25, False), (T23, False), (T23, False), (CAB, True))
    # (factors, half-width of the V window); PAPER_225 itself has window 6.
    SLOTS = (
        [(PAPER, 1), (PAPER, 3), (PAPER, 4)]
        # two-strand torus knots with tau = +2 and -2
        + [(((T23, s), (T23, s), (T25, False), (T25, True)), w) for s, w in ((False, 2), (True, 5))]
        + [(((T23, s), (T23, s), (T25, not s), (T25, not s)), w) for s, w in ((True, 2), (False, 5))]
        # a slice pair X # mirror(X) plus torus(2,3) twice, one sign
        + [(((x, False), (x, True), (T23, s), (T23, s)), w)
           for x, ws in ((T34, (1, 6)), (CAB, (3, 4))) for s, w in zip((False, True), ws)]
    )

    def _draw(self, slot, rng: random.Random) -> Knot:
        parts = list(slot)
        rng.shuffle(parts)
        return _knot(parts, rng.choice((None, 2)) if slot is self.PAPER else None)

    def pool(self, rng, workdir, cfk):
        items = [Item(PAPER_225, p=3, vk=6)]
        for slot, window in self.SLOTS:
            knot = self._draw(slot, rng)
            while knot in [item.knot for item in items]:
                knot = self._draw(slot, rng)
            items.append(Item(knot, p=3, vk=window))
        rng.shuffle(items)
        return items

    def commands(self, item):
        e, (p, q) = item.knot.expr, self.CABLE
        return [["invariants", e, f"--vk=-{item.vk}..{item.vk}", "--json"], ["genus", e, "--json"],
                ["cable-bounds", e, str(p), str(q), "--json"],
                ["dinv", e, "--surgery", str(item.p), "--json"]]

    def V_pair(self, cfk, item):
        C = cfk.build_complex(cfk.parse(item.knot.expr))
        return oracle_V(cfk, C), oracle_V(cfk, cfk.dual(C))

    def check_report(self, command, report, item, V, V_mirror):
        if command == "cable-bounds":
            problems = checks.cable_bounds(report, item.knot, V, *self.CABLE)
        else:
            problems = super().check_report(command, report, item, V, V_mirror)
        kind, _ = item.knot.local_class
        if kind == "paper":
            problems += checks.paper_values(report, item.knot.g4_upper == 2)
        return problems

    def extra(self, cfk):
        """The paper's 45-generator example, once per run."""
        item = Item(PAPER_45, p=3, vk=3)
        return self.check(cfk, item, self.run(cfk, item))


class HighGenus(ReportWorkload):
    """genus, invariants over the whole Seifert-genus window, and
    d-invariants of p-surgery with p within two of the genus, on positive
    L-space knots of genus 36-57 and a positive sum of genus 43.  Every
    seed gets the same ladder of knots, whose jobs span about a factor of
    two in time; the seed picks each surgery coefficient, the factor order
    of the sum, and the order of the jobs."""
    name = "high_genus"
    LADDER = (torus(2, 73), cable(2, 75, T23), torus(2, 85), cable(2, 87, T23),
              torus(2, 97), cable(2, 99, T23), torus(3, 58), (torus(7, 15), T23))

    def pool(self, rng, workdir, cfk):
        items = []
        for entry in self.LADDER:
            factors = list(entry) if isinstance(entry, tuple) else [entry]
            rng.shuffle(factors)
            knot = Knot(tuple(factors), (False,) * len(factors))
            items.append(Item(knot, p=knot.genus + rng.randint(-2, 2)))
        rng.shuffle(items)
        return items

    def commands(self, item):
        e = item.knot.expr
        return [["genus", e, "--json"], ["invariants", e, "--json"],
                ["dinv", e, "--surgery", str(item.p), "--json"]]

    def V_pair(self, cfk, item):
        return item.knot.V, item.knot.mirror().V


class FileCheck:
    """cfk v1 files of 2,025-3,375 generators written at set-up: three
    positive and three mirrored sums of five or six L-space knots, one per
    size in a ladder whose jobs span about a factor of two in time.  A job
    validates the file, takes its hat-flavor homology through file("..."),
    loads it with the library, computes tau and nu, and writes it back with
    dumps.  Sums with mixed signs are left out: their jobs took up to half
    again as long as one-sign sums of the same size."""
    name = "file_check"
    # Generator counts of the factors of each file: 2,025, 2,205, 2,625,
    # 2,835, 3,087 and 3,375 generators.
    SIZES = ((3, 3, 3, 3, 5, 5), (3, 3, 5, 7, 7), (3, 5, 5, 5, 7),
             (3, 3, 3, 3, 5, 7), (3, 3, 7, 7, 7), (3, 3, 3, 5, 5, 5))
    BY_SIZE = {3: [T23], 5: [T25, T34, CAB], 7: [torus(2, 7), torus(3, 5)]}
    OPS = ("validate", "hfk", "loads", "tau", "nu", "dumps")

    def _draw(self, sizes, mirrored: bool, rng: random.Random) -> Knot:
        factors = [rng.choice(self.BY_SIZE[n]) for n in sizes]
        rng.shuffle(factors)
        return Knot(tuple(factors), (mirrored,) * len(factors))

    def pool(self, rng, workdir, cfk):
        workdir.mkdir(parents=True, exist_ok=True)
        items = []
        for i, sizes in enumerate(self.SIZES):
            knot = self._draw(sizes, i % 2 == 1, rng)
            path = workdir / f"k{i}.cfk"
            cfk.write_complex(cfk.build_complex(cfk.parse(knot.expr)), path)
            items.append(Item(knot, path=str(path)))
        rng.shuffle(items)
        return items

    def run(self, cfk, item):
        path = item.path
        out = [cli(cfk, ["validate", path, "--json"]),
               cli(cfk, ["hfk", f'file("{path}")', "--json"])]
        try:
            text = Path(path).read_text()
            C = cfk.cfkfile.loads(text)
            out.append((len(C.generators), len(C.terms)))
            out.append(cfk.invariants.tau(C))
            out.append(cfk.invariants.nu(C))
            out.append(cfk.cfkfile.dumps(C) == text)
        except Exception as exc:  # the remaining library operations fail with it
            out += [("raised", repr(exc))] * (len(self.OPS) - len(out))
        return out

    def check(self, cfk, item, outputs):
        knot = item.knot
        checkers = [
            lambda o: checks.validate(json.loads(o[1]), item.path),
            lambda o: checks.hfk(json.loads(o[1]), knot),
            *(lambda o, op=op, want=want: [] if o == want else [f"{op}: got {o!r}, want {want!r}"]
              for op, want in (("loads", (knot.generators, knot.terms)), ("tau", knot.tau),
                               ("nu", knot.nu), ("dumps", True))),
        ]
        return [verdict(output, c) for output, c in zip(outputs, checkers)]

    def extra(self, cfk):
        return []


WORKLOADS = {w.name: w for w in (PaperReports(), HighGenus(), FileCheck())}
