"""Plain-text complex files, version line "cfk v1".

    cfk v1
    # positions are (i, j), then the Maslov grading
    gen x0 0 1 0
    gen x1 1 1 1
    gen x2 1 0 0
    dif x1 x0 x2

One generator per gen line; one source per dif line with its targets as
either a bare name or U^<n>.<name>.  "#" starts a comment (full line or
trailing).  Integers are ASCII -?[0-9]+ (U powers [0-9]+).  A name is
nonempty, holds no whitespace or "#" and does not start with "U^", so
that it reads back as one name and never as a term; loads() and dumps()
both refuse any other.  Writing is canonical: generators in declared
order, dif lines sorted by source, targets sorted by (U power, name);
reading a canonical file back is byte-identical under dumps().  dumps()
refuses a term whose source or target is not a generator, whose U power is
negative, or that is repeated, since loads() would reject the file.
"""
from __future__ import annotations

import re
from itertools import repeat
from pathlib import Path
from typing import NoReturn

from .complexes import BifilteredComplex, DiffTerm, Generator
from .errors import FormatError

HEADER = "cfk v1"
_HEADER_FIELDS = HEADER.split()
# int() alone would also take "+1", "1_0" and non-ASCII digits.
_GEN_INTS = re.compile(r"-?[0-9]+ -?[0-9]+ -?[0-9]+")
_TERM = re.compile(r"U\^([0-9]+)\.(.+)")


def _name_problem(name: str) -> str | None:
    """Why a generator name cannot be written to a file and read back, or
    None when it can."""
    if name.startswith("U^"):
        return "collides with term syntax"
    if "#" in name:
        return "may not contain '#'"
    if name.split() != [name]:
        return "must be nonempty and contain no whitespace"
    return None


def loads(text: str, label: str = "") -> BifilteredComplex:
    """Read a complex from the text of a cfk v1 file, in one pass.

    Records are collected as plain tuples and made Generator and DiffTerm
    records in bulk at the end with tuple.__new__, which is what
    NamedTuple's own _make runs: calling the class once per record would
    go through its Python-level __new__ and cost about twice as much.
    """
    generators: list[tuple[str, int, int, int]] = []
    # Each declared name to its generator's own str, which the terms share:
    # a complex's index then finds their names by identity.
    declared: dict[str, str] = {}
    terms: list[tuple[str, str, int]] = []
    seen_terms: set[tuple[str, str, int]] = set()
    header = False
    for lineno, line in enumerate(text.splitlines(), start=1):
        if "#" in line:
            line = line.split("#", 1)[0]
        fields = line.split()
        if not fields:
            continue
        if not header:
            if fields != _HEADER_FIELDS:
                raise FormatError(f"missing '{HEADER}' header (found {' '.join(fields)!r})")
            header = True
            continue
        directive = fields[0]
        if directive == "gen":
            if len(fields) != 5:
                raise FormatError(
                    f"line {lineno}: gen needs name, i, j, maslov ({len(fields) - 1} fields given)")
            _, name, i, j, maslov = fields
            # split() has already ruled out whitespace and "#" in a name.
            if name.startswith("U^"):
                raise FormatError(f"line {lineno}: name {name!r} collides with term syntax")
            try:
                if _GEN_INTS.fullmatch(f"{i} {j} {maslov}") is None:
                    raise ValueError(maslov)
                generators.append((name, int(i), int(j), int(maslov)))
            except ValueError:  # not ASCII decimal, or past int()'s digit limit
                raise FormatError(f"line {lineno}: gen positions must be integers") from None
            declared[name] = name
        elif directive == "dif":
            if len(fields) < 3:
                raise FormatError(f"line {lineno}: dif needs a source and at least one target")
            source = declared.get(fields[1])
            if source is None:
                raise FormatError(
                    f"line {lineno}: dif references undeclared generator {fields[1]!r}")
            for token in fields[2:]:
                if token.startswith("U^"):
                    m = _TERM.fullmatch(token)
                    try:
                        if m is None:
                            raise ValueError(token)
                        upower, name = int(m.group(1)), m.group(2)
                    except ValueError:
                        raise FormatError(f"line {lineno}: malformed term {token!r}") from None
                else:
                    upower, name = 0, token
                target = declared.get(name)
                if target is None:
                    raise FormatError(
                        f"line {lineno}: dif references undeclared generator {name!r}")
                term = (source, target, upower)
                if term in seen_terms:
                    raise FormatError(
                        f"line {lineno}: term {token!r} repeated for source {source!r}")
                seen_terms.add(term)
                terms.append(term)
        else:
            raise FormatError(f"line {lineno}: unknown directive {directive!r}")
    if not header:
        raise FormatError(f"missing '{HEADER}' header (found 'empty file')")
    return BifilteredComplex(map(tuple.__new__, repeat(Generator), generators),
                             map(tuple.__new__, repeat(DiffTerm), terms), label)


def dumps(C: BifilteredComplex) -> str:
    lines = [HEADER]
    for name, i, j, maslov in C.generators:
        problem = _name_problem(name)
        if problem is not None:
            raise FormatError(f"cannot write generator {name!r}: name {problem}")
        lines.append(f"gen {name} {i} {j} {maslov}")
    names = C.by_name
    by_source: dict[str, list[tuple[int, str]]] = {}
    for source, target, n in C.terms:
        if n < 0 or target not in names:
            _refuse_terms(C)
        by_source.setdefault(source, []).append((n, target))
    if not by_source.keys() <= names.keys() or len(set(C.terms)) < len(C.terms):
        _refuse_terms(C)
    for source in sorted(by_source):
        parts = [target if n == 0 else f"U^{n}.{target}"
                 for n, target in sorted(by_source[source])]
        lines.append(f"dif {source} {' '.join(parts)}")
    return "\n".join(lines) + "\n"


def _refuse_terms(C: BifilteredComplex) -> NoReturn:
    """Raise FormatError for the first term of C that a file cannot carry."""
    seen: set[DiffTerm] = set()
    for term in C.terms:
        source, target, n = term
        problem = ("source is not a generator" if source not in C.by_name
                   else "target is not a generator" if target not in C.by_name
                   else "U power is negative" if n < 0
                   else "term is repeated" if term in seen else None)
        if problem is not None:
            raise FormatError(f"cannot write term U^{n} {source!r}->{target!r}: {problem}")
        seen.add(term)
    raise AssertionError("every term of the complex can be written")


def read_complex(path: str | Path) -> BifilteredComplex:
    p = Path(path)
    try:
        text = p.read_text()
    except OSError as exc:
        raise FormatError(f"cannot read {p}: {exc}") from None
    return loads(text, label=str(path))


def write_complex(C: BifilteredComplex, path: str | Path) -> None:
    Path(path).write_text(dumps(C))
