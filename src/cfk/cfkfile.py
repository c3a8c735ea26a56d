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
refuses a term whose U power is negative or that is repeated, since
loads() would reject the file; every term of a complex names its own
generators (see cfk.complexes).

loads() fills the columns of the complex's index (see cfk.complexes)
directly, and makes no Generator or DiffTerm record: those are made from
the columns when a caller reads C.generators or C.terms.  A text it reads
by whole columns repeats no name and no (source, target) pair, so it
seeds the complex's repeat flag (C.repeats()) as False.
dumps() makes no Generator or DiffTerm record.  It checks the terms, in
term order, only when one has a negative U power or C.repeats(), and
raises at the first term it cannot write.  It ranks the
names once (a name at two positions gets one rank) and keys each term by
one int, (source rank, U power, target rank); it sorts the keys only when
they are out of order, which a written file's never are, and cuts the dif
lines where the source changes.

Files are read and written as UTF-8, whatever the locale; a file that is
not UTF-8 is a FormatError ("cannot read PATH: ...").
"""
from __future__ import annotations

import operator
import re
from collections.abc import Sequence
from itertools import chain, compress, islice, repeat
from operator import itemgetter, methodcaller
from pathlib import Path

from .complexes import BifilteredComplex
from .errors import FormatError

HEADER = "cfk v1"
_HEADER_FIELDS = HEADER.split()
# int() alone would also take "+1", "1_0" and non-ASCII digits.
_GEN_INTS = re.compile(r"-?[0-9]+ -?[0-9]+ -?[0-9]+")
_INTS = re.compile(r"-?[0-9]+(?: -?[0-9]+)*")
# Lines split at a time by _read_columns.
_CHUNK = 1024
_HEADER, _GEN, _DIF = 0, 1, 2
_DIRECTIVES = {_HEADER_FIELDS[0]: _HEADER, "gen": _GEN, "dif": _DIF}
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
    """Read a complex from the text of a cfk v1 file.

    A text with no error, every generator declared before the first dif
    line and no name or (source, target) pair repeated, as dumps() writes,
    is read by whole columns (_read_columns), with C.repeats() seeded as
    False.  Any other text, including every text with an error, is
    read line by line (_read_lines), which raises the first error.
    """
    columns = _read_columns(text)
    if columns is None:
        return BifilteredComplex.from_columns(*_read_lines(text), label=label)
    return BifilteredComplex.from_columns(*columns, label=label, clean=True)


_Columns = tuple[Sequence[str], list[int], list[int], list[int], list[int], list[int], list[int]]


def _read_columns(text: str) -> _Columns | None:
    """The columns (names, i, j, M, term powers, source and target
    positions) of a text with no error, every generator declared before
    the first dif line and no name or (source, target) pair repeated, or
    None for any other text.  Whenever this returns columns, _read_lines
    returns the same ones."""
    lines = text.splitlines()
    if "#" in text:
        lines = [line.split("#", 1)[0] for line in lines]
    # Per nonempty line: its directive as a number, its field count and its
    # second field, and the fields after the second in one flat list.  The
    # lines are split a chunk at a time: all of a file's lines held as
    # field lists at once would take about six times the text's size.
    directives: list[int | None] = []
    widths: list[int] = []
    seconds: list[str] = []
    rest: list[str] = []
    rows: list[list[str]] = []
    for start in range(0, len(lines), _CHUNK):
        rows = list(filter(None, map(str.split, lines[start:start + _CHUNK])))
        if min(map(len, rows), default=2) < 2:
            return None
        directives += map(_DIRECTIVES.get, map(itemgetter(0), rows))
        widths += map(len, rows)
        seconds += map(itemgetter(1), rows)
        rest += chain.from_iterable(map(itemgetter(slice(2, None)), rows))
    del lines, rows
    n = directives.count(_GEN)
    if (directives[:1] != [_HEADER] or widths[0] != 2 or seconds[0] != _HEADER_FIELDS[1]
            or directives.count(_DIF) != len(directives) - 1 - n or _GEN in directives[n + 1:]
            or set(widths[1:n + 1]) != {5}):
        return None
    names = seconds[1:n + 1]
    if len(set(names)) < n or "\nU^" in "\n" + "\n".join(names):
        return None
    ints = rest[:3 * n]
    if _INTS.fullmatch(" ".join(ints)) is None:
        return None
    try:
        ints = list(map(int, ints))
    except ValueError:  # past int()'s digit limit
        return None
    i, j, maslov = ints[0::3], ints[1::3], ints[2::3]
    widths = widths[n + 1:]
    if min(widths, default=3) < 3:
        return None
    position = dict(zip(names, range(n)))
    starts = list(map(position.get, seconds[n + 1:]))
    if None in starts:
        return None
    tokens = rest[3 * n:]
    del ints, seconds, rest
    # No name starts with "U^", so the lookup misses exactly the U^n terms
    # and the undeclared names.
    targets = list(map(position.get, tokens))
    powers = [0] * len(tokens)
    for p in compress(range(len(tokens)), map(operator.is_, targets, repeat(None))):
        m = _TERM.fullmatch(tokens[p])
        if m is None or m.group(2) not in position:
            return None
        try:
            powers[p] = int(m.group(1))
        except ValueError:  # past int()'s digit limit
            return None
        targets[p] = position[m.group(2)]
    del tokens
    sources = list(chain.from_iterable(map(repeat, starts, map(operator.sub, widths, repeat(2)))))
    # One int per (source, target) pair: no pair repeats, so no term does.
    if len(set(map(operator.add, map(operator.mul, sources, repeat(n)), targets))) < len(sources):
        return None
    return names, i, j, maslov, powers, sources, targets


def _read_lines(text: str) -> _Columns:
    """The columns of a cfk v1 text, read line by line; raises FormatError
    for the first error, with its line number."""
    generators: list[tuple[str, int, int, int]] = []
    declared: set[str] = set()
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
            declared.add(name)
        elif directive == "dif":
            if len(fields) < 3:
                raise FormatError(f"line {lineno}: dif needs a source and at least one target")
            source = fields[1]
            if source not in declared:
                raise FormatError(
                    f"line {lineno}: dif references undeclared generator {source!r}")
            for token in fields[2:]:
                if token.startswith("U^"):
                    m = _TERM.fullmatch(token)
                    try:
                        if m is None:
                            raise ValueError(token)
                        upower, target = int(m.group(1)), m.group(2)
                    except ValueError:
                        raise FormatError(f"line {lineno}: malformed term {token!r}") from None
                else:
                    upower, target = 0, token
                if target not in declared:
                    raise FormatError(
                        f"line {lineno}: dif references undeclared generator {target!r}")
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
    names, i, j, maslov = map(list, zip(*generators)) if generators else ([],) * 4
    # A repeated name stands for its last declaration, as in an index.
    position = dict(zip(names, range(len(names))))
    return (names, i, j, maslov, [n for _s, _t, n in terms],
            [position[s] for s, _t, _n in terms], [position[t] for _s, t, _n in terms])


def dumps(C: BifilteredComplex) -> str:
    names, I, J, M, powers, sources, targets, _ = C.index()
    joined = "".join(names)
    if "#" in joined or joined.split() != [joined] or not all(names) or any(
            map(methodcaller("startswith", "U^"), names)):
        for name in names:
            problem = _name_problem(name)
            if problem is not None:
                raise FormatError(f"cannot write generator {name!r}: name {problem}")
    if C.repeats() or min(powers, default=0) < 0:
        _refuse_terms(names, powers, sources, targets)
    # Terms are keyed by their names: a complex built from columns may hold
    # one name at two positions, and both get the name's one rank.  A term's
    # key (source rank, U power, target rank) is one int, so the terms are
    # in dif-line order when their keys ascend, as a written file's do, and
    # one integer sort puts them in order otherwise.
    ordered = sorted(set(names))
    width = len(ordered)
    rank = list(map(dict(zip(ordered, range(width))).__getitem__, names))
    heads = list(map(rank.__getitem__, sources))
    ends = list(map(rank.__getitem__, targets))
    top = max(powers, default=0) + 1
    if top > 1:  # heads carry the U power until the keys are in order
        heads = list(map(operator.add, map(operator.mul, heads, repeat(top)), powers))
    keys = list(map(operator.add, map(operator.mul, heads, repeat(width)), ends))
    if any(map(operator.gt, keys, islice(keys, 1, None))):
        keys.sort()
        heads = list(map(operator.floordiv, keys, repeat(width)))
        ends = list(map(operator.mod, keys, repeat(width)))
    # Each term's text has a space before it, and a dif line starts at each
    # change of source.
    parts = list(map([" " + name for name in ordered].__getitem__, ends))
    if top > 1:
        heads, powers = zip(*map(divmod, heads, repeat(top)))
        for p in compress(range(len(parts)), powers):
            parts[p] = f" U^{powers[p]}.{ordered[ends[p]]}"
    for p in compress(range(len(parts)), map(operator.ne, heads, chain((None,), heads))):
        parts[p] = f"\ndif {ordered[heads[p]]}{parts[p]}"
    gens = [f"gen {name} {i} {j} {m}" for name, i, j, m in zip(names, I, J, M)]
    return "\n".join([HEADER, *gens]) + "".join(parts) + "\n"


def _refuse_terms(names: Sequence[str], powers: Sequence[int], sources: list[int],
                  targets: list[int]) -> None:
    """Raise FormatError for the first term, in term order, that dumps
    cannot write: a negative U power, or a term whose (source name, target
    name, U power) came before."""
    seen: set[tuple[str, str, int]] = set()
    for s, t, n in zip(sources, targets, powers):
        term = (names[s], names[t], n)
        if n < 0 or term in seen:
            problem = "U power is negative" if n < 0 else "term is repeated"
            raise FormatError(f"cannot write term U^{n} {names[s]!r}->{names[t]!r}: {problem}")
        seen.add(term)


def read_complex(path: str | Path) -> BifilteredComplex:
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise FormatError(f"cannot read {p}: {exc}") from None
    return loads(text, label=str(path))


def write_complex(C: BifilteredComplex, path: str | Path) -> None:
    Path(path).write_text(dumps(C), encoding="utf-8")
