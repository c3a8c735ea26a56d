"""The position-based validate, tau, nu and HFK-hat against the name-keyed
references in references.py, the column-based loads, staircase, dual
and tensor against the record-based ones, homology_over_U and dumps
against the dict-table kernel and the per-term writer they replaced,
d_invariants and the invariants report against the ones that reduced
every level they name, and tau, nu, epsilon and HFK-hat against the
whole-slice pairing and filter they replaced."""
import json
from collections import Counter
import random
import re
import tracemalloc
from math import gcd

import pytest

import references
from conftest import cable_staircase, random_sums, torus_staircase
from cfk import f2, selftest
from cfk.cli import main
from cfk.cfkfile import _read_columns, dumps, loads
from cfk.complexes import BifilteredComplex, DiffTerm, Generator, dual, tensor, validate
from cfk.errors import FormatError
from cfk.expr import build_complex, parse
from cfk.invariants import (V, a_minus, epsilon, hfk_hat, homology_over_U, nu, nu_plus,
                             tau)
from cfk.surgery import SurgerySpec, d_invariants, genus_report

PIECES = [lambda p: torus_staircase(2, 3, p), lambda p: torus_staircase(2, 5, p),
          lambda p: torus_staircase(3, 4, p), lambda p: cable_staircase(p)]


def random_complex(rng):
    """A tensor product of up to three staircases and mirrors, renamed and
    shuffled, with each generator g replaced by U^c g: c in [0, 2] on a
    generator no term enters and c in [-2, 0] on one no term leaves.  That
    is a change of basis over F2[U, U^-1], so the complex stays valid with
    the same invariants, and its terms get U powers up to 4."""
    C = None
    for prefix in "xyz"[:rng.randint(1, 3)]:
        piece = rng.choice(PIECES)(prefix)
        piece = dual(piece) if rng.random() < 0.5 else piece
        C = piece if C is None else tensor(C, piece)
    labels = [f"g{i}" for i in range(len(C.generators))]
    rng.shuffle(labels)
    rename = {g.name: label for g, label in zip(C.generators, labels)}
    sources = {s for s, _t, _n in C.terms}
    targets = {t for _s, t, _n in C.terms}
    shift = {name: rng.randint(0 if name in sources else -2, 0 if name in targets else 2)
             for name, _i, _j, _m in C.generators}
    gens = [Generator(rename[name], i - shift[name], j - shift[name], m - 2 * shift[name])
            for name, i, j, m in C.generators]
    terms = [DiffTerm(rename[s], rename[t], n + shift[s] - shift[t]) for s, t, n in C.terms]
    rng.shuffle(gens)
    rng.shuffle(terms)
    return BifilteredComplex(gens, terms)


def perturb(C, rng):
    """C with one random defect of the kinds validate reports.  A term
    naming no generator ("ghost") is refused by the record constructor, so
    that kind checks the refusal and returns C's records unchanged."""
    gens, terms = list(C.generators), list(C.terms)
    kind = rng.choice(["drop", "repeat", "ghost", "negative", "grading", "redeclare"])
    if kind == "drop":
        terms.pop(rng.randrange(len(terms)))
    elif kind == "repeat":
        terms.insert(rng.randrange(len(terms) + 1), rng.choice(terms))
    elif kind == "ghost":
        name = rng.choice(gens).name
        ghost = DiffTerm("ghost", name, 0) if rng.random() < 0.5 else DiffTerm(name, "ghost", 0)
        p = rng.randrange(len(terms) + 1)
        message = (f"term U^0 {ghost.source!r}->{ghost.target!r} "
                   "references unknown generator 'ghost'")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            BifilteredComplex(gens, terms[:p] + [ghost] + terms[p:])
    elif kind == "negative":
        p = rng.randrange(len(terms))
        terms[p] = terms[p]._replace(upower=-1 - terms[p].upower)
    elif kind == "grading":
        p = rng.randrange(len(gens))
        gens[p] = gens[p]._replace(maslov=gens[p].maslov + rng.choice([-2, -1, 1, 2]))
    else:
        name, i, j, m = rng.choice(gens)
        gens.insert(rng.randrange(len(gens) + 1),
                    Generator(name, i + rng.randint(-1, 1), j + rng.randint(-1, 1), m))
    return BifilteredComplex(gens, terms)


def violations(check, C):
    return [(v.kind, v.message) for v in check(C)]


def test_validate_matches_the_reference_on_perturbed_complexes():
    rng = random.Random(9143)
    seen = set()
    for _ in range(500):
        C = random_complex(rng)
        for _defects in range(rng.randint(0, 2)):
            if C.terms:
                C = perturb(C, rng)
        expected = violations(references.validate, C)
        assert violations(validate, C) == expected, C
        seen.update((kind, "U^0*" not in message) for kind, message in expected)
    # every structural kind came up, and d^2 residues with and without a U power
    assert seen >= {(kind, True) for kind in ("duplicate-name", "duplicate-term",
                                              "filtration", "grading")}
    assert seen >= {("d-squared", False), ("d-squared", True)}


def test_tau_nu_and_hfk_hat_match_the_reference_on_random_sums():
    rng = random.Random(5527)
    K = "torus(2,9) # mirror(cable(2,5,torus(2,3)))"
    paper = [build_complex(parse(e)) for e in (K, f"{K} # {K}")]
    for C in [random_complex(rng) for _ in range(150)] + paper + [dual(C) for C in paper]:
        assert validate(C) == []
        assert tau(C) == references.tau(C), C
        assert nu(C) == references.nu(C), C
        assert hfk_hat(C) == references.hfk_hat(C), C


def late_pivot(level):
    """Whether some row of the level becomes a pivot only after the walk
    has reduced its own column: its owner comes after it in rank order.
    Clearing cannot skip such a column, so the reference's pair check sees
    it reduce to zero."""
    order = sorted(range(len(level.grading)), key=level.grading.__getitem__, reverse=True)
    rank = {name: r for r, name in enumerate(level.basis[p][0] for p in order)}
    cols = [0] * len(order)
    for s, t, _e in level.terms:
        cols[rank[s]] |= 1 << rank[t]
    return any(o > lead - 1 for lead, o in enumerate(f2.pairs(cols, len(cols))) if o >= 0)


def test_free_gradings_tau_and_nu_match_the_dict_kernel_on_random_sums():
    """homology_over_U over the list pivot table gives the very free
    gradings that the dict-table kernel gave, at every level from two below
    the Alexander range to two above it, and tau and nu match the
    name-keyed references.  The reference checks every pivot pair, which
    homology_over_U leaves to the complex's verdict; many of the levels
    have a pivot row whose column the walk reduces before the row becomes
    a pivot, where clearing cannot stand in for that check."""
    rng = random.Random(6113)
    late = 0
    for _ in range(120):
        C = random_complex(rng)
        lo, hi = C.index().alexander_range
        for k in range(lo - 2, hi + 3):
            level = a_minus(C, k)
            assert homology_over_U(level) == references.homology_over_U(level), (C, k)
            late += late_pivot(level)
        assert (tau(C), nu(C)) == (references.tau(C), references.nu(C)), C
    assert late > 0


def test_free_gradings_match_the_dict_kernel_on_k_sum_k():
    """Every level of K # K (2,025 generators, where clearing skips about
    1,000 columns a level) has the dict-table kernel's free gradings."""
    K = "torus(2,9) # mirror(cable(2,5,torus(2,3)))"
    C = build_complex(parse(f"{K} # {K}"))
    lo, hi = C.index().alexander_range
    for k in range(lo, hi + 1):
        level = a_minus(C, k)
        assert homology_over_U(level) == references.homology_over_U(level), k


def with_acyclic_pairs(C, rng, count):
    """C plus count acyclic pairs p -> q: a U^0 term between two new
    generators at one position (i, j), with M(q) = M(p) - 1, each put at a
    random place in the generator and term lists.  A pair is a bifiltered
    direct summand that cancels in every slice and every level, so every
    invariant of C is unchanged, and every reduction has one pivot more to
    make."""
    gens, terms = list(C.generators), list(C.terms)
    for n in range(count):
        _name, i, j, m = rng.choice(gens)
        m += rng.choice((0, 1))
        for g in (Generator(f"p{n}", i, j, m), Generator(f"q{n}", i, j, m - 1)):
            gens.insert(rng.randrange(len(gens) + 1), g)
        terms.insert(rng.randrange(len(terms) + 1), DiffTerm(f"p{n}", f"q{n}", 0))
    return BifilteredComplex(gens, terms)


def test_acyclic_pairs_change_no_reader():
    """Random sums and the paper's 45- and 225-generator knots, with
    acyclic pairs added: tau, nu, epsilon, HFK-hat and every V level are
    those of the complex without the pairs, each level's free gradings
    are the dict-table kernel's, and tau, nu, epsilon and HFK-hat are the
    whole-slice references'.  HFK-hat and every level reduce the pairs."""
    rng = random.Random(3301)
    K = "torus(2,9) # mirror(cable(2,5,torus(2,3)))"
    paper = [build_complex(parse(e)) for e in (
        K, "torus(2,5) # torus(2,3) # torus(2,3) # mirror(cable(2,5,torus(2,3)))")]
    pool = [random_complex(rng) for _ in range(60)] + paper
    readers = ((tau, references.slice_tau), (nu, references.slice_nu),
               (epsilon, references.slice_epsilon), (hfk_hat, references.slice_hfk_hat))
    for C in pool + [dual(C) for C in pool]:
        P = with_acyclic_pairs(C, rng, rng.randint(1, 6))
        assert len(set(P.index().names)) == len(P.index().names)
        assert validate(P) == []
        copy = BifilteredComplex.from_columns(*P.index()[:7])
        for mine, reference in readers:
            assert mine(P) == mine(C) == reference(copy), (mine.__name__, P)
        lo, hi = P.index().alexander_range
        for k in range(lo, hi + 1):
            level = a_minus(P, k)
            assert homology_over_U(level) == references.homology_over_U(level), (P, k)
            assert V(P, k) == V(C, k), (P, k)


def unwritable(C, rng):
    """C's columns with one change dumps must handle: a generator renamed
    to another's name or to a name that cannot be written, or a term's
    (source, target) pair repeated with another U power."""
    x = C.index()
    names, powers, sources, targets = list(x.names), list(x.powers), x.sources[:], x.targets[:]
    kind = rng.choice(["rename", "unwritable", "pair"])
    if kind == "pair" and powers:
        p = rng.randrange(len(powers))
        q = rng.randrange(len(powers) + 1)
        powers.insert(q, powers[p] + rng.randint(1, 2))
        sources.insert(q, sources[p])
        targets.insert(q, targets[p])
    elif kind == "rename":
        names[rng.randrange(len(names))] = rng.choice(names)
    else:
        names[rng.randrange(len(names))] = rng.choice(["U^x", "a#b", "a b", "", "tab\t"])
    return BifilteredComplex.from_columns(names, x.i, x.j, x.maslov, powers, sources, targets)


def written(write, C):
    try:
        return "text", write(C)
    except FormatError as exc:
        return "FormatError", str(exc)


def test_dumps_matches_the_per_term_writer_on_random_complexes():
    """dumps gives the per-term writer's text or its FormatError, on complexes
    with U powers, shuffled terms, repeated names and pairs, negative powers
    and names that cannot be written, built from records, from columns and
    read back from a file."""
    rng = random.Random(7219)
    seen = set()
    for _ in range(300):
        C = random_complex(rng)
        for _defects in range(rng.randint(0, 2)):
            C = perturb(C, rng)
        if rng.random() < 0.4:
            C = unwritable(C, rng)
        kind, out = written(dumps, C)
        assert (kind, out) == written(references.dumps, C), C
        seen.add(out.split(": ")[-1] if kind == "FormatError" else
                 "U powers" if "U^" in out else "no U power")
        if kind == "text":
            x = C.index()
            if len(set(x.names)) < len(x.names):
                seen.add("written repeated name")
            if len(set(zip(x.sources, x.targets))) < len(x.sources):
                seen.add("written repeated pair")
            R = loads(out)
            assert dumps(R) == references.dumps(R) == out
    assert seen >= {"U powers", "no U power", "U power is negative", "term is repeated",
                    "name collides with term syntax", "name may not contain '#'",
                    "name must be nonempty and contain no whitespace",
                    "written repeated name", "written repeated pair"}, seen


def test_validate_peak_memory_is_no_more_than_the_reference():
    K = "torus(2,9) # mirror(cable(2,5,torus(2,3)))"
    C = build_complex(parse(f"{K} # {K} # torus(2,5)"))
    assert len(C.generators) == 10_125
    peaks = {}
    for check in (references.validate, validate):
        fresh = BifilteredComplex(C.generators, C.terms)  # no index built yet
        tracemalloc.start()
        try:
            assert check(fresh) == []
            peaks[check] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[validate] <= peaks[references.validate], peaks


def perturb_text(text, rng):
    """A cfk v1 text with one random change: layout that loads ignores
    (comments, tabs, blank lines, CRLF), or a declaration, term or field
    that loads must refuse or read apart from the bulk form."""
    lines = text.splitlines()
    gens = [p for p, line in enumerate(lines) if line.startswith("gen ") and len(line.split()) == 5]
    difs = [p for p, line in enumerate(lines) if line.startswith("dif ") and len(line.split()) > 2]
    if not gens:
        return text
    names = [lines[p].split()[1] for p in gens]
    kind = rng.choice([
        "comment", "trailing-comment", "tabs", "blank", "crlf", "huge-int", "bad-int",
        "redeclare", "late-gen", "undeclared-target", "undeclared-source", "repeat-target",
        "repeat-line", "other-power", "malformed-power", "huge-power", "directive",
        "gen-fields", "dif-fields", "term-name", "header", "keyword-name", "dif-first"])
    p = rng.choice(gens)
    q = rng.choice(difs) if difs else None
    if kind == "comment":
        lines.insert(rng.randrange(len(lines) + 1), "# " + rng.choice(["note", "gen a 0 0 0", ""]))
    elif kind == "trailing-comment":
        r = rng.randrange(len(lines))
        lines[r] += rng.choice(["  # trailing", "#", "# dif x y"])
    elif kind == "tabs":
        r = rng.randrange(len(lines))
        lines[r] = rng.choice(["\t", "  ", " \t "]) + lines[r].replace(" ", rng.choice(["\t", "   "]))
    elif kind == "blank":
        lines.insert(rng.randrange(len(lines) + 1), rng.choice(["", "   ", "\t"]))
    elif kind == "crlf":
        return "\r\n".join(lines) + "\r\n"
    elif kind in ("huge-int", "bad-int"):
        fields = lines[p].split()
        bad = (rng.choice(["", "-"]) + "1" * 5000 if kind == "huge-int"
               else rng.choice(["+1", "1_0", "١", "0x1", "1.0", "--1", "-"]))
        fields[rng.randrange(2, 5)] = bad
        lines[p] = " ".join(fields)
    elif kind == "redeclare":
        _, name, i, j, m = lines[p].split()
        lines.insert(rng.randrange(1, len(lines) + 1),
                     f"gen {name} {int(i) + rng.randint(-1, 1)} {j} {m}")
    elif kind == "late-gen":
        lines.append(lines.pop(p))
    elif kind == "undeclared-target" and q is not None:
        fields = lines[q].split()
        fields.insert(rng.randrange(2, len(fields) + 1), rng.choice(["ghost", "U^1.ghost", "dif"]))
        lines[q] = " ".join(fields)
    elif kind == "undeclared-source" and q is not None:
        lines[q] = "dif ghost " + " ".join(lines[q].split()[2:])
    elif kind == "repeat-target" and q is not None:
        fields = lines[q].split()
        fields.insert(rng.randrange(2, len(fields) + 1), rng.choice(fields[2:]))
        lines[q] = " ".join(fields)
    elif kind == "repeat-line" and q is not None:
        lines.insert(rng.randrange(q + 1, len(lines) + 1), lines[q])
    elif kind == "other-power" and q is not None:
        # the same (source, target) pair again with another U power: loads
        # takes it, and validate reports the grading
        m = re.fullmatch(r"(?:U\^([0-9]+)\.)?(\S+)", rng.choice(lines[q].split()[2:]))
        lines[q] += f" U^{int(m.group(1) or 0) + 1}.{m.group(2)}"
    elif kind == "malformed-power" and q is not None:
        lines[q] += " " + rng.choice(["U^x." + names[0], "U^1" + names[0], "U^." + names[0],
                                      "U^1.", "U^-1." + names[0], "U^"])
    elif kind == "huge-power" and q is not None:
        lines[q] += f" U^{'9' * 5000}.{names[0]}"
    elif kind == "directive":
        lines.insert(rng.randrange(1, len(lines) + 1), rng.choice(["foo bar", "cfk v1", "GEN a 0 0 0"]))
    elif kind == "gen-fields":
        fields = lines[p].split()
        lines[p] = " ".join(fields[:-1] if rng.random() < 0.5 else fields + ["0"])
    elif kind == "dif-fields" and q is not None:
        lines[q] = " ".join(lines[q].split()[:2])
    elif kind == "term-name":
        lines.insert(rng.randrange(1, len(lines) + 1), "gen U^1.x 0 0 0")
    elif kind == "header":
        lines[0] = rng.choice(["cfk v2", "# cfk v1", "cfk  v1 ", "cfk v1 x"])
    elif kind == "keyword-name":
        name = re.compile(rf"(?<![^\s.]){re.escape(rng.choice(names))}(?!\S)")
        lines = [name.sub(rng.choice(["gen", "dif", "cfk"]), line) for line in lines]
    elif kind == "dif-first" and q is not None:
        lines.insert(1, lines.pop(q))
    return "\n".join(lines) + rng.choice(["\n", "", "\n\n"])


def load_outcome(load, text):
    try:
        C = load(text, "lbl")
    except FormatError as exc:
        return str(exc)
    return C.generators, C.terms, C.label


def test_loads_matches_the_reference_on_perturbed_texts():
    rng = random.Random(2718)
    by_columns = by_lines = 0
    errors = set()
    for _ in range(600):
        text = dumps(random_complex(rng))
        for _changes in range(rng.choice([0, 1, 1, 2, 3])):
            text = perturb_text(text, rng)
        expected = load_outcome(references.loads, text)
        assert load_outcome(loads, text) == expected, text[:500]
        if isinstance(expected, str):
            errors.add(re.sub(r"'[^']*'|\d+", "_", expected))
            continue
        C = loads(text, "lbl")
        assert dumps(C) == dumps(references.loads(text))
        clean = loads(text)._repeats is False  # seeded by loads, before any reader
        assert clean == (_read_columns(text) is not None)
        if clean:
            by_columns += 1
            index = C.index()
            assert len(set(index.names)) == len(index.names)
            assert len(set(zip(index.sources, index.targets))) == len(index.sources)
        else:
            by_lines += 1
    assert by_columns > 100 and by_lines > 10, (by_columns, by_lines)
    assert errors >= {
        "missing _ header (found _)", "line _: unknown directive _",
        "line _: gen needs name, i, j, maslov (_ fields given)",
        "line _: gen positions must be integers", "line _: name _ collides with term syntax",
        "line _: dif needs a source and at least one target",
        "line _: dif references undeclared generator _", "line _: malformed term _",
        "line _: term _ repeated for source _"}, errors


def test_loads_refuses_what_the_reference_refuses_at_the_edges():
    for text in ["", "\n# only a comment\n", "cfk v1\n", "cfk v1\ngen a 0 0 0\n",
                 "cfk v1\r\ngen a 0 0 0\r\ngen b 0 0 1\r\ndif b a\r\n",
                 "cfk v1\ngen dif 0 0 1\ngen a 0 0 0\ndif dif a\n",
                 "cfk v1\ngen gen 0 0 1\ngen a 0 0 0\ndif gen a\n",
                 "cfk v1\ngen a 0 0 0\ngen b 0 0 1\ndif b a dif b a\n",
                 "cfk v1\ngen a 0 0 0\ngen b 0 0 1\ndif b a\ngen c 0 0 0\n",
                 "cfk v1\ngen a 0 0 0\ngen b 0 0 1\ndif b a U^1.a\n",
                 "cfk v1\ngen b 0 0 1\ndif b a\ngen a 0 0 0\n",
                 # a dif line shaped like a gen line, then a gen line shaped like a dif line
                 "cfk v1\ngen a 0 0 0\ngen c 0 0 0\ndif b 1 2 3\ngen b a c\n"]:
        assert load_outcome(loads, text) == load_outcome(references.loads, text), text


def test_builds_match_the_reference_record_for_record(tmp_path):
    """staircase, dual and tensor build the very records, in the same
    order, as the record-based references, on every expression of the
    golden table and of the closed-form and slice checks."""
    import test_scale_oracle
    from cfk import selftest
    path = tmp_path / "k.cfk"
    path.write_text(dumps(build_complex(parse(selftest._SUM45))))
    texts = (selftest._SUITE + [text for text, *_ in test_scale_oracle.SUMS]
             + [text for text, *_ in test_scale_oracle.CONCORDANT]
             + [f'mirror(file("{path}")) # torus(2,3)', "{unknot # torus(2,3) @ alt}"])
    for text in texts:
        e = parse(text)
        C, R = build_complex(e), references.build_complex(e)
        assert (C.generators, C.terms, C.label) == (R.generators, R.terms, R.label), text
        assert C == R
        assert [list(column) for column in C.index()] == [list(column) for column in R.index()]


def test_dual_and_tensor_match_the_reference_on_perturbed_complexes():
    """Repeated names and terms keep their records."""
    rng = random.Random(4242)
    trefoil = torus_staircase(2, 3, "t")
    for _ in range(150):
        C = random_complex(rng)
        for _defects in range(rng.randint(0, 2)):
            C = perturb(C, rng)
        for built, expected in ((dual(C), references.dual(C)),
                                (tensor(C, trefoil), references.tensor(C, trefoil)),
                                (tensor(dual(trefoil), C), references.tensor(dual(trefoil), C))):
            assert (built.generators, built.terms, built.label) == (
                expected.generators, expected.terms, expected.label)
            assert violations(validate, built) == violations(references.validate, expected)


def test_loads_validate_and_invariants_make_no_records(tmp_path):
    """The file path works from the columns alone: records are made only
    when a caller reads them."""
    text = dumps(build_complex(parse("torus(2,5) # mirror(cable(2,5,torus(2,3))) # torus(2,3)")))
    C, R = loads(text), references.loads(text)

    def report(C):
        return (validate(C), tau(C), nu(C), nu_plus(C), V(C, 1), hfk_hat(C), epsilon(C),
                genus_report(C), C.index().alexander_range[1])

    assert report(C) == report(R)
    assert dumps(C) == text and repr(C) == repr(R)
    assert (C._generators, C._terms) == (None, None)
    assert C.generators == R.generators and C._terms is None
    assert C.terms == R.terms


def test_validate_and_dumps_make_no_records_on_defective_columns():
    """validate and dumps report the defects of a complex built from
    columns by position: the report matches the by-name reference on a
    record-built copy, and no record is made."""
    repeated = "cfk v1\ngen a 0 0 0\ngen a 0 0 0\n"
    builds = [
        lambda: loads(repeated),
        lambda: loads("cfk v1\ngen a 0 0 1\ngen b 1 0 0\ndif a b\n"),
        lambda: loads("cfk v1\ngen a 0 0 1\ngen b 0 0 0\ngen a 5 5 3\ndif a b U^1.b\n"),
        # "a*t1" sits at two positions, so its terms repeat by name only
        lambda: tensor(loads(repeated), torus_staircase(2, 3, "t")),
        lambda: BifilteredComplex.from_columns(["a", "b"], [0, 0], [0, 0], [1, 0], [-1], [0], [1]),
    ]

    def written(C):
        try:
            return dumps(C)
        except FormatError as exc:
            return str(exc)

    for build in builds:
        C, copy = build(), build()
        R = BifilteredComplex(copy.generators, copy.terms)
        assert violations(validate, C) == violations(references.validate, R) != []
        assert written(C) == written(R)
        assert (C._generators, C._terms) == (None, None)


def outcome(fn, *args):
    """fn(*args), or the type of the exception it raises."""
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc)


def test_d_invariants_match_the_two_tower_reference():
    """d_invariants reads one level per spin-c slot, V at min(a, -b); the
    reference reads V_a and H_b.  Same list, or the same exception type,
    at every p <= 2 A_max + 3 and q <= 4, on sums of one to three
    staircases with random mirrors (K # -K and J # K # -K among them),
    shuffled U-shifted sums, and the ones of those with defects that
    validate refuses before its vertical-homology stage."""
    rng = random.Random(1618)
    complexes = [build_complex(parse(text)) for text in random_sums(rng, 40)]
    complexes += [random_complex(rng) for _ in range(20)]
    for _ in range(60):
        C = perturb(random_complex(rng), rng)
        if "vertical-homology" not in {v.kind for v in validate(C)}:
            complexes.append(C)
    seen = set()
    for C in complexes:
        for p in range(1, 2 * max(C.index().alexander_range[1], 0) + 4):
            for q in range(1, 5):
                if gcd(p, q) == 1:
                    spec = SurgerySpec(p, q)
                    expected = outcome(references.d_invariants, C, spec)
                    assert outcome(d_invariants, C, spec) == expected, (C, spec)
                    seen.add(expected if isinstance(expected, type) else list)
    assert seen == {list, ValueError}


def test_an_asymmetric_file_still_warns(tmp_path, capsys):
    """validate accepts some complexes that are no knot's.  Of the draws
    of test_tau_nu_and_epsilon_match_the_slice_reference's pool
    (random.Random(11), 80% perturbed), the 16th is the first that
    validate accepts and that breaks V(-k) = V(k) + k.  Read from a file
    it is not known to be symmetric, so cfk invariants reduces its
    negative levels and warns where they break the identity."""
    rng = random.Random(11)
    for _ in range(16):
        C = random_complex(rng)
        C = perturb(C, rng) if rng.random() < 0.8 else C
    assert validate(C) == [] and not C.symmetric
    path = tmp_path / "asymmetric.cfk"
    path.write_text(dumps(C))
    assert main(["invariants", f'file("{path}")']) == 0
    out, err = capsys.readouterr()
    assert "  V[-1] = 5\n  V[0] = 4\n  V[1] = 3\n" in out
    assert err == "".join(f"warning: V table violates V(-k) = V(k) + k at k={k}\n"
                          for k in (-4, -3, -2, -1, 1, 2, 3, 4))


def test_invariants_json_matches_the_full_window_reference(tmp_path, capsys):
    """cfk invariants --json fills V_k = 0 from nu+ on, and on a built
    complex V_{-k} = V_k + k for k < 0; the reference reduces every level
    of the window.  Identical JSON on the golden expressions, and on
    random sums and a shuffled file complex with the default window and
    with a random window, often asymmetric."""
    rng = random.Random(2357)
    path = tmp_path / "k.cfk"
    path.write_text(dumps(random_complex(rng)))
    cases = [(text, None) for text in selftest._SUITE]
    for text in random_sums(rng, 30) + [f'file("{path}")', f'mirror(file("{path}")) # torus(2,3)']:
        g = build_complex(parse(text)).index().alexander_range[1]
        lo = rng.randint(-g - 3, g + 2)
        cases += [(text, None), (text, (lo, rng.randint(lo, g + 3)))]
    for text, vk in cases:
        window = [f"--vk={vk[0]}..{vk[1]}"] if vk else []
        assert main(["invariants", text, *window, "--json"]) == 0
        expected = json.dumps(references.invariants_report(text, vk), indent=2) + "\n"
        assert capsys.readouterr() == (expected, ""), (text, vk)


def said(fn, C):
    """fn(C), or the type and message of the exception it raises."""
    try:
        return fn(C)
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"


def test_tau_nu_and_epsilon_match_the_slice_reference():
    """tau, nu and HFK-hat walk only the terms out of the gradings they
    read; the reference filters every term into whole slices.  Same value,
    or the same exception type and message, on 1,500 random complexes,
    most of them perturbed (so validate refuses many, and tau, nu, epsilon
    and HFK-hat, which read no verdict, still answer on some), on their
    mirrors, and on the paper's knots and sums and their mirrors."""
    rng = random.Random(11)
    pool = []
    for _ in range(1500):
        C = random_complex(rng)
        pool.append(perturb(C, rng) if rng.random() < 0.8 else C)
    K = "torus(2,9) # mirror(cable(2,5,torus(2,3)))"
    paper = [build_complex(parse(e)) for e in (
        K, f"{K} # {K}", "torus(2,5) # torus(2,3) # torus(2,3) # mirror(cable(2,5,torus(2,3)))")]
    readers = ((tau, references.slice_tau), (nu, references.slice_nu),
               (epsilon, references.slice_epsilon), (hfk_hat, references.slice_hfk_hat))
    seen = Counter()
    for C in pool + paper + [dual(C) for C in pool + paper]:
        copy = BifilteredComplex.from_columns(*C.index()[:7])  # with a memo of its own
        found = [said(mine, C) for mine, _reference in readers]
        assert found == [said(reference, copy) for _mine, reference in readers], C
        refused = bool(validate(C))
        for (mine, _reference), result in zip(readers, found):
            kind = (result.split(":")[0] if isinstance(result, str)
                    else "number, validate refuses" if refused else "number")
            seen[mine.__name__, kind] += 1
    counts = {"number": (1116, 1116, 1116, 1116),
              "number, validate refuses": (1023, 1023, 994, 1132),
              "ValueError": (758, 758, 758, 758), "KnotTypeError": (109, 109, 120, 0),
              "PreconditionError": (0, 0, 18, 0)}
    assert seen == {(name, kind): n for kind, row in counts.items()
                    for name, n in zip(("tau", "nu", "epsilon", "hfk_hat"), row) if n}
