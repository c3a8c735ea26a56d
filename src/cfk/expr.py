"""Knot expression language.

Grammar (whitespace-insensitive, # is left-associative):

    expr  := term { "#" term }
    term  := "unknot"
           | "torus" "(" int "," int ")"
           | "cable" "(" int "," int "," expr ")"
           | "mirror" "(" expr ")"
           | "file" "(" quoted-path ")"
           | "{" expr "@" annots "}"
           | "(" expr ")"
    annots := annot { "," annot };  annot := ident [ "=" int ]

The tree's nodes (Unknot, Torus, Cable, Mirror, Sum, FromFile, and
Annotated, which keeps its annotations sorted by key) are NamedTuples:
they compare and hash by value, as plain tuples do, so code tells the
kinds apart with isinstance.
Parsing reports positions on syntax errors, among them an expression
nested deeper than MAX_DEPTH; parameter sanity (coprimality, positive
strand counts) is checked after the tree is built, and a torus or cable
whose (p-1)(q-1) + 1 exceeds sys.maxsize, or an L-space cable of a
genus-g companion whose p*2g + (p-1)(q-1) + 1 does, is refused there
with NoConstructorError, before anything is allocated.  Complexes are
constructed recursively; a cable only has a constructor when its companion
is an L-space expression, q >= 1 and q >= p*(2g - 1).  An L-space expression
(the unknot, a torus knot, or such a cable) becomes a staircase through
its semigroup: ``lspace_exponents`` walks the expression to the semigroup
below the conductor 2g and reads the staircase exponents off it, with no
Alexander polynomial in between.
"""
from __future__ import annotations

import re
import sys
from math import gcd
from typing import NamedTuple, Union

from .cfkfile import read_complex
from .complexes import BifilteredComplex, dual, require_valid, staircase, tensor, validate
from .errors import ExprSemanticError, ExprSyntaxError, NoConstructorError, ValidationError


class Unknot(NamedTuple):
    pass


class Torus(NamedTuple):
    p: int
    q: int


class Cable(NamedTuple):
    p: int
    q: int
    companion: "KnotExpr"


class Mirror(NamedTuple):
    child: "KnotExpr"


class Sum(NamedTuple):
    left: "KnotExpr"
    right: "KnotExpr"


class FromFile(NamedTuple):
    path: str


class _Annotated(NamedTuple):
    child: "KnotExpr"
    annotations: tuple[tuple[str, Union[int, bool]], ...]


class Annotated(_Annotated):
    """An expression with its annotations, kept sorted by key."""
    __slots__ = ()

    def __new__(cls, child: "KnotExpr",
                annotations: tuple[tuple[str, Union[int, bool]], ...]) -> Annotated:
        return super().__new__(cls, child, tuple(sorted(annotations)))

    @classmethod
    def _make(cls, fields) -> Annotated:  # so that _replace sorts too
        return cls(*fields)


KnotExpr = Union[Unknot, Torus, Cable, Mirror, Sum, FromFile, Annotated]

_TOKEN = re.compile(r"""
    (?P<ws>\s+)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<int>-?[0-9]+)
  | (?P<str>"[^"\\]*")
  | (?P<sym>[#(){}@,=])
""", re.VERBOSE)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise ExprSyntaxError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup != "ws":
            out.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    out.append(("end", "", len(text)))
    return out


# The deepest expression parse() takes.  A term's depth counts the sums
# ("#") above it in the tree and the brackets ("(", "{", "cable(",
# "mirror(") around it; an expression's depth is its deepest term's.  The
# parser recurses three times per bracket and every walk of the tree once
# or twice per level, so this stays well below Python's default recursion
# limit of 1000.
MAX_DEPTH = 100


def _checked_depth(depth: int, pos: int) -> int:
    """depth, or ExprSyntaxError at pos if it passes MAX_DEPTH."""
    if depth > MAX_DEPTH:
        raise ExprSyntaxError(f"expression nests deeper than {MAX_DEPTH} levels", pos)
    return depth


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.k = 0
        self.open = 0  # brackets open around the next token

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.k]

    def take(self, kind: str, value: str | None = None) -> tuple[str, str, int]:
        tk, tv, tp = self.tokens[self.k]
        if tk != kind or (value is not None and tv != value):
            want = value if value is not None else kind
            got = tv if tv else "end of input"
            raise ExprSyntaxError(f"expected {want!r}, found {got!r}", tp)
        self.k += 1
        return tk, tv, tp

    def parse_int(self) -> int:
        _, v, pos = self.take("int")
        try:
            return int(v)
        except ValueError:  # past int()'s digit limit
            raise ExprSyntaxError(f"integer of {len(v)} characters is too long", pos) from None

    def parse_expr(self) -> tuple[KnotExpr, int]:
        """The expression at the next token and its depth (see MAX_DEPTH)."""
        node, depth = self.parse_term()
        while self.peek()[:2] == ("sym", "#"):
            _, _, pos = self.take("sym", "#")
            right, right_depth = self.parse_term()
            node, depth = Sum(node, right), _checked_depth(max(depth, right_depth) + 1, pos)
        return node, depth

    def parse_inner(self, pos: int, close: str) -> tuple[KnotExpr, int]:
        """The expression inside the bracket opened at pos, up to and with
        the close symbol, and its depth counting that bracket.  The brackets
        open are counted on the way down, before the parser recurses."""
        self.open = _checked_depth(self.open + 1, pos)
        node, depth = self.parse_expr()
        self.take("sym", close)
        self.open -= 1
        return node, _checked_depth(depth + 1, pos)

    def parse_term(self) -> tuple[KnotExpr, int]:
        kind, value, pos = self.peek()
        if kind == "ident":
            self.k += 1
            if value == "unknot":
                return Unknot(), 0
            if value in ("torus", "cable"):
                self.take("sym", "(")
                p = self.parse_int()
                self.take("sym", ",")
                q = self.parse_int()
                if value == "torus":
                    self.take("sym", ")")
                    return Torus(p, q), 0
                self.take("sym", ",")
                child, depth = self.parse_inner(pos, ")")
                return Cable(p, q, child), depth
            if value == "mirror":
                self.take("sym", "(")
                child, depth = self.parse_inner(pos, ")")
                return Mirror(child), depth
            if value == "file":
                self.take("sym", "(")
                _, raw, _ = self.take("str")
                self.take("sym", ")")
                return FromFile(raw[1:-1]), 0
            raise ExprSyntaxError(f"unknown knot form {value!r}", pos)
        if (kind, value) == ("sym", "("):
            self.take("sym", "(")
            return self.parse_inner(pos, ")")
        if (kind, value) == ("sym", "{"):
            self.take("sym", "{")
            node, depth = self.parse_inner(pos, "@")
            annots = [self.parse_annot()]
            while self.peek()[:2] == ("sym", ","):
                self.take("sym", ",")
                annots.append(self.parse_annot())
            self.take("sym", "}")
            keys = [k for k, _v in annots]
            for key in keys:
                if keys.count(key) > 1:
                    raise ExprSemanticError(f"annotation key {key!r} repeated")
            return Annotated(node, tuple(annots)), depth
        raise ExprSyntaxError(f"expected a knot term, found {value or 'end of input'!r}", pos)

    def parse_annot(self) -> tuple[str, Union[int, bool]]:
        _, key, _ = self.take("ident")
        if self.peek()[:2] == ("sym", "="):
            self.take("sym", "=")
            return key, self.parse_int()
        return key, True


def parse(text: str) -> KnotExpr:
    parser = _Parser(text)
    node, _depth = parser.parse_expr()
    parser.take("end")
    _check_semantics(node)
    return node


def _check_semantics(e: KnotExpr) -> None:
    if isinstance(e, Torus):
        if e.p < 1 or e.q < 1:
            raise ExprSemanticError(f"torus({e.p},{e.q}): parameters must be positive")
        if gcd(e.p, e.q) != 1:
            raise ExprSemanticError(f"torus({e.p},{e.q}): parameters must be coprime")
        _check_size(e)
    elif isinstance(e, Cable):
        if e.p < 1:
            raise ExprSemanticError(f"cable strand count must be positive, got {e.p}")
        if gcd(e.p, abs(e.q)) != 1:
            raise ExprSemanticError(f"cable({e.p},{e.q},...): parameters must be coprime")
        _check_size(e)
        _check_semantics(e.companion)
        genus = _lspace_genus(e)
        if genus is not None:
            _check_size(e, genus)
    elif isinstance(e, Mirror):
        _check_semantics(e.child)
    elif isinstance(e, Sum):
        _check_semantics(e.left)
        _check_semantics(e.right)
    elif isinstance(e, Annotated):
        _check_semantics(e.child)
    # Unknot and FromFile carry nothing to check here.


def _check_size(e: Torus | Cable, genus: int | None = None) -> None:
    """Refuse a torus or a cable whose staircase spans more Alexander
    exponents than the semigroup's bytearray can index, before anything
    is allocated.  Without a genus that counts the torus factor alone,
    (p-1)(q-1) + 1.  Given the genus of an L-space cable of a genus-g
    companion K, it counts the cable's whole span 2*genus + 1 =
    p*2g + (p-1)(q-1) + 1 (its semigroup's conductor plus one; p and q
    are coprime, so (p-1)(q-1) is even)."""
    if genus is None:
        span, terms = (e.p - 1) * (e.q - 1) + 1, "(p-1)(q-1) + 1"
    else:
        span, terms = 2 * genus + 1, "p*2g(K) + (p-1)(q-1) + 1"
    if span > sys.maxsize:
        raise NoConstructorError(
            f"no CFK constructor available for {to_text(e)}: "
            f"{terms} = {span} Alexander exponents exceed sys.maxsize")


def to_text(e: KnotExpr) -> str:
    """Canonical form; parse(to_text(e)) == e."""
    if isinstance(e, Sum):
        left = to_text(e.left)
        right = to_text(e.right)
        if isinstance(e.right, Sum):
            right = f"({right})"
        return f"{left} # {right}"
    if isinstance(e, Unknot):
        return "unknot"
    if isinstance(e, Torus):
        return f"torus({e.p},{e.q})"
    if isinstance(e, Cable):
        return f"cable({e.p},{e.q},{to_text(e.companion)})"
    if isinstance(e, Mirror):
        return f"mirror({to_text(e.child)})"
    if isinstance(e, FromFile):
        return f'file("{e.path}")'
    if isinstance(e, Annotated):
        parts = []
        for key, val in e.annotations:
            parts.append(key if val is True else f"{key}={val}")
        return f"{{{to_text(e.child)} @ {', '.join(parts)}}}"
    raise TypeError(f"unexpected expression node {e!r}")


def root_annotations(e: KnotExpr) -> dict[str, Union[int, bool]]:
    """Annotations attached at the top of the expression (outermost wins)."""
    out: dict[str, Union[int, bool]] = {}
    node = e
    stack = []
    while isinstance(node, Annotated):
        stack.append(dict(node.annotations))
        node = node.child
    for ann in reversed(stack):
        out.update(ann)
    return out


def strip_annotations(e: KnotExpr) -> KnotExpr:
    node = e
    while isinstance(node, Annotated):
        node = node.child
    return node


def is_lspace_expr(e: KnotExpr) -> bool:
    """Whether the expression names a knot whose complex is a staircase:
    the unknot, a positive torus knot, or a sufficiently positive cable of
    such (q >= 1 and q >= p*(2g - 1)); mirrors and sums disqualify."""
    return _lspace_genus(e) is not None


def _lspace_genus(e: KnotExpr) -> int | None:
    """The genus of an L-space expression, the degree of its Alexander
    polynomial: 0 for the unknot, (p-1)(q-1)/2 for torus(p,q), and
    p*g + (p-1)(q-1)/2 for the (p,q) cable of a genus-g L-space companion
    with q >= 1 and q >= p*(2g - 1).  None for any other expression."""
    node = strip_annotations(e)
    if isinstance(node, Unknot):
        return 0
    if isinstance(node, Torus):
        return (node.p - 1) * (node.q - 1) // 2
    if isinstance(node, Cable):
        g = _lspace_genus(node.companion)
        if g is not None and node.q >= 1 and node.q >= node.p * (2 * g - 1):
            return node.p * g + (node.p - 1) * (node.q - 1) // 2
    return None


def _semigroup(e: KnotExpr) -> bytearray:
    """The semigroup S of an L-space expression below its conductor 2g, as
    a bytearray of length 2g with a 1 at each member; S holds every k >= 2g.

    S is the set of exponents of Delta(t) / (1 - t) with Delta shifted to
    start at t^0.  The unknot's S is all of N.  The cable formula
    Delta(t) = Delta_K(t^p) Delta_T(p,q)(t) turns that series into
    {p*s + q*m : s in S_K, 0 <= m < p}, for every coprime p, q >= 1; the
    part for each m fills the residue class of q*m mod p from q*m on, so
    no two parts meet.  torus(p,q) is the (p,q) cable of the unknot, whose
    S is <p, q>.
    """
    node = strip_annotations(e)
    if isinstance(node, Unknot):
        return bytearray()
    inner = _semigroup(node.companion) if isinstance(node, Cable) else bytearray()
    p, q = node.p, node.q
    conductor = p * len(inner) + (p - 1) * (q - 1)
    members = bytearray(conductor)
    for start in range(0, min(p * q, conductor), q):
        end = start + p * len(inner)  # p times S_K's conductor, moved by q*m
        members[start:end:p] = inner
        members[end:conductor:p] = b"\x01" * len(range(end, conductor, p))
    return members


def lspace_exponents(e: KnotExpr) -> tuple[int, ...]:
    """The decreasing exponents a_0 > ... > a_2m of the Alexander polynomial
    of an L-space expression, read off its semigroup S: they are where S's
    runs and gaps start below the conductor 2g, and 2g itself, moved by -g.
    Any other expression, or one whose semigroup does not fit in memory,
    raises NoConstructorError."""
    if not is_lspace_expr(e):
        raise NoConstructorError(
            f"no CFK constructor available for {to_text(e)}: the companion must "
            "be an L-space expression (unknot, torus, or such a cable) with "
            "q >= 1 and q >= p*(2g - 1)")
    try:
        members = _semigroup(e)
    except MemoryError:
        raise NoConstructorError(
            f"no CFK constructor available for {to_text(e)}: its semigroup below "
            f"2g = {2 * _lspace_genus(e)} does not fit in memory") from None
    conductor = len(members)
    starts, k, bit = [0], 0, 0
    while k < conductor:
        k = members.find(bit, k)  # a gap (bit 0) or a run (bit 1) starts here
        k = conductor if k < 0 else k  # or at 2g, where every run ends
        starts.append(k)
        bit ^= 1
    return tuple(conductor // 2 - k for k in starts)


def build_complex(e: KnotExpr) -> BifilteredComplex:
    """Construct the bifiltered complex of an expression.

    Cables demand an L-space companion with q >= 1 and q >= p*(2g - 1);
    everything else composes structurally (mirror -> dual, sum -> tensor).
    Complexes loaded from files are validated before use, and a built
    complex that repeats a name (a sum whose factors' names collide into
    one product name) raises ValidationError with validate's violations.
    Every complex _build returns is new, so it is relabelled in place and
    keeps its index and memo, including what validation recorded.
    """
    built = _build(e)
    if built.repeats():
        raise ValidationError(validate(built))
    built.label = to_text(e)
    return built


def _build(e: KnotExpr) -> BifilteredComplex:
    if isinstance(e, Annotated):
        return _build(e.child)
    if isinstance(e, (Unknot, Torus, Cable)):
        return staircase(lspace_exponents(e), label=to_text(e))
    if isinstance(e, Mirror):
        return dual(_build(e.child))
    if isinstance(e, Sum):
        return tensor(_build(e.left), _build(e.right))
    if isinstance(e, FromFile):
        return require_valid(read_complex(e.path))
    raise TypeError(f"unexpected expression node {e!r}")
