"""Labeled abstract syntax and a reader for the parenthesized surface form.

Every subexpression carries a program point, a positive integer unique
within one program.  Points come from explicit ``@N`` annotations in the
source; anything left unlabeled is numbered by a pre-order pass that
skips ids already taken explicitly.

Surface form (EBNF sketch)::

    o    ::= term ('@' INT)?
    term ::= INT | 'true' | 'false' | '()' | IDENT
           | '(' 'λ' bind '.' o ')'               abstraction (λ may be spelled \\)
           | '(' o o ')'                          application
           | '(' OP o o ')'                       OP in + - * < = && ||
           | '(' 'let' bind o o ')'
           | '(' 'let' 'rec' bind o o ')'
           | '(' 'case' o '[' pat '->' o (',' pat '->' o)* ']' ')'
           | '(' 'ref' o ')'
           | '(' o ':=' o ')'
           | '(' '!' o ')'
           | '(' o ')'                            grouping
    bind ::= IDENT | '_'
    pat  ::= INT | 'true' | 'false' | IDENT | '_' | '(' pat (',' pat)* ')'

Lexical rules: INT is a run of decimal digits, the characters for which
``str.isdecimal`` holds, so ``٣`` reads as 3 while ``²`` is no digit.
IDENT starts with a letter (``str.isalpha``) and goes on with characters
for which ``str.isalnum`` holds, ``_`` and ``'``; the keywords ``let rec
case ref true false`` are not IDENTs.  Space, tab, carriage return and
newline separate tokens, and ``#`` starts a comment that runs to the end
of the line.  Any other character is an error.  Errors give the line and
column, both counted from 1, of the token they are about.

An unlabeled group ``(x@5)`` is transparent.  A labeled group around an
unlabeled term, ``(5)@4``, just labels the term.  A labeled group around
an already-labeled occurrence, ``(5@3)@4``, denotes a pass-through node
that owns the outer point; this is how a value position carries a point
of its own on top of the inner expression's point.

Parsing alpha-renames duplicate binders so that every binding occurrence
introduces a distinct name.  Programs whose binders are already distinct
come through unchanged.

The reader splits the source with one regular expression and builds the
final tree in one recursive descent, noting the explicit points and the
binders as it goes.  Only when some node is unlabeled does one pre-order
pass over that same tree number it in place; only when some binder
repeats does a renaming pass build a second tree.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass


PRIM_OPS = ("+", "-", "*", "<", "=", "&&", "||")

_KEYWORDS = frozenset({"let", "rec", "case", "ref", "true", "false"})


class SyntaxModuleError(Exception):
    """Base for everything raised by this module."""


class ParseError(SyntaxModuleError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


class DuplicatePointError(SyntaxModuleError):
    def __init__(self, point: int):
        super().__init__(f"program point {point} is annotated more than once")
        self.point = point


class CaseArityError(SyntaxModuleError):
    """A case alternative is not of the shape ``pattern -> occurrence``."""


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------


class Expression:
    __slots__ = ()


@dataclass(frozen=True)
class Occurrence:
    expr: Expression
    point: int

    def __str__(self) -> str:
        return pretty(self)


@dataclass(frozen=True)
class Variable(Expression):
    name: str


@dataclass(frozen=True)
class Constant(Expression):
    # int for naturals, bool for truth values, () for unit
    value: object


@dataclass(frozen=True)
class Abstraction(Expression):
    param: str
    body: Occurrence


@dataclass(frozen=True)
class Application(Expression):
    fn: Occurrence
    arg: Occurrence


@dataclass(frozen=True)
class FunctionalApplication(Expression):
    op: str
    left: Occurrence
    right: Occurrence


@dataclass(frozen=True)
class Let(Expression):
    name: str
    bound: Occurrence
    body: Occurrence


@dataclass(frozen=True)
class LetRec(Expression):
    name: str
    bound: Occurrence
    body: Occurrence


@dataclass(frozen=True)
class Case(Expression):
    scrutinee: Occurrence
    patterns: tuple
    clauses: tuple


@dataclass(frozen=True)
class Ref(Expression):
    init: Occurrence


@dataclass(frozen=True)
class Assign(Expression):
    target: Occurrence
    value: Occurrence


@dataclass(frozen=True)
class Deref(Expression):
    ref: Occurrence


@dataclass(frozen=True)
class Group(Expression):
    """Pass-through wrapper for a doubly labeled position like (5@3)@4."""

    inner: Occurrence


class Pattern:
    __slots__ = ()


@dataclass(frozen=True)
class PNat(Pattern):
    value: int


@dataclass(frozen=True)
class PBool(Pattern):
    value: bool


@dataclass(frozen=True)
class PVar(Pattern):
    name: str


@dataclass(frozen=True)
class PWildcard(Pattern):
    pass


@dataclass(frozen=True)
class PTuple(Pattern):
    items: tuple


# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------


# One match per token: the blanks and comments before it, then the token,
# or nothing at the end of input.  Any character no token starts with
# matches alone, so the matches tile the source.
_TOKEN = re.compile(
    r"(?:[ \t\r\n]|#[^\n]*)*"
    r"(?:(->|:=|&&|\|\||[()\[\].,@!_+\-*<=λ\\]|\d+|[^\W\d_][\w']*|.)|\Z)",
    re.S,
)

# Every token text that is not an INT or an IDENT; "" marks the end.
_PUNCT = frozenset({"->", ":=", "&&", "||", *"()[].,@!_+-*<=λ\\", ""})


def _is_word(text: str) -> bool:
    """Whether a token text that is not punctuation is an INT or an IDENT."""

    return text.isdecimal() or text[0].isalpha()


def _tokenize(source: str) -> list:
    """The token texts, ending with "" at the end of input.

    INT is a run of decimal digits (``str.isdecimal``) and an identifier
    starts with a letter (``str.isalpha``); any other character outside a
    comment raises ParseError at its first occurrence.
    """

    texts = _TOKEN.findall(source)
    if not all(map(_is_word, set(texts).difference(_PUNCT))):
        first = next(i for i, text in enumerate(texts) if text not in _PUNCT and not _is_word(text))
        offset = _offsets(source)[first]
        raise ParseError(f"unexpected character {source[offset]!r}", *_position(source, offset))
    if "\\" in texts:
        texts = ["λ" if text == "\\" else text for text in texts]
    return texts


def _is_name(text: str) -> bool:
    """Whether a token text is an IDENT other than a keyword."""

    return text not in _PUNCT and not text.isdecimal() and text not in _KEYWORDS


def _offsets(source: str) -> list:
    """The source offset of every token ``_tokenize`` returns."""

    return [match.start(1) if match.lastindex else match.end() for match in _TOKEN.finditer(source)]


def _position(source: str, offset: int) -> tuple:
    """(line, column) of a source offset, both counted from 1."""

    return source.count("\n", 0, offset) + 1, offset - source.rfind("\n", 0, offset)


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


_UNIT = Constant(())
_BOOLS = {"true": Constant(True), "false": Constant(False)}


class _Parser:
    """Recursive descent over the token texts, building the final tree.

    An unlabeled node gets point None until numbering; ``labels`` and
    ``binders`` collect the explicit points and the binder names in
    source order, and ``unlabeled`` counts the nodes still unnumbered.
    """

    def __init__(self, source: str):
        self.source = source
        self.texts = _tokenize(source)
        self.pos = 0
        self.labels: list = []
        self.binders: list = []
        self.unlabeled = 0

    def position(self, index: int) -> tuple:
        """(line, column) of the token at ``index``."""

        return _position(self.source, _offsets(self.source)[index])

    def fail(self, message: str, index: int):
        raise ParseError(message, *self.position(index))

    def take(self) -> str:
        text = self.texts[self.pos]
        if text:
            self.pos += 1
        return text

    def expect(self, text: str):
        index = self.pos
        found = self.take()
        if found != text:
            self.fail(f"expected {text!r}, found {found or 'end of input'!r}", index)

    # -- occurrences --------------------------------------------------------

    def occurrence(self) -> Occurrence:
        node = self.term()
        if self.texts[self.pos] != "@":
            if type(node) is Occurrence:
                return node
            self.unlabeled += 1
            return Occurrence(node, None)
        self.pos += 1
        point = self.int_literal()
        self.labels.append(point)
        if type(node) is Occurrence:
            if node.point is None:
                self.unlabeled -= 1
                node = node.expr
            else:
                # labeled group around a labeled occurrence: pass-through node
                node = Group(node)
        return Occurrence(node, point)

    def int_literal(self) -> int:
        index = self.pos
        text = self.take()
        if not text.isdecimal():
            self.fail(f"expected an integer, found {text!r}", index)
        return self.number(text, index)

    def number(self, text: str, index: int) -> int:
        """The value of the INT token at ``index``, or a ParseError when it
        has more digits than ``int`` converts (4300 by default)."""

        try:
            return int(text)
        except ValueError:
            self.fail(f"integer literal of {len(text)} digits is too long", index)

    def term(self):
        """An expression, or the occurrence inside a transparent group."""

        index = self.pos
        text = self.texts[index]
        if text == "(":
            self.pos += 1
            return self.parenthesized()
        if text.isdecimal():
            self.pos += 1
            return Constant(self.number(text, index))
        if text not in _PUNCT:
            self.pos += 1
            if text in _BOOLS:
                return _BOOLS[text]
            if text in _KEYWORDS:
                self.fail(f"keyword {text!r} cannot appear here", index)
            return Variable(sys.intern(text))
        self.fail(f"unexpected token {text or 'end of input'!r}", index)

    def parenthesized(self):
        text = self.texts[self.pos]
        if text == ")":
            self.pos += 1
            return _UNIT
        if text == "λ":
            self.pos += 1
            name = self.binder()
            self.expect(".")
            body = self.occurrence()
            self.expect(")")
            return Abstraction(name, body)
        if text == "!":
            self.pos += 1
            ref = self.occurrence()
            self.expect(")")
            return Deref(ref)
        if text in PRIM_OPS:
            self.pos += 1
            left = self.occurrence()
            right = self.occurrence()
            self.expect(")")
            return FunctionalApplication(text, left, right)
        if text == "let":
            return self.let_form()
        if text == "case":
            return self.case_form()
        if text == "ref":
            self.pos += 1
            init = self.occurrence()
            self.expect(")")
            return Ref(init)
        first = self.occurrence()
        after = self.texts[self.pos]
        if after == ")":
            self.pos += 1
            return first  # transparent grouping
        if after == ":=":
            self.pos += 1
            value = self.occurrence()
            self.expect(")")
            return Assign(first, value)
        second = self.occurrence()
        self.expect(")")
        return Application(first, second)

    def let_form(self):
        self.pos += 1
        recursive = self.texts[self.pos] == "rec"
        if recursive:
            self.pos += 1
        name = self.binder()
        bound = self.occurrence()
        body = self.occurrence()
        self.expect(")")
        return (LetRec if recursive else Let)(name, bound, body)

    def case_form(self):
        self.pos += 1
        scrutinee = self.occurrence()
        self.expect("[")
        patterns = []
        clauses = []
        while True:
            pattern = self.pattern()
            if type(pattern) is PVar:
                self.binders.append(pattern.name)
            index = self.pos
            text = self.take()
            if text != "->":
                line, col = self.position(index)
                raise CaseArityError(
                    f"case alternative needs 'pattern -> occurrence', found {text or 'end of input'!r} "
                    f"at line {line}, column {col}"
                )
            patterns.append(pattern)
            clauses.append(self.occurrence())
            index = self.pos
            text = self.take()
            if text == "]":
                break
            if text != ",":
                self.fail(f"expected ',' or ']', found {text!r}", index)
        self.expect(")")
        return Case(scrutinee, tuple(patterns), tuple(clauses))

    def binder(self) -> str:
        # A binding position also accepts the throwaway name "_".
        index = self.pos
        text = self.take()
        if text != "_" and not _is_name(text):
            self.fail(f"expected a name, found {text or 'end of input'!r}", index)
        text = sys.intern(text)
        self.binders.append(text)
        return text

    def pattern(self) -> Pattern:
        index = self.pos
        text = self.take()
        if text.isdecimal():
            return PNat(self.number(text, index))
        if text in _BOOLS:
            return PBool(text == "true")
        if text == "_":
            return PWildcard()
        if _is_name(text):
            return PVar(sys.intern(text))
        if text == "(":
            items = [self.pattern()]
            while self.texts[self.pos] == ",":
                self.pos += 1
                items.append(self.pattern())
            self.expect(")")
            return PTuple(tuple(items))
        self.fail(f"expected a pattern, found {text or 'end of input'!r}", index)

# ---------------------------------------------------------------------------
# Point assignment and binder freshening
# ---------------------------------------------------------------------------


def _children(expr: Expression):
    match expr:
        case Variable() | Constant():
            return ()
        case Abstraction(_, body):
            return (body,)
        case Application(fn, arg):
            return (fn, arg)
        case FunctionalApplication(_, left, right):
            return (left, right)
        case Let(_, bound, body) | LetRec(_, bound, body):
            return (bound, body)
        case Case(scrutinee, _, clauses):
            return (scrutinee, *clauses)
        case Ref(init):
            return (init,)
        case Assign(target, value):
            return (target, value)
        case Deref(ref):
            return (ref,)
        case Group(inner):
            return (inner,)
    raise TypeError(f"unknown expression {expr!r}")


def _rebuild(expr: Expression, children: tuple) -> Expression:
    match expr:
        case Variable() | Constant():
            return expr
        case Abstraction(param, _):
            return Abstraction(param, children[0])
        case Application(_, _):
            return Application(children[0], children[1])
        case FunctionalApplication(op, _, _):
            return FunctionalApplication(op, children[0], children[1])
        case Let(name, _, _):
            return Let(name, children[0], children[1])
        case LetRec(name, _, _):
            return LetRec(name, children[0], children[1])
        case Case(_, patterns, _):
            return Case(children[0], patterns, tuple(children[1:]))
        case Ref(_):
            return Ref(children[0])
        case Assign(_, _):
            return Assign(children[0], children[1])
        case Deref(_):
            return Deref(children[0])
        case Group(_):
            return Group(children[0])
    raise TypeError(f"unknown expression {expr!r}")


def _collect_explicit(occ, seen: set):
    point = occ.point
    if point is not None:
        if point in seen:
            raise DuplicatePointError(point)
        seen.add(point)
    for child in _children(occ.expr):
        _collect_explicit(child, seen)


def _number_points(tree: Occurrence, taken: set):
    """Give every unlabeled node of the tree the parser just built the
    next id not taken explicitly, in pre-order, in place: no caller has
    seen these nodes yet, so nothing can observe the change."""

    point = 1
    stack = [tree]
    while stack:
        occ = stack.pop()
        if occ.point is None:
            while point in taken:
                point += 1
            object.__setattr__(occ, "point", point)
            point += 1
        stack.extend(reversed(_children(occ.expr)))


def _freshen(occ: Occurrence, env: dict, taken: set, avoid: set, counter: list) -> Occurrence:
    """Rename duplicate binders so every binding occurrence is unique.

    ``taken`` holds binder names accepted so far; a binder keeps its name
    only while it is still unclaimed.  ``avoid`` holds every identifier
    appearing anywhere in the program plus every generated name, so no
    rename can capture or shadow something that already exists.
    """

    def fresh(name: str) -> str:
        if name not in taken:
            taken.add(name)
            return name
        while True:
            counter[0] += 1
            base = name if name != "_" else "wild"
            candidate = f"{base}_{counter[0]}"
            if candidate not in avoid and candidate not in taken:
                taken.add(candidate)
                avoid.add(candidate)
                return candidate

    expr = occ.expr
    match expr:
        case Variable(name):
            return Occurrence(Variable(env.get(name, name)), occ.point)
        case Constant():
            return occ
        case Abstraction(param, body):
            new = fresh(param)
            return Occurrence(
                Abstraction(new, _freshen(body, {**env, param: new}, taken, avoid, counter)), occ.point
            )
        case Let(name, bound, body):
            bound2 = _freshen(bound, env, taken, avoid, counter)
            new = fresh(name)
            body2 = _freshen(body, {**env, name: new}, taken, avoid, counter)
            return Occurrence(Let(new, bound2, body2), occ.point)
        case LetRec(name, bound, body):
            new = fresh(name)
            inner = {**env, name: new}
            return Occurrence(
                LetRec(
                    new,
                    _freshen(bound, inner, taken, avoid, counter),
                    _freshen(body, inner, taken, avoid, counter),
                ),
                occ.point,
            )
        case Case(scrutinee, patterns, clauses):
            scrut2 = _freshen(scrutinee, env, taken, avoid, counter)
            pats2 = []
            clauses2 = []
            for pat, clause in zip(patterns, clauses):
                if isinstance(pat, PVar):
                    new = fresh(pat.name)
                    pats2.append(PVar(new))
                    clauses2.append(_freshen(clause, {**env, pat.name: new}, taken, avoid, counter))
                else:
                    pats2.append(pat)
                    clauses2.append(_freshen(clause, env, taken, avoid, counter))
            return Occurrence(Case(scrut2, tuple(pats2), tuple(clauses2)), occ.point)
        case _:
            kids = tuple(_freshen(c, env, taken, avoid, counter) for c in _children(expr))
            return Occurrence(_rebuild(expr, kids), occ.point)


def parse(source: str) -> Occurrence:
    """Parse a surface program into a fully labeled occurrence tree.

    Explicit ``@N`` points stay; every other node takes, in pre-order,
    the least id above the previous one that no explicit label claims.
    The descent builds the tree once and the numbering fills in its
    points in place, before the tree is returned; a renaming pass
    rebuilds it only when a binder repeats.
    """

    parser = _Parser(source)
    tree = parser.occurrence()
    if parser.texts[parser.pos]:
        parser.fail(f"unexpected trailing input {parser.texts[parser.pos]!r}", parser.pos)
    taken = set(parser.labels)
    if len(taken) != len(parser.labels):
        _collect_explicit(tree, set())  # raises, naming the first repeat in pre-order
    if parser.unlabeled:
        _number_points(tree, taken)
    binders = parser.binders
    if len(binders) == len(set(binders)):
        return tree
    avoid = set(binders) | free_vars(tree)
    return _freshen(tree, {}, set(), avoid, [0])


def _free_in(occ: Occurrence, table: dict) -> frozenset:
    expr = occ.expr
    match expr:
        case Variable(name):
            fv = frozenset({name})
        case Abstraction(param, body):
            fv = _free_in(body, table) - {param}
        case Let(name, bound, body):
            fv = _free_in(bound, table) | (_free_in(body, table) - {name})
        case LetRec(name, bound, body):
            fv = (_free_in(bound, table) | _free_in(body, table)) - {name}
        case Application(a, b) | FunctionalApplication(_, a, b) | Assign(a, b):
            fv = _free_in(a, table) | _free_in(b, table)
        case Case(scrutinee, patterns, clauses):
            fv = _free_in(scrutinee, table)
            for pattern, clause in zip(patterns, clauses):
                clause_fv = _free_in(clause, table)
                fv = fv | (clause_fv - {pattern.name} if isinstance(pattern, PVar) else clause_fv)
        case Ref(inner) | Deref(inner) | Group(inner):
            fv = _free_in(inner, table)
        case _:
            fv = frozenset()
    table[occ.point] = fv
    return fv


# ---------------------------------------------------------------------------
# Queries and printing
# ---------------------------------------------------------------------------


def free_name_table(occ: Occurrence) -> dict:
    """The names occurring free in each subterm, by the subterm's point."""

    table: dict = {}
    _free_in(occ, table)
    return table


def free_vars(occ: Occurrence) -> frozenset:
    """Names that occur free in the occurrence."""

    return free_name_table(occ)[occ.point]


def all_points(occ: Occurrence) -> frozenset:
    out: set = set()

    def walk(o):
        out.add(o.point)
        for child in _children(o.expr):
            walk(child)

    walk(occ)
    return frozenset(out)


def subterm_at(occ: Occurrence, point: int):
    """The subterm labeled with the given point, or None."""

    if occ.point == point:
        return occ
    for child in _children(occ.expr):
        hit = subterm_at(child, point)
        if hit is not None:
            return hit
    return None


def _pretty_pattern(pat: Pattern) -> str:
    match pat:
        case PNat(v):
            return str(v)
        case PBool(v):
            return "true" if v else "false"
        case PVar(name):
            return name
        case PWildcard():
            return "_"
        case PTuple(items):
            return "(" + ", ".join(_pretty_pattern(i) for i in items) + ")"
    raise TypeError(f"unknown pattern {pat!r}")


def pretty(occ: Occurrence) -> str:
    """Render with every point explicit; parse(pretty(o)) == o."""

    expr = occ.expr
    p = occ.point
    match expr:
        case Variable(name):
            return f"{name}@{p}"
        case Constant(value):
            if value is True:
                return f"true@{p}"
            if value is False:
                return f"false@{p}"
            if value == ():
                return f"()@{p}"
            return f"{value}@{p}"
        case Abstraction(param, body):
            return f"(λ {param}. {pretty(body)})@{p}"
        case Application(fn, arg):
            return f"({pretty(fn)} {pretty(arg)})@{p}"
        case FunctionalApplication(op, left, right):
            return f"({op} {pretty(left)} {pretty(right)})@{p}"
        case Let(name, bound, body):
            return f"(let {name} {pretty(bound)} {pretty(body)})@{p}"
        case LetRec(name, bound, body):
            return f"(let rec {name} {pretty(bound)} {pretty(body)})@{p}"
        case Case(scrutinee, patterns, clauses):
            alts = ", ".join(
                f"{_pretty_pattern(pat)} -> {pretty(clause)}" for pat, clause in zip(patterns, clauses)
            )
            return f"(case {pretty(scrutinee)} [{alts}])@{p}"
        case Ref(init):
            return f"(ref {pretty(init)})@{p}"
        case Assign(target, value):
            return f"({pretty(target)} := {pretty(value)})@{p}"
        case Deref(ref):
            return f"(!{pretty(ref)})@{p}"
        case Group(inner):
            return f"({pretty(inner)})@{p}"
    raise TypeError(f"unknown expression {expr!r}")
