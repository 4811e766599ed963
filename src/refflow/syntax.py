"""Labeled abstract syntax and a reader for the parenthesized surface form.

Every subexpression carries a program point, a positive integer unique
within one program.  Points come from explicit ``@N`` annotations in the
source; anything left unlabeled is numbered in pre-order, skipping ids
already taken explicitly.

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
final tree in one recursive descent, which notes the explicit points,
claims each binder and resolves each variable against the binders in
scope as it goes.  Only when some binder name repeats does the descent
read the same tokens a second time, renaming as it claims.  The descent
also notes each unlabeled node with the index of its first token; one
sort of those notes puts them in pre-order, and the free ids are dealt
out along it.

The nodes are records that generate no code at import: slotted ``Frozen``
classes with a straight-line ``__init__``, whose equality, hash, repr,
copies and pickles are read off their field names as a frozen dataclass's.

A node's children (``_CHILDREN``) and its printed shape (``_SHAPES``) are
tables keyed by exact class; every constant prints through ``show_constant``.
"""

from __future__ import annotations

import re
import reprlib
import sys
from operator import attrgetter


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


_set = object.__setattr__  # stores a field of a Frozen record in its __init__


class Record:
    """A mutable, unhashable record, equal to one of its class with equal fields and shown as
    ``Class(field=value, ...)``; ``__match_args__`` names its fields, ``_compared`` any subset these read."""

    __slots__ = ()
    _compared: tuple = ()

    def __init_subclass__(cls, **kwargs):
        # _key(record): the compared fields' tuple, read in C; attrgetter binds no self,
        # so it is called as self._key(self)
        super().__init_subclass__(**kwargs)
        fields = cls._compared or getattr(cls, "__match_args__", ())
        if len(fields) == 1:
            get = attrgetter(*fields)
            cls._key = staticmethod(lambda record: (get(record),))
        else:
            cls._key = staticmethod(attrgetter(*fields) if fields else lambda record: ())

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == other._key(other)
        return NotImplemented

    @reprlib.recursive_repr()
    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._compared or self.__match_args__)
        return f"{type(self).__qualname__}({shown})"


class Frozen(Record):
    """An immutable, slotted record, hashed as the tuple of its compared fields and
    rebuilt from every field by copy and pickle; its ``__init__`` stores them with ``_set``."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __reduce__(self):
        return type(self), tuple([getattr(self, name) for name in self.__match_args__])

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Expression(Frozen):
    __slots__ = ()


class Occurrence(Frozen):
    __slots__ = __match_args__ = ("expr", "point")
    def __init__(self, expr: Expression, point: int):
        _set(self, "expr", expr)
        _set(self, "point", point)

    def __str__(self) -> str:
        return pretty(self)


class Variable(Expression):
    __slots__ = __match_args__ = ("name",)
    def __init__(self, name: str):
        _set(self, "name", name)


class Constant(Expression):
    __slots__ = __match_args__ = ("value",)
    def __init__(self, value: object):
        _set(self, "value", value)  # int for naturals, bool for truth values, () for unit


class Abstraction(Expression):
    __slots__ = __match_args__ = ("param", "body")
    def __init__(self, param: str, body: Occurrence):
        _set(self, "param", param)
        _set(self, "body", body)


class Application(Expression):
    __slots__ = __match_args__ = ("fn", "arg")
    def __init__(self, fn: Occurrence, arg: Occurrence):
        _set(self, "fn", fn)
        _set(self, "arg", arg)


class FunctionalApplication(Expression):
    __slots__ = __match_args__ = ("op", "left", "right")
    def __init__(self, op: str, left: Occurrence, right: Occurrence):
        _set(self, "op", op)
        _set(self, "left", left)
        _set(self, "right", right)


class Let(Expression):
    __slots__ = __match_args__ = ("name", "bound", "body")
    def __init__(self, name: str, bound: Occurrence, body: Occurrence):
        _set(self, "name", name)
        _set(self, "bound", bound)
        _set(self, "body", body)


class LetRec(Expression):
    __slots__ = __match_args__ = ("name", "bound", "body")
    __init__ = Let.__init__


class Case(Expression):
    __slots__ = __match_args__ = ("scrutinee", "patterns", "clauses")
    def __init__(self, scrutinee: Occurrence, patterns: tuple, clauses: tuple):
        _set(self, "scrutinee", scrutinee)
        _set(self, "patterns", patterns)
        _set(self, "clauses", clauses)


class Ref(Expression):
    __slots__ = __match_args__ = ("init",)
    def __init__(self, init: Occurrence):
        _set(self, "init", init)


class Assign(Expression):
    __slots__ = __match_args__ = ("target", "value")
    def __init__(self, target: Occurrence, value: Occurrence):
        _set(self, "target", target)
        _set(self, "value", value)


class Deref(Expression):
    __slots__ = __match_args__ = ("ref",)
    def __init__(self, ref: Occurrence):
        _set(self, "ref", ref)


class Group(Expression):
    """Pass-through wrapper for a doubly labeled position like (5@3)@4."""

    __slots__ = __match_args__ = ("inner",)
    def __init__(self, inner: Occurrence):
        _set(self, "inner", inner)


class Pattern(Frozen):
    __slots__ = ()


class PNat(Pattern):
    __slots__ = __match_args__ = ("value",)
    __init__ = Constant.__init__


class PBool(Pattern):
    __slots__ = __match_args__ = ("value",)
    __init__ = Constant.__init__


class PVar(Pattern):
    __slots__ = __match_args__ = ("name",)
    __init__ = Variable.__init__


class PWildcard(Pattern):
    __slots__ = __match_args__ = ()


class PTuple(Pattern):
    __slots__ = __match_args__ = ("items",)
    def __init__(self, items: tuple):
        _set(self, "items", items)


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

    An unlabeled node gets point None until numbering; ``labels``
    collects the explicit points in source order and ``unlabeled`` holds
    (index of its first token, node) for every node still unnumbered, in
    pre-order once sorted.  ``scope`` maps each source name to its
    name in the tree, or to None out of its binders' scope; ``claimed``
    holds the binder names taken so far, and a variable outside all of
    its binders goes into ``free``.

    Binders are claimed in pre-order: a parameter before its body, a
    ``let`` name after its bound, a ``let rec`` name before its bound, a
    case's variable pattern before its clause.  With ``avoid`` None the
    descent renames nothing and only notes in ``repeated`` that a binder
    name was claimed twice.  With ``avoid`` the set of every binder and
    free name of the program, a repeated binder takes the next ``name_k``
    (``wild_k`` for ``_``) outside it, from one counter.
    """

    def __init__(self, source: str, texts: list, avoid: set | None = None):
        self.source = source
        self.texts = texts
        self.pos = 0
        self.labels: list = []
        self.unlabeled: list = []
        self.scope: dict = {}
        self.claimed: set = set()
        self.free: set = set()
        self.avoid = avoid
        self.repeated = False
        self.counter = 0

    def read(self) -> Occurrence:
        tree = self.occurrence()
        if self.texts[self.pos]:
            self.fail(f"unexpected trailing input {self.texts[self.pos]!r}", self.pos)
        return tree

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
        start = self.pos
        node = self.term()
        if self.texts[self.pos] != "@":
            if type(node) is Occurrence:
                return node
            occ = Occurrence(node, None)
            self.unlabeled.append((start, occ))
            return occ
        self.pos += 1
        point = self.int_literal()
        self.labels.append(point)
        if type(node) is Occurrence:
            if node.point is None:
                # (5)@4: the group labels the node its term just noted
                self.unlabeled.pop()
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
            text = sys.intern(text)
            name = self.scope.get(text)
            if name is None:
                self.free.add(text)
                return Variable(text)
            return Variable(name)
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
            param, shadowed = self.enter(name)
            body = self.occurrence()
            self.scope[name] = shadowed
            self.expect(")")
            return Abstraction(param, body)
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
        if recursive:
            renamed, shadowed = self.enter(name)
        bound = self.occurrence()
        if not recursive:
            renamed, shadowed = self.enter(name)
        body = self.occurrence()
        self.scope[name] = shadowed
        self.expect(")")
        return (LetRec if recursive else Let)(renamed, bound, body)

    def case_form(self):
        self.pos += 1
        scrutinee = self.occurrence()
        self.expect("[")
        patterns = []
        clauses = []
        while True:
            pattern = self.pattern()
            index = self.pos
            text = self.take()
            if text != "->":
                line, col = self.position(index)
                raise CaseArityError(
                    f"case alternative needs 'pattern -> occurrence', found {text or 'end of input'!r} "
                    f"at line {line}, column {col}"
                )
            if type(pattern) is PVar:
                name = pattern.name
                renamed, shadowed = self.enter(name)
                pattern = PVar(renamed)
                clauses.append(self.occurrence())
                self.scope[name] = shadowed
            else:
                clauses.append(self.occurrence())
            patterns.append(pattern)
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
        return sys.intern(text)

    def enter(self, name: str) -> tuple:
        """Claim a binder and bring it into scope: its name in the tree,
        and the scope entry it shadows, which leaving the scope restores."""

        renamed = name
        if name not in self.claimed:
            self.claimed.add(name)
        elif self.avoid is None:
            self.repeated = True
        else:
            # avoid holds every source name, this one too: the loop runs at
            # least once, and no source binder can claim what it generates
            base = "wild" if name == "_" else name
            while renamed in self.avoid:
                self.counter += 1
                renamed = f"{base}_{self.counter}"
            self.avoid.add(renamed)
        shadowed = self.scope.get(name)
        self.scope[name] = renamed
        return renamed, shadowed

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
# Traversal
# ---------------------------------------------------------------------------


_CHILDREN = {
    Variable: lambda expr: (),
    Constant: lambda expr: (),
    Abstraction: lambda expr: (expr.body,),
    Application: lambda expr: (expr.fn, expr.arg),
    FunctionalApplication: lambda expr: (expr.left, expr.right),
    Let: lambda expr: (expr.bound, expr.body),
    LetRec: lambda expr: (expr.bound, expr.body),
    Case: lambda expr: (expr.scrutinee, *expr.clauses),
    Ref: lambda expr: (expr.init,),
    Assign: lambda expr: (expr.target, expr.value),
    Deref: lambda expr: (expr.ref,),
    Group: lambda expr: (expr.inner,),
}


def _children(expr: Expression):
    # one rule per class, looked up by exact class: no expression class has subclasses
    try:
        children = _CHILDREN[type(expr)]
    except KeyError:
        raise TypeError(f"unknown expression {expr!r}") from None
    return children(expr)


def _preorder(tree: Occurrence):
    """Every occurrence of the tree, in pre-order, without recursion."""

    stack = [tree]
    while stack:
        occ = stack.pop()
        yield occ
        stack.extend(reversed(_children(occ.expr)))


def parse(source: str) -> Occurrence:
    """Parse a surface program into a fully labeled occurrence tree.

    Explicit ``@N`` points stay; every other node takes, in pre-order,
    the least id above the previous one that no explicit label claims.
    One descent builds the tree; only when a binder name repeats does a
    second descent over the same tokens build it again with the repeats
    renamed, avoiding every binder and free name of the program.  The
    numbering then fills in the points of the final tree in place, in
    the order of the nodes' first tokens, which no caller can observe.
    """

    parser = _Parser(source, _tokenize(source))
    tree = parser.read()
    if parser.repeated:
        parser = _Parser(source, parser.texts, parser.claimed | parser.free)
        tree = parser.read()
    taken = set(parser.labels)
    if len(taken) != len(parser.labels):
        seen: set = set()
        for occ in _preorder(tree):  # raises, naming the first repeat in pre-order
            if occ.point is not None:
                if occ.point in seen:
                    raise DuplicatePointError(occ.point)
                seen.add(occ.point)
    parser.unlabeled.sort()  # first-token indices are distinct
    point = 1
    for _, occ in parser.unlabeled:
        while point in taken:
            point += 1
        _set(occ, "point", point)
        point += 1
    return tree


# ---------------------------------------------------------------------------
# Queries and printing
# ---------------------------------------------------------------------------


def occurs_free(name: str, occ: Occurrence) -> bool:
    """Whether ``name`` occurs free in the occurrence: one walk with a
    stack, which skips whatever a binder of ``name`` scopes over (a let's
    body, a let rec's bound and body, an abstraction's body, the clause
    of a case's variable pattern)."""

    stack = [occ]
    while stack:
        expr = stack.pop().expr
        kind = type(expr)
        if kind is Variable and expr.name == name:
            return True
        if kind is Case:
            stack.append(expr.scrutinee)
            stack += (
                clause for pattern, clause in zip(expr.patterns, expr.clauses)
                if not (type(pattern) is PVar and pattern.name == name)
            )
        elif kind is Let and expr.name == name:
            stack.append(expr.bound)
        elif not (kind is Abstraction and expr.param == name or kind is LetRec and expr.name == name):
            stack += _children(expr)
    return False


def all_points(occ: Occurrence) -> frozenset:
    return frozenset(o.point for o in _preorder(occ))


# Digits per chunk when a natural is too long for ``str``: below the
# smallest digit limit ``sys.set_int_max_str_digits`` accepts (640).
_CHUNK_DIGITS = 600
_CHUNK = 10**_CHUNK_DIGITS


def show_constant(value) -> str:
    """A constant as the surface form writes it: ``true``, ``false``,
    ``()`` or the exact decimal of a natural, also past ``int``'s digit
    limit."""

    if value is True:
        return "true"
    if value is False:
        return "false"
    if value == ():
        return "()"
    try:
        return str(value)
    except ValueError:
        pass
    sign, n = ("-", -value) if value < 0 else ("", value)
    chunks = []
    while n >= _CHUNK:
        n, low = divmod(n, _CHUNK)
        chunks.append(f"{low:0{_CHUNK_DIGITS}d}")
    chunks.append(str(n))
    return sign + "".join(reversed(chunks))


def _pretty_pattern(pat: Pattern) -> str:
    kind = type(pat)
    if kind is PNat or kind is PBool:
        return show_constant(pat.value)
    if kind is PVar:
        return pat.name
    if kind is PWildcard:
        return "_"
    if kind is PTuple:
        return "(" + ", ".join(map(_pretty_pattern, pat.items)) + ")"
    raise TypeError(f"unknown pattern {pat!r}")


def _pretty_arms(expr: Case) -> str:
    return ", ".join(f"{_pretty_pattern(pat)} -> {pretty(clause)}" for pat, clause in zip(expr.patterns, expr.clauses))


# each expression without its point, by exact class as ``_CHILDREN``
_SHAPES = {
    Variable: lambda expr: expr.name,
    Constant: lambda expr: show_constant(expr.value),
    Abstraction: lambda expr: f"(λ {expr.param}. {pretty(expr.body)})",
    Application: lambda expr: f"({pretty(expr.fn)} {pretty(expr.arg)})",
    FunctionalApplication: lambda expr: f"({expr.op} {pretty(expr.left)} {pretty(expr.right)})",
    Let: lambda expr: f"(let {expr.name} {pretty(expr.bound)} {pretty(expr.body)})",
    LetRec: lambda expr: f"(let rec {expr.name} {pretty(expr.bound)} {pretty(expr.body)})",
    Case: lambda expr: f"(case {pretty(expr.scrutinee)} [{_pretty_arms(expr)}])",
    Ref: lambda expr: f"(ref {pretty(expr.init)})",
    Assign: lambda expr: f"({pretty(expr.target)} := {pretty(expr.value)})",
    Deref: lambda expr: f"(!{pretty(expr.ref)})",
    Group: lambda expr: f"({pretty(expr.inner)})",
}


def pretty(occ: Occurrence) -> str:
    """Render with every point explicit; parse(pretty(o)) == o."""

    expr = occ.expr
    try:
        shape = _SHAPES[type(expr)]
    except KeyError:
        raise TypeError(f"unknown expression {expr!r}") from None
    return f"{shape(expr)}@{occ.point}"
