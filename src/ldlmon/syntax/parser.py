"""Recursive-descent parsers for propositional, LTLf, LDLf and path syntax.

One tokenizer serves all entry points, and one precedence-climbing routine,
``_Parser.infix``, reads the binary operators of every layer from that
layer's operator table.  The tables live next to the node classes in
``props``, ``ldl`` and ``ltl``, where the printers read them too; this
module adds only the desugared ``->`` and ``<->``.  A path atom is decided
before it is parsed, by one forward scan to the first token outside
brackets that cannot continue a formula: if that token is ``?`` the atom
is a test, if the atom is exactly one parenthesized group it is a group,
and otherwise it is a guard.  Nothing is parsed twice, so the cost grows
with the text's length times its nesting depth; trying one reading and
rewinding to the next would be exponential in the nesting of tests.

Desugarings applied at parse time (the canonical form):

* ``end`` becomes ``[true]ff`` and ``last`` becomes ``<true>end``;
* a bare propositional atom at LDLf formula level becomes ``<atom>tt``,
  so negation always applies to the modal formula, never silently to the
  proposition;
* ``->`` and ``<->`` are expanded into and/or/not at LDLf level, while
  LTLf keeps them as first-class connectives.
"""
from __future__ import annotations

import re as _re

from . import ldl, ltl
from .alphabet import Alphabet, RESERVED_NAMES
from .props import FALSE, PROP_OPS, TRUE, Atom, Prop, PropAnd, PropNot, PropOr


class FormulaSyntaxError(ValueError):
    """Parse failure, carrying the character offset where it happened."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at offset {pos})")
        self.pos = pos


class _Token:
    __slots__ = ("kind", "text", "pos")

    def __init__(self, kind: str, text: str, pos: int):
        self.kind, self.text, self.pos = kind, text, pos


_TOKEN_RE = _re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<op><->|->|&&|\|\||[!()<>\[\]?*+;])
    """,
    _re.VERBOSE,
)


def scan_names(text: str) -> list[str]:
    """Identifiers that could only be proposition names, in first-use
    order.  Handy for building an alphabet when none was given."""
    seen = []
    for token in _tokenize(text):
        if token.kind == "name" and token.text not in RESERVED_NAMES:
            if token.text not in seen:
                seen.append(token.text)
    return seen


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            msg = f"unexpected character {text[pos]!r}"
            raise FormulaSyntaxError(msg, pos)
        if m.lastgroup != "ws":
            tokens.append(_Token(m.lastgroup, m.group(), pos))
        pos = m.end()
    tokens.append(_Token("eof", "", len(text)))
    return tokens


def _desugared(ops: dict, conj, disj, neg) -> dict:
    """The operator table of the propositional or LDLf layer, ``ops``, with
    the two operators that the parser desugars: ``l -> r`` becomes
    ``!l || r`` and ``l <-> r`` becomes ``(!l || r) && (!r || l)``."""
    return {
        "<->": (1, lambda l, r: conj(disj(neg(l), r), disj(neg(r), l)), False),
        "->": (2, lambda l, r: disj(neg(l), r), True),
        **ops,
    }


# The tables the parser reads for the propositional and LDLf layers.
_PROP_OPS = _desugared(PROP_OPS, PropAnd, PropOr, PropNot)
_LDLF_OPS = _desugared(ldl.LDLF_OPS, ldl.And, ldl.Or, ldl.Not)

_LDLF_CONSTANTS = {"tt": ldl.TT, "ff": ldl.FF, "end": ldl.END, "last": ldl.LAST}

# Path-atom scan: tokens that open and close brackets, and the operator
# tokens that continue a formula (names continue one too).
_OPENERS = frozenset("(<[")
_CLOSERS = frozenset(")>]")
_CONTINUERS = frozenset({"!", *_LDLF_OPS})


class _Parser:
    def __init__(self, text: str, alphabet: Alphabet):
        self.tokens = _tokenize(text)
        self.alphabet = alphabet
        self.i = 0

    # Token plumbing ----------------------------------------------------

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def at(self, text: str) -> bool:
        return self.tokens[self.i].text == text and self.tokens[self.i].kind != "eof"

    def eat(self, text: str) -> bool:
        if self.at(text):
            self.i += 1
            return True
        return False

    def expect(self, text: str):
        if not self.eat(text):
            tok = self.peek()
            shown = tok.text if tok.kind != "eof" else "end of input"
            msg = f"expected {text!r}, found {shown!r}"
            raise FormulaSyntaxError(msg, tok.pos)

    def closed(self, inner, text: str):
        """``inner``, the parse just made, once the ``text`` that must
        close it has been eaten."""
        self.expect(text)
        return inner

    def expect_eof(self):
        tok = self.peek()
        if tok.kind != "eof":
            msg = f"unexpected trailing input {tok.text!r}"
            raise FormulaSyntaxError(msg, tok.pos)

    # Shared by every layer ---------------------------------------------

    def infix(self, ops: dict, operand, loosest: int = 1):
        """Operands joined by the operators of ``ops`` whose level is at
        least ``loosest``, grouped by level and side (precedence climbing)."""
        left = operand()
        while True:
            op = ops.get(self.peek().text)
            if op is None or op[0] < loosest:
                return left
            level, build, right_grouping = op
            self.i += 1
            right = self.infix(ops, operand, level if right_grouping else level + 1)
            left = build(left, right)

    def leaf(self, layer: str) -> Prop:
        """``true``, ``false`` or a proposition of the alphabet; the
        error names ``layer`` when the next token is no name at all."""
        tok = self.peek()
        if tok.kind != "name":
            raise FormulaSyntaxError(f"expected {layer}", tok.pos)
        self.i += 1
        if tok.text == "true":
            return TRUE
        if tok.text == "false":
            return FALSE
        if tok.text in RESERVED_NAMES:
            msg = f"reserved word {tok.text!r} is not a proposition"
            raise FormulaSyntaxError(msg, tok.pos)
        if tok.text not in self.alphabet:
            msg = f"unknown proposition name {tok.text!r}"
            raise FormulaSyntaxError(msg, tok.pos)
        return Atom(tok.text)

    # Propositional layer ----------------------------------------------

    def prop_formula(self) -> Prop:
        return self.infix(_PROP_OPS, self.prop_unary)

    def prop_unary(self) -> Prop:
        if self.eat("!"):
            return PropNot(self.prop_unary())
        if self.eat("("):
            return self.closed(self.prop_formula(), ")")
        return self.leaf("a propositional formula")

    # LDLf layer --------------------------------------------------------

    def ldlf_formula(self) -> ldl.Ldlf:
        return self.infix(_LDLF_OPS, self.ldlf_unary)

    def ldlf_unary(self) -> ldl.Ldlf:
        if self.eat("!"):
            return ldl.Not(self.ldlf_unary())
        if self.eat("<"):
            return ldl.Diamond(self.closed(self.path(), ">"), self.ldlf_unary())
        if self.eat("["):
            return ldl.Box(self.closed(self.path(), "]"), self.ldlf_unary())
        if self.eat("("):
            return self.closed(self.ldlf_formula(), ")")
        constant = _LDLF_CONSTANTS.get(self.peek().text)
        if constant is not None:
            self.i += 1
            return constant
        return ldl.prop_formula(self.leaf("an LDLf formula"))

    # Path layer --------------------------------------------------------

    def path(self) -> ldl.Path:
        return self.infix(ldl.PATH_OPS, self.path_star)

    def path_star(self) -> ldl.Path:
        inner = self.path_atom()
        while self.eat("*"):
            inner = ldl.Star(inner)
        return inner

    def path_atom(self) -> ldl.Path:
        # Guards and groups hold no '?' outside brackets, and a test holds
        # an LDLf formula, whose tokens outside brackets all continue one.
        # A group whose body is a guard parses to that same guard.
        depth, group_end = 0, None
        for j in range(self.i, len(self.tokens)):
            tok = self.tokens[j]
            if tok.text in _OPENERS:
                depth += 1
            elif depth and tok.text in _CLOSERS:
                depth -= 1
                if depth == 0 and group_end is None:
                    group_end = j
            elif depth == 0 and tok.kind != "name" and tok.text not in _CONTINUERS:
                break
        if j == self.i:
            raise FormulaSyntaxError("expected a path expression", tok.pos)
        if tok.text == "?":
            return ldl.Test(self.closed(self.ldlf_formula(), "?"))
        if self.at("(") and group_end == j - 1:
            self.i += 1
            return self.closed(self.path(), ")")
        return ldl.Step(self.prop_formula())

    # LTLf layer --------------------------------------------------------

    def ltlf_formula(self) -> ltl.Ltlf:
        return self.infix(ltl.LTLF_OPS, self.ltlf_unary)

    def ltlf_unary(self) -> ltl.Ltlf:
        prefix = ltl.LTLF_PREFIXES.get(self.peek().text)
        if prefix is not None:
            self.i += 1
            return prefix(self.ltlf_unary())
        if self.eat("("):
            return self.closed(self.ltlf_formula(), ")")
        return ltl.LtlfProp(self.leaf("an LTLf formula"))


def _parse(text: str, alphabet: Alphabet, entry):
    parser = _Parser(text, alphabet)
    result = entry(parser)
    parser.expect_eof()
    return result


def parse_ldlf(text: str, alphabet: Alphabet) -> ldl.Ldlf:
    return _parse(text, alphabet, _Parser.ldlf_formula)


def parse_ltlf(text: str, alphabet: Alphabet) -> ltl.Ltlf:
    return _parse(text, alphabet, _Parser.ltlf_formula)


def parse_prop(text: str, alphabet: Alphabet) -> Prop:
    return _parse(text, alphabet, _Parser.prop_formula)


def parse_re(text: str, alphabet: Alphabet) -> ldl.Path:
    """Parse a regular path expression (the CLI's ``re`` input language)."""
    return _parse(text, alphabet, _Parser.path)
