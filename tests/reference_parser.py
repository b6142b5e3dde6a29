"""The recursive-descent parser with speculative path atoms.

This is the parser ``ldlmon.syntax.parser`` replaced: twelve hand-written
binary-operator methods, and path atoms told apart by trying an LDLf test,
then a propositional guard, then a parenthesized group, rewinding the
token index after each failed try.  Its time is exponential in the
nesting of tests.  The tests keep it as an independent reference for the
trees the precedence-climbing parser builds.
"""
from __future__ import annotations

from ldlmon.syntax import ldl, ltl
from ldlmon.syntax.alphabet import Alphabet, RESERVED_NAMES
from ldlmon.syntax.parser import FormulaSyntaxError, _Token, _tokenize
from ldlmon.syntax.props import (
    FALSE,
    TRUE,
    Atom,
    Prop,
    PropAnd,
    PropNot,
    PropOr,
)


class _Parser:
    def __init__(self, text: str, alphabet: Alphabet):
        self.tokens = _tokenize(text)
        self.alphabet = alphabet
        self.i = 0

    # Token plumbing ----------------------------------------------------

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def advance(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

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

    def expect_eof(self):
        tok = self.peek()
        if tok.kind != "eof":
            msg = f"unexpected trailing input {tok.text!r}"
            raise FormulaSyntaxError(msg, tok.pos)

    def fail(self, message: str):
        raise FormulaSyntaxError(message, self.peek().pos)

    def atom_name(self, tok: _Token) -> str:
        if tok.text not in self.alphabet:
            msg = f"unknown proposition name {tok.text!r}"
            raise FormulaSyntaxError(msg, tok.pos)
        return tok.text

    # Propositional layer ----------------------------------------------

    def prop_formula(self) -> Prop:
        return self.prop_iff()

    def prop_iff(self) -> Prop:
        left = self.prop_implies()
        while self.eat("<->"):
            right = self.prop_implies()
            left = PropAnd(PropOr(PropNot(left), right), PropOr(PropNot(right), left))
        return left

    def prop_implies(self) -> Prop:
        left = self.prop_or()
        if self.eat("->"):
            right = self.prop_implies()
            return PropOr(PropNot(left), right)
        return left

    def prop_or(self) -> Prop:
        left = self.prop_and()
        while self.eat("||"):
            left = PropOr(left, self.prop_and())
        return left

    def prop_and(self) -> Prop:
        left = self.prop_unary()
        while self.eat("&&"):
            left = PropAnd(left, self.prop_unary())
        return left

    def prop_unary(self) -> Prop:
        tok = self.peek()
        if self.eat("!"):
            return PropNot(self.prop_unary())
        if self.eat("("):
            inner = self.prop_formula()
            self.expect(")")
            return inner
        if tok.kind == "name":
            self.advance()
            if tok.text == "true":
                return TRUE
            if tok.text == "false":
                return FALSE
            if tok.text in RESERVED_NAMES:
                msg = f"reserved word {tok.text!r} is not a proposition"
                raise FormulaSyntaxError(msg, tok.pos)
            return Atom(self.atom_name(tok))
        self.fail("expected a propositional formula")

    # LDLf layer --------------------------------------------------------

    def ldlf_formula(self) -> ldl.Ldlf:
        return self.ldlf_iff()

    def ldlf_iff(self) -> ldl.Ldlf:
        left = self.ldlf_implies()
        while self.eat("<->"):
            right = self.ldlf_implies()
            left = ldl.And(
                ldl.Or(ldl.Not(left), right), ldl.Or(ldl.Not(right), left)
            )
        return left

    def ldlf_implies(self) -> ldl.Ldlf:
        left = self.ldlf_or()
        if self.eat("->"):
            right = self.ldlf_implies()
            return ldl.Or(ldl.Not(left), right)
        return left

    def ldlf_or(self) -> ldl.Ldlf:
        left = self.ldlf_and()
        while self.eat("||"):
            left = ldl.Or(left, self.ldlf_and())
        return left

    def ldlf_and(self) -> ldl.Ldlf:
        left = self.ldlf_unary()
        while self.eat("&&"):
            left = ldl.And(left, self.ldlf_unary())
        return left

    def ldlf_unary(self) -> ldl.Ldlf:
        tok = self.peek()
        if self.eat("!"):
            return ldl.Not(self.ldlf_unary())
        if self.eat("<"):
            path = self.path_expr()
            self.expect(">")
            return ldl.Diamond(path, self.ldlf_unary())
        if self.eat("["):
            path = self.path_expr()
            self.expect("]")
            return ldl.Box(path, self.ldlf_unary())
        if self.eat("("):
            inner = self.ldlf_formula()
            self.expect(")")
            return inner
        if tok.kind == "name":
            self.advance()
            if tok.text == "tt":
                return ldl.TT
            if tok.text == "ff":
                return ldl.FF
            if tok.text == "end":
                return ldl.END
            if tok.text == "last":
                return ldl.LAST
            if tok.text == "true":
                return ldl.prop_formula(TRUE)
            if tok.text == "false":
                return ldl.prop_formula(FALSE)
            if tok.text in RESERVED_NAMES:
                msg = f"reserved word {tok.text!r} is not a proposition"
                raise FormulaSyntaxError(msg, tok.pos)
            return ldl.prop_formula(Atom(self.atom_name(tok)))
        self.fail("expected an LDLf formula")

    # Path layer --------------------------------------------------------

    def path_expr(self) -> ldl.Path:
        left = self.path_seq()
        while self.eat("+"):
            left = ldl.Alt(left, self.path_seq())
        return left

    def path_seq(self) -> ldl.Path:
        left = self.path_star()
        while self.eat(";"):
            left = ldl.Seq(left, self.path_star())
        return left

    def path_star(self) -> ldl.Path:
        inner = self.path_atom()
        while self.eat("*"):
            inner = ldl.Star(inner)
        return inner

    def path_atom(self) -> ldl.Path:
        # A test is an LDLf formula followed by '?'; guards and groups do
        # not contain '?', so speculative parsing settles the ambiguity.
        mark = self.i
        try:
            cond = self.ldlf_formula()
            if self.eat("?"):
                return ldl.Test(cond)
        except FormulaSyntaxError:
            pass
        self.i = mark
        try:
            guard = self.prop_formula()
            return ldl.Step(guard)
        except FormulaSyntaxError:
            pass
        self.i = mark
        if self.eat("("):
            inner = self.path_expr()
            self.expect(")")
            return inner
        self.fail("expected a path expression")

    # LTLf layer --------------------------------------------------------

    def ltlf_formula(self) -> ltl.Ltlf:
        return self.ltlf_iff()

    def ltlf_iff(self) -> ltl.Ltlf:
        left = self.ltlf_implies()
        if self.eat("<->"):
            return ltl.LtlfIff(left, self.ltlf_iff())
        return left

    def ltlf_implies(self) -> ltl.Ltlf:
        left = self.ltlf_or()
        if self.eat("->"):
            return ltl.LtlfImplies(left, self.ltlf_implies())
        return left

    def ltlf_or(self) -> ltl.Ltlf:
        left = self.ltlf_and()
        while self.eat("||"):
            left = ltl.LtlfOr(left, self.ltlf_and())
        return left

    def ltlf_and(self) -> ltl.Ltlf:
        left = self.ltlf_until()
        while self.eat("&&"):
            left = ltl.LtlfAnd(left, self.ltlf_until())
        return left

    def ltlf_until(self) -> ltl.Ltlf:
        left = self.ltlf_unary()
        if self.eat("U"):
            return ltl.Until(left, self.ltlf_until())
        if self.eat("R"):
            return ltl.Release(left, self.ltlf_until())
        return left

    def ltlf_unary(self) -> ltl.Ltlf:
        tok = self.peek()
        if self.eat("!"):
            return ltl.LtlfNot(self.ltlf_unary())
        if self.eat("X"):
            return ltl.Next(self.ltlf_unary())
        if self.eat("WX"):
            return ltl.WeakNext(self.ltlf_unary())
        if self.eat("F"):
            return ltl.Eventually(self.ltlf_unary())
        if self.eat("G"):
            return ltl.Always(self.ltlf_unary())
        if self.eat("("):
            inner = self.ltlf_formula()
            self.expect(")")
            return inner
        if tok.kind == "name":
            self.advance()
            if tok.text == "true":
                return ltl.LtlfProp(TRUE)
            if tok.text == "false":
                return ltl.LtlfProp(FALSE)
            if tok.text in RESERVED_NAMES:
                msg = f"reserved word {tok.text!r} is not a proposition"
                raise FormulaSyntaxError(msg, tok.pos)
            return ltl.LtlfProp(Atom(self.atom_name(tok)))
        self.fail("expected an LTLf formula")


ENTRY_POINTS = {
    "prop": _Parser.prop_formula,
    "ldlf": _Parser.ldlf_formula,
    "ltlf": _Parser.ltlf_formula,
    "re": _Parser.path_expr,
}


def parse(layer: str, text: str, alphabet: Alphabet):
    """Parse the whole text as a ``layer`` (a key of ``ENTRY_POINTS``)."""
    parser = _Parser(text, alphabet)
    result = ENTRY_POINTS[layer](parser)
    parser.expect_eof()
    return result
