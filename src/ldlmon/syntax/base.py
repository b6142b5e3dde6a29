"""Shared machinery for the immutable AST node classes and their printers."""
from __future__ import annotations

from dataclasses import dataclass

# Every class made by ``node``: the operands ``_hash_bottom_up`` descends into.
_NODE_CLASSES: set = set()


def node(cls):
    """Turn a class into a frozen dataclass whose structural hash is cached.

    Formula objects are used heavily as dictionary keys (memo tables and
    macro-states), so recomputing the structural hash on every lookup
    would dominate the runtime of the automaton construction.  A subtree
    too deep for the generated hash to recurse through is hashed from an
    explicit stack instead, to the same values.
    """
    cls = dataclass(frozen=True)(cls)
    generated_hash = cls.__hash__

    def __hash__(self):
        h = self.__dict__.get("_hash")
        if h is None:
            try:
                h = generated_hash(self)
            except RecursionError:
                h = _hash_bottom_up(self)
            object.__setattr__(self, "_hash", h)
        return h

    cls.__hash__ = __hash__
    _NODE_CLASSES.add(cls)
    return cls


def _hash_bottom_up(root) -> int:
    """Hash root and every node below it not hashed yet, operands first,
    so that no hash recurses more than one level."""
    stack = [(root, False)]
    while stack:
        n, operands_done = stack.pop()
        if operands_done:
            hash(n)
            continue
        stack.append((n, True))
        for v in n.__dict__.values():
            if type(v) in _NODE_CLASSES and "_hash" not in v.__dict__:
                stack.append((v, False))
    return hash(root)


# The level an operand of a prefix or postfix operator is printed at: above
# every binary level, so a binary operand is always parenthesized.
UNARY = 100


def by_class(ops: dict, tight=()) -> dict:
    """A layer's operator table, token -> (level, class, groups right),
    read backwards for printing: class -> (the text between the operands,
    level, groups right).  Tokens in ``tight`` print without spaces."""
    return {
        cls: (token if token in tight else f" {token} ", level, right)
        for token, (level, cls, right) in ops.items()
    }


def print_infix(f, parent: int, table: dict, show) -> str:
    """Print the binary node f of a ``by_class`` table below an operator of
    level ``parent``; ``show(operand, level)`` prints an operand.  The
    operand on the grouping side is printed at f's level, the other one a
    level tighter, and f is parenthesized when its parent binds tighter."""
    joint, level, right = table[type(f)]
    text = show(f.left, level + right) + joint + show(f.right, level + (not right))
    return f"({text})" if parent > level else text
