"""The base class of the immutable AST nodes, and what their printers share.

A node class declares its fields as annotations, in order; ``Node``
records them as ``_fields`` when the class is created, and its
constructor takes them positionally.  Nodes are immutable and equality
is structural: same class and equal fields.  The hash is fixed at
construction as the hash of the tuple of the fields.  Formula objects
key the memo tables and macro-states of the automaton construction, so
each lookup reads the stored hash; the operands' hashes are stored
before their parent is built, so no hash recurses, however deep the
formula.
"""
from __future__ import annotations

# Sets an attribute past ``Node.__setattr__``, which refuses every assignment.
_set = object.__setattr__


class Node:
    """An immutable node: fields from the class's annotations, the hash
    fixed at construction, structural equality."""

    __slots__ = ()
    _fields: tuple = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = cls._fields + tuple(cls.__annotations__)

    def __init__(self, *values):
        if len(values) != len(self._fields):
            msg = f"{type(self).__name__} takes {len(self._fields)} fields, not {len(values)}"
            raise TypeError(msg)
        for name, value in zip(self._fields, values):
            _set(self, name, value)
        _set(self, "_hash", hash(values))

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        fields = self._fields
        return self._hash == other._hash and (
            [getattr(self, name) for name in fields] == [getattr(other, name) for name in fields]
        )

    def __setattr__(self, name, value):
        msg = f"cannot assign to field {name!r} of an immutable node"
        raise AttributeError(msg)

    def __delattr__(self, name):
        msg = f"cannot delete field {name!r} of an immutable node"
        raise AttributeError(msg)

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


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
