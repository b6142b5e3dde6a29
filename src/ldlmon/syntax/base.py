"""Shared machinery for the immutable AST node classes."""
from __future__ import annotations

from dataclasses import dataclass


def node(cls):
    """Turn a class into a frozen dataclass whose structural hash is cached.

    Formula objects are used heavily as dictionary keys (memo tables and
    macro-states), so recomputing the recursive hash on
    every lookup would dominate the runtime of the automaton construction.
    """
    cls = dataclass(frozen=True)(cls)
    generated_hash = cls.__hash__

    def __hash__(self):
        h = self.__dict__.get("_hash")
        if h is None:
            h = generated_hash(self)
            object.__setattr__(self, "_hash", h)
        return h

    cls.__hash__ = __hash__
    return cls
