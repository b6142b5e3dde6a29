"""Finite alphabets of proposition names and the letters they induce.

A letter is an interpretation: the set of propositions that hold at one
trace step.  A general alphabet induces every subset of its propositions
as a letter.  A task alphabet (used by Declare models, where exactly one
task happens per step) induces only the singleton interpretations.
"""
from __future__ import annotations

import re
from dataclasses import dataclass

Interp = frozenset

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")

# Operator keywords of the concrete syntax; these cannot name propositions.
RESERVED_NAMES = frozenset(
    {"true", "false", "tt", "ff", "end", "last", "X", "WX", "U", "R", "F", "G"}
)


@dataclass(frozen=True)
class Alphabet:
    """An ordered collection of proposition names.

    ``singleton_letters`` restricts the induced letters to one-name
    interpretations, which models event logs where each step is exactly
    one task occurrence.
    """

    props: tuple[str, ...]
    singleton_letters: bool = False

    def __post_init__(self):
        if not self.props:
            raise ValueError("alphabet needs at least one proposition")
        seen = set()
        for name in self.props:
            if not _NAME_RE.match(name):
                msg = f"invalid proposition name: {name!r}"
                raise ValueError(msg)
            if name in RESERVED_NAMES:
                msg = f"proposition name is a reserved word: {name!r}"
                raise ValueError(msg)
            if name in seen:
                msg = f"duplicate proposition name: {name!r}"
                raise ValueError(msg)
            seen.add(name)

    @classmethod
    def of(cls, *names: str) -> "Alphabet":
        return cls(tuple(names))

    @classmethod
    def tasks(cls, names) -> "Alphabet":
        return cls(tuple(names), singleton_letters=True)

    def __contains__(self, name: str) -> bool:
        return name in self.props

    def letters(self) -> tuple[frozenset[str], ...]:
        """All letters of this alphabet, in a fixed enumeration order."""
        cached = self.__dict__.get("_letters")
        if cached is None:
            if self.singleton_letters:
                cached = tuple(frozenset((p,)) for p in self.props)
            else:
                n = len(self.props)
                cached = tuple(
                    frozenset(self.props[j] for j in range(n) if mask >> j & 1)
                    for mask in range(1 << n)
                )
            object.__setattr__(self, "_letters", cached)
        return cached

    def columns(self) -> dict[frozenset[str], int]:
        """Letter -> its index in ``letters()``, which is its column in a
        monitor's transition table."""
        cached = self.__dict__.get("_columns")
        if cached is None:
            cached = {letter: index for index, letter in enumerate(self.letters())}
            object.__setattr__(self, "_columns", cached)
        return cached

    def check_letter(self, interp: frozenset[str]):
        """Raise if interp is not a letter of this alphabet."""
        for name in interp:
            if name not in self.props:
                msg = f"unknown proposition in event: {name!r}"
                raise ValueError(msg)
        if self.singleton_letters and len(interp) != 1:
            msg = f"expected exactly one task per event, got {sorted(interp)!r}"
            raise ValueError(msg)
