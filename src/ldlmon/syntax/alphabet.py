"""Finite alphabets of proposition names and the letters they induce.

A letter is an interpretation: the set of propositions that hold at one
trace step.  A general alphabet induces every subset of its propositions
as a letter.  A task alphabet (used by Declare models, where exactly one
task happens per step) induces only the singleton interpretations.
"""
from __future__ import annotations

import re

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
MAX_PROPS = 20

# Operator keywords of the concrete syntax; these cannot name propositions.
RESERVED_NAMES = frozenset(
    {"true", "false", "tt", "ff", "end", "last", "X", "WX", "U", "R", "F", "G"}
)


def check_width(n: int):
    """Raise ValueError if ``n`` props give more letters than can be listed."""
    if n > MAX_PROPS:
        msg = f"{n} props give 2^{n} letters; at most {MAX_PROPS} props are supported"
        raise ValueError(msg)


def lift(support, onto) -> list:
    """For each column over the props ``onto``, a superset of ``support``
    (both in alphabet order), the column over ``support`` of the same
    letter: the projection that reads rows over ``support`` as rows over
    ``onto``."""
    check_width(len(onto))
    bits = {p: 1 << k for k, p in enumerate(support)}
    columns = [0]
    for p in onto:
        bit = bits.get(p)
        columns += [column | bit for column in columns] if bit else columns
    return columns


class Alphabet:
    """An ordered collection of proposition names.

    ``singleton_letters`` restricts the induced letters to one-name
    interpretations, which models event logs where each step is exactly
    one task occurrence.
    """

    def __init__(self, props, singleton_letters: bool = False):
        if isinstance(props, str):
            raise TypeError(f"props must be a sequence of names, not the string {props!r}")
        self.props = tuple(props)
        self.singleton_letters = singleton_letters
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

    def __eq__(self, other):
        return isinstance(other, Alphabet) and (
            (self.props, self.singleton_letters) == (other.props, other.singleton_letters))

    def __hash__(self):
        return hash((self.props, self.singleton_letters))

    @classmethod
    def of(cls, *names: str) -> "Alphabet":
        return cls(names)

    @classmethod
    def tasks(cls, names) -> "Alphabet":
        return cls(names, singleton_letters=True)

    def __contains__(self, name: str) -> bool:
        return name in self.props

    def letters(self) -> tuple[frozenset[str], ...]:
        """All letters of this alphabet, in a fixed enumeration order: a
        task alphabet's singletons, and a prop alphabet's
        ``letters_over(props)``."""
        cached = getattr(self, "_letters", None)
        if cached is None:
            if self.singleton_letters:
                cached = tuple(frozenset((p,)) for p in self.props)
            else:
                cached = self.letters_over(self.props)
            self._letters = cached
        return cached

    def letters_over(self, support) -> tuple[frozenset[str], ...]:
        """The letters over ``support``, some of the props in alphabet
        order, which are the columns of an automaton's rows over it.  A
        task alphabet's support is every task, and its letters are
        ``letters()``.  Prop letters are built by doubling, each prop added
        to a copy of the letters so far, so the letter at index ``mask``
        holds ``support[j]`` for each bit j set; more than ``MAX_PROPS``
        props give too many to list and raise ValueError."""
        if self.singleton_letters:
            return self.letters()
        check_width(len(support))
        letters = [frozenset()]
        for p in support:
            letters += [letter | {p} for letter in letters]
        return tuple(letters)

    def columns(self) -> dict[frozenset[str], int]:
        """Letter -> its index in ``letters()``, which is its column in the
        rows of an automaton over every prop."""
        cached = getattr(self, "_columns", None)
        if cached is None:
            cached = self._columns = {letter: index for index, letter in enumerate(self.letters())}
        return cached

    def columns_over(self, support) -> dict[frozenset[str], int]:
        """Letter -> its column in the rows of an automaton over
        ``support``: the index among ``letters_over(support)`` of its props
        in the support.  Built once per support and kept, so every
        automaton and monitor over one support shares one map; over every
        prop it is ``columns()``."""
        if support == self.props:
            return self.columns()
        maps = self.__dict__.setdefault("_columns_over", {})
        cached = maps.get(support)
        if cached is None:
            cached = maps[support] = dict(zip(self.letters(), lift(support, self.props)))
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
