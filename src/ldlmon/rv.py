"""The four runtime-verification truth values.

For a property and a finite trace seen so far, exactly one holds:

* ``TEMP_TRUE``: satisfied now, some continuation violates it;
* ``TEMP_FALSE``: violated now, some continuation satisfies it;
* ``PERM_TRUE``: satisfied now and under every continuation;
* ``PERM_FALSE``: violated now and under every continuation.

Two LDLf extension nodes refer to them: ``RvAtom(f, s)`` holds when the
trace puts property f in RV state s, and ``RvPath(f, s)`` matches exactly
those traces.  ``metaconstraints`` builds formulas from them, and its
``expand`` lowers them into the plain LDLf that ``automata.compile_dfa``
compiles.
"""
from __future__ import annotations

from enum import Enum

from .syntax import ldl


class RVState(Enum):
    """An RV state.  ``code`` is its two-letter display code (TT, TF, PT
    or PF); ``satisfied`` says whether the trace seen so far satisfies
    the property, ``permanent`` whether no continuation can change the
    truth value.  All three are plain attributes fixed when the member is
    made, so a timeline or a lockstep build reads one attribute each."""

    TEMP_TRUE = "temp_true"
    TEMP_FALSE = "temp_false"
    PERM_TRUE = "perm_true"
    PERM_FALSE = "perm_false"

    def __init__(self, value: str):
        self.code = "".join(word[0] for word in value.split("_")).upper()
        self.satisfied = value.endswith("true")
        self.permanent = value.startswith("perm")

    def __str__(self) -> str:
        return self.value

    @classmethod
    def classify(cls, satisfied: bool, changeable: bool) -> "RVState":
        if satisfied:
            return cls.TEMP_TRUE if changeable else cls.PERM_TRUE
        return cls.TEMP_FALSE if changeable else cls.PERM_FALSE

    @classmethod
    def parse(cls, text: str) -> "RVState":
        """Accept either the full name (``perm_false``) or the code (``PF``)."""
        for member in cls:
            if text in (member.value, member.code, member.code.lower()):
                return member
        msg = f"not an RV state: {text!r}"
        raise ValueError(msg)


# The colors of pref(f) and of pref(!f) (see ``ColoredDfa.accepting``).
SATISFIABLE = frozenset(RVState) - {RVState.PERM_FALSE}
VIOLABLE = frozenset(RVState) - {RVState.PERM_TRUE}


class RvAtom(ldl.Ldlf):
    """Holds when the trace so far puts ``formula`` in RV state ``state``."""

    formula: ldl.Ldlf
    state: RVState

    def pretty(self) -> str:
        return "{" + ldl.print_ldlf(self.formula) + "}=" + self.state.code

    def __str__(self) -> str:
        return self.pretty()


class RvPath(ldl.Path):
    """Matches the prefixes that put ``formula`` in RV state ``state``."""

    formula: ldl.Ldlf
    state: RVState

    def pretty(self) -> str:
        return "re{" + ldl.print_ldlf(self.formula) + "}=" + self.state.code

    def __str__(self) -> str:
        return self.pretty()
