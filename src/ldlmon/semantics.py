"""Direct trace semantics for LTLf, LDLf and path expressions.

This module is deliberately independent of the automata pipeline: it
evaluates formulas by structural recursion over the trace and serves as
the reference the automata are checked against.

Positions run from 0.  A trace may be empty.  Evaluation is defined at
every position, including positions at or past the end of the trace
(``i >= len(trace)``), where step-taking operators bottom out: a diamond
over a plain step is false, a box over a plain step is true.
"""
from __future__ import annotations

from collections.abc import Iterable, Sequence

from .syntax import ldl, ltl
from .syntax.props import eval_prop

Trace = tuple[frozenset, ...]


def trace_from_tasks(names: Iterable[str]) -> Trace:
    """Build a one-task-per-step trace from task names."""
    return tuple(frozenset((name,)) for name in names)


class _Evaluator:
    """Shared memo tables for one formula/trace evaluation."""

    def __init__(self, trace: Sequence[frozenset]):
        self.trace = trace
        self.n = len(trace)
        self._formula_memo: dict = {}
        self._path_memo: dict = {}

    def eval(self, i: int, f: ldl.Ldlf) -> bool:
        key = (i, id(f))
        hit = self._formula_memo.get(key)
        if hit is None:
            hit = self._eval(i, f)
            self._formula_memo[key] = hit
        return hit

    def _eval(self, i: int, f: ldl.Ldlf) -> bool:
        if isinstance(f, ldl.Tt):
            return True
        if isinstance(f, ldl.Ff):
            return False
        if isinstance(f, ldl.Not):
            return not self.eval(i, f.arg)
        if isinstance(f, ldl.And):
            return self.eval(i, f.left) and self.eval(i, f.right)
        if isinstance(f, ldl.Or):
            return self.eval(i, f.left) or self.eval(i, f.right)
        if isinstance(f, ldl.Diamond):
            return any(
                self.eval(j, f.arg)
                for j in self._match_ends(i, f.path)
            )
        if isinstance(f, ldl.Box):
            return all(
                self.eval(j, f.arg)
                for j in self._match_ends(i, f.path)
            )
        msg = f"cannot evaluate {f!r}"
        raise TypeError(msg)

    def _match_ends(self, i: int, path: ldl.Path):
        """Positions j >= i such that trace[i:j] matches the path.

        Positions past the end of the trace all behave alike, so j is
        only enumerated up to len(trace) (or i itself when already out
        of range).
        """
        limit = max(i, self.n)
        return (j for j in range(i, limit + 1) if self.matches(i, j, path))

    def matches(self, i: int, j: int, path: ldl.Path) -> bool:
        key = (i, j, id(path))
        hit = self._path_memo.get(key)
        if hit is None:
            hit = self._matches(i, j, path)
            self._path_memo[key] = hit
        return hit

    def _matches(self, i: int, j: int, path: ldl.Path) -> bool:
        if isinstance(path, ldl.Step):
            return j == i + 1 and i < self.n and eval_prop(path.guard, self.trace[i])
        if isinstance(path, ldl.Test):
            return j == i and self.eval(i, path.cond)
        if isinstance(path, ldl.Alt):
            return self.matches(i, j, path.left) or self.matches(i, j, path.right)
        if isinstance(path, ldl.Seq):
            lo, hi = min(i, j), max(i, j)
            return any(
                self.matches(i, k, path.left) and self.matches(k, j, path.right)
                for k in range(lo, hi + 1)
            )
        if isinstance(path, ldl.Star):
            if j == i:
                return True
            # Iterations that consume nothing cannot contribute progress,
            # so the first iteration may start anywhere strictly past i.
            return any(
                self.matches(i, k, path.body) and self.matches(k, j, path)
                for k in range(i + 1, j + 1)
            )
        msg = f"not a path expression: {path!r}"
        raise TypeError(msg)


def eval_ldlf(trace: Sequence[frozenset], i: int, f: ldl.Ldlf) -> bool:
    """Whether the trace satisfies f when read from position i."""
    if i < 0:
        msg = f"negative position: {i}"
        raise ValueError(msg)
    return _Evaluator(tuple(trace)).eval(i, f)


def path_matches(trace: Sequence[frozenset], i: int, j: int, path: ldl.Path) -> bool:
    """Whether the trace segment from position i up to (excluding) j
    matches the path expression."""
    if i < 0 or j < 0:
        msg = f"negative position: {min(i, j)}"
        raise ValueError(msg)
    return _Evaluator(tuple(trace)).matches(i, j, path)


def eval_ltlf(trace: Sequence[frozenset], i: int, f: ltl.Ltlf) -> bool:
    """Whether the trace satisfies the LTLf formula f from position i."""
    if i < 0:
        msg = f"negative position: {i}"
        raise ValueError(msg)
    return _eval_ltlf(tuple(trace), i, f)


def _eval_ltlf(trace: Trace, i: int, f: ltl.Ltlf) -> bool:
    n = len(trace)
    if isinstance(f, ltl.LtlfProp):
        return i < n and eval_prop(f.prop, trace[i])
    if isinstance(f, ltl.LtlfNot):
        return not _eval_ltlf(trace, i, f.arg)
    if isinstance(f, ltl.LtlfAnd):
        return _eval_ltlf(trace, i, f.left) and _eval_ltlf(trace, i, f.right)
    if isinstance(f, ltl.LtlfOr):
        return _eval_ltlf(trace, i, f.left) or _eval_ltlf(trace, i, f.right)
    if isinstance(f, ltl.LtlfImplies):
        return (not _eval_ltlf(trace, i, f.left)) or _eval_ltlf(trace, i, f.right)
    if isinstance(f, ltl.LtlfIff):
        return _eval_ltlf(trace, i, f.left) == _eval_ltlf(trace, i, f.right)
    if isinstance(f, ltl.Next):
        return i < n - 1 and _eval_ltlf(trace, i + 1, f.arg)
    if isinstance(f, ltl.WeakNext):
        return i >= n - 1 or _eval_ltlf(trace, i + 1, f.arg)
    if isinstance(f, ltl.Eventually):
        return any(_eval_ltlf(trace, j, f.arg) for j in range(i, n))
    if isinstance(f, ltl.Always):
        return all(_eval_ltlf(trace, j, f.arg) for j in range(i, n))
    if isinstance(f, ltl.Until):
        return any(
            _eval_ltlf(trace, j, f.right)
            and all(_eval_ltlf(trace, k, f.left) for k in range(i, j))
            for j in range(i, n)
        )
    if isinstance(f, ltl.Release):
        return all(
            _eval_ltlf(trace, j, f.right)
            or any(_eval_ltlf(trace, k, f.left) for k in range(i, j))
            for j in range(i, n)
        )
    msg = f"not an LTLf formula: {f!r}"
    raise TypeError(msg)
