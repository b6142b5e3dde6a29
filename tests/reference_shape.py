"""Shape equivalence as three searches: a propagation walk for DFAs, a
fallback for DFAs with unreachable states and a recursive backtracking
search for NFAs.

This is the code ``monitor._bijection`` replaced, kept as is so the
tests can compare the one search against it.
"""
from __future__ import annotations

from ldlmon.automata import Dfa

from genformulas import letter_rows, triples


def shape_equivalent(a, b):
    """A bijection between states preserving the initial state and the
    transition relation in both directions (acceptance is ignored), or
    None when there is none.

    Deterministic automata admit at most one candidate, found by
    propagation from the initial states; nondeterministic ones fall
    back to a backtracking search.
    """
    if a.alphabet != b.alphabet:
        return None
    if a.n_states != b.n_states:
        return None
    letters = a.alphabet.letters()
    if isinstance(a, Dfa) and isinstance(b, Dfa):
        rows_a, rows_b = letter_rows(a), letter_rows(b)
        mapping = {a.initial: b.initial}
        queue = [a.initial]
        while queue:
            sa = queue.pop()
            for ta, tb in zip(rows_a[sa], rows_b[mapping[sa]]):
                if ta is None or tb is None:
                    if ta is tb:
                        continue
                    return None
                known = mapping.get(ta)
                if known is None:
                    mapping[ta] = tb
                    queue.append(ta)
                elif known != tb:
                    return None
        if len(mapping) != a.n_states or len(set(mapping.values())) != a.n_states:
            # Unreachable states exist; require both sides to have the
            # same number of them and no way to tell them apart beyond
            # the reachable part, then extend by the nondeterministic
            # search below.
            return _shape_search(a, b, letters, mapping)
        return mapping if _check_shape(a, b, mapping) else None
    return _shape_search(a, b, letters, {a.initial: b.initial})


def _edges_by_state(aut):
    out: dict = {}
    rev: dict = {}
    for state, letter, target in triples(aut):
        out.setdefault(state, {}).setdefault(letter, set()).add(target)
        rev.setdefault(target, {}).setdefault(letter, set()).add(state)
    return out, rev


def _signature(edges_out, edges_in, state, letters):
    return (
        tuple(len(edges_out.get(state, {}).get(l, ())) for l in letters),
        tuple(len(edges_in.get(state, {}).get(l, ())) for l in letters),
    )


def _shape_search(a, b, letters, seed):
    out_a, in_a = _edges_by_state(a)
    out_b, in_b = _edges_by_state(b)
    sig_b: dict = {}
    for state in range(b.n_states):
        sig_b.setdefault(_signature(out_b, in_b, state, letters), []).append(state)

    order = sorted(set(range(a.n_states)) - set(seed))
    mapping = dict(seed)
    used = set(mapping.values())

    def consistent(sa, sb):
        for letter, targets in out_a.get(sa, {}).items():
            imaged = out_b.get(sb, {}).get(letter, set())
            for t in targets:
                if t in mapping and mapping[t] not in imaged:
                    return False
        for letter, sources in in_a.get(sa, {}).items():
            imaged = in_b.get(sb, {}).get(letter, set())
            for s in sources:
                if s in mapping and mapping[s] not in imaged:
                    return False
        return True

    def backtrack(k):
        if k == len(order):
            return _check_shape(a, b, mapping)
        sa = order[k]
        for sb in sig_b.get(_signature(out_a, in_a, sa, letters), ()):
            if sb in used:
                continue
            if not consistent(sa, sb):
                continue
            mapping[sa] = sb
            used.add(sb)
            if backtrack(k + 1):
                return True
            del mapping[sa]
            used.discard(sb)
        return False

    if not consistent(a.initial, seed[a.initial]):
        return None
    return dict(mapping) if backtrack(0) else None


def _check_shape(a, b, mapping) -> bool:
    """Full verification of the three bijection conditions."""
    if mapping.get(a.initial) != b.initial:
        return False
    if len(mapping) != a.n_states or len(set(mapping.values())) != b.n_states:
        return False
    edges_a = {(mapping[s], letter, mapping[t]) for s, letter, t in triples(a)}
    return edges_a == set(triples(b))

