"""Per-letter references for the stages of the compile pipeline.

``reference_ldlf_to_nfa``, ``reference_determinize`` and
``reference_prefix_closure`` are the per-letter versions of
``ldlf_to_nfa``, ``determinize`` and the prefix closures, which now
compute one successor per letter class; they are kept verbatim apart
from names and from how they read and write rows.  The NFA construction
conjoins obligations through ``reference_delta``, the positive boolean
formulas ``automata.delta`` no longer builds.  ``reference_colors``
colors a DFA by the definition of the four RV states, with one forward
search per state.  None runs a kernel stage of ``automata``.
"""
from collections import deque

from ldlmon.automata import Dfa, Nfa
from ldlmon.rv import RVState
from ldlmon.syntax.ldl import print_ldlf
from ldlmon.syntax.transforms import to_nnf

import reference_delta as ref
from reference_product import reachable
from genformulas import column_rows, letter_rows

TT_ = RVState.TEMP_TRUE
TF_ = RVState.TEMP_FALSE
PT_ = RVState.PERM_TRUE
PF_ = RVState.PERM_FALSE


def reference_ldlf_to_nfa(formula, alphabet):
    normalized = to_nnf(formula)
    letters = alphabet.letters()
    key_cache: dict = {}

    def key(f):
        k = key_cache.get(f)
        if k is None:
            k = print_ldlf(f)
            key_cache[f] = k
        return k

    delta_cache: dict = {}

    def delta_of(f, letter):
        probe = (f, letter)
        hit = delta_cache.get(probe)
        if hit is None:
            hit = ref.delta(f, letter)
            delta_cache[probe] = hit
        return hit

    empty = frozenset()
    initial_macro = frozenset((normalized,))
    ids: dict = {initial_macro: 0}
    order = [initial_macro]
    transitions: dict = {}
    queue = deque((initial_macro,))
    while queue:
        macro = queue.popleft()
        row: dict = {}
        members = sorted(macro, key=key)
        for letter in letters:
            obligation = ref.PB_TRUE
            for member in members:
                obligation = ref.pb_and(obligation, delta_of(member, letter))
                if isinstance(obligation, ref.PBFalse):
                    break
            models = ref.minimal_models(obligation)
            models.sort(key=lambda m: (len(m), sorted(key(g) for g in m)))
            targets = []
            for model in models:
                if model not in ids:
                    ids[model] = len(order)
                    order.append(model)
                    queue.append(model)
                targets.append(ids[model])
            if targets:
                row[letter] = frozenset(targets)
        transitions[ids[macro]] = row
    if empty not in ids:
        ids[empty] = len(order)
        order.append(empty)
        transitions[ids[empty]] = {letter: frozenset((ids[empty],)) for letter in letters}
    finals = frozenset(
        ids[macro] for macro in order if all(ref.delta_epsilon(m) for m in macro)
    )
    labels = tuple(
        " & ".join(sorted(key(member) for member in macro)) if macro else "{}"
        for macro in order
    )
    return Nfa(
        alphabet=alphabet,
        n_states=len(order),
        initial=0,
        transitions=column_rows(alphabet, transitions, frozenset()),
        finals=finals,
        labels=labels,
    )


def reference_determinize(nfa):
    letters = nfa.alphabet.letters()
    table = letter_rows(nfa)
    initial = frozenset((nfa.initial,))
    ids = {initial: 0}
    order = [initial]
    transitions: dict = {}
    queue = deque((initial,))
    while queue:
        subset = queue.popleft()
        row = {}
        for column, letter in enumerate(letters):
            successor = frozenset(
                target for state in subset for target in table[state][column]
            )
            if successor not in ids:
                ids[successor] = len(order)
                order.append(successor)
                queue.append(successor)
            row[letter] = ids[successor]
        transitions[ids[subset]] = row
    finals = frozenset(ids[subset] for subset in order if subset & nfa.finals)
    labels = tuple(
        "{" + ",".join(str(s) for s in sorted(subset)) + "}" for subset in order
    )
    return Dfa(
        alphabet=nfa.alphabet,
        n_states=len(order),
        initial=0,
        transitions=column_rows(nfa.alphabet, transitions),
        finals=finals,
        labels=labels,
    )


def reference_prefix_closure(aut):
    backward: dict = {}
    for state, _, target in aut.triples():
        backward.setdefault(target, set()).add(state)
    closed = set(aut.finals)
    queue = deque(aut.finals)
    while queue:
        state = queue.popleft()
        for pred in backward.get(state, ()):
            if pred not in closed:
                closed.add(pred)
                queue.append(pred)
    return frozenset(closed)


def reference_colors(dfa: Dfa) -> tuple:
    """Colors by their definition, one forward search per state: the
    verdict can change when a state of the other acceptance is
    reachable."""
    out = []
    for state in range(dfa.n_states):
        reach = reachable(dfa, state)
        if state in dfa.finals:
            out.append(PT_ if reach <= dfa.finals else TT_)
        else:
            out.append(TF_ if reach & dfa.finals else PF_)
    return tuple(out)
