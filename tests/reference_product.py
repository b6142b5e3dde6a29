"""The product fold as two passes per step, and Moore's ``minimize`` as
it was before it shared its refinement with the product.

``automata.product_fold`` runs one fused step per operand: it explores
the pairs at class level, collapses the pairs that a rejecting (for a
disjunction, accepting) absorbing component decides, and refines the
class rows in place.  The references below are what it replaced: the
spread, labelled ``product`` of the two automata, minimized as a DFA of
its own, which finds the letter classes and the reachable states again.
The tests keep them, verbatim apart from names, as the references the
fused step and the shared refinement must match byte for byte, labels
included.
"""
from ldlmon.automata import (
    Dfa,
    _automaton,
    _explore,
    _partition,
    letter_classes,
    product,
    reachable_from,
)


def minimize(dfa: Dfa) -> Dfa:
    rows = dfa.transitions
    firsts, class_of = letter_classes(dfa)
    states = sorted(reachable_from(dfa, dfa.initial))
    heads, blocks = _partition(s in dfa.finals for s in states)
    while True:
        block = dict(zip(states, blocks))
        count = len(heads)
        heads, blocks = _partition(
            (block[s], tuple(block[rows[s][column]] for column in firsts)) for s in states
        )
        if len(heads) == count:
            break
    heads = [states[head] for head in heads]

    def cells(blk, ident):
        row = rows[heads[blk]]
        return [ident(block[row[column]]) for column in firsts]

    order, transitions = _explore(block[dfa.initial], cells)
    return _automaton(
        Dfa, dfa.alphabet, order, transitions, class_of,
        lambda blk: heads[blk] in dfa.finals,
        (lambda blk: dfa.labels[heads[blk]]) if dfa.labels else None,
    )


def product_fold(dfas, accept=None) -> Dfa:
    dfas = iter(dfas)
    folded = next(dfas, None)
    if folded is None:
        msg = "a product of no automata: a model needs at least one constraint"
        raise ValueError(msg)
    for dfa in dfas:
        folded = minimize(product(folded, dfa, accept))
    return folded
