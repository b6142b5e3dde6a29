"""The product fold as minimized products, and Moore's ``minimize`` as
it was before it shared its refinement with the product.

``automata.product_fold`` walks the tuples of its operands' states once,
at class level, collapses the tuples that a rejecting (for a
disjunction, accepting) absorbing component decides, and refines the
class rows in place.  Two references check it:

- ``product_fold``, the pairwise fold it replaced: the ``tuple_product``
  of the folded automaton and the next operand, minimized as a DFA of
  its own, which finds the letter classes and the reachable states
  again.  Its tables, finals and colors must come out byte for
  byte, and with two operands its ``(i,j)`` labels too; with more, its
  labels name states of intermediate DFAs.
- ``tuple_product_fold``: the product over the tuples of the operands'
  states, walked letter by letter with no tuple collapsed, minimized by
  ``minimize`` below.  Its labels define the rule: a state is labelled
  ``(q1,...,qn)`` after the first tuple of its block.

``tuple_product`` is the one unminimized product of the tests: the
references above, the test products, criterion 9's pair tables and
``oracles.language_equal`` all walk it.  The tests keep ``minimize``
verbatim apart from names.
"""
from operator import getitem

from ldlmon.automata import (
    Dfa,
    _automaton,
    _explore,
    _partition,
    letter_classes,
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


def product_fold(dfas, disjunction=False) -> Dfa:
    dfas = iter(dfas)
    folded = next(dfas, None)
    if folded is None:
        msg = "a product of no automata: a model needs at least one constraint"
        raise ValueError(msg)
    for dfa in dfas:
        folded = minimize(tuple_product((folded, dfa), disjunction)[0])
    return folded


def tuple_product(dfas, disjunction=False):
    """The product over the tuples of the DFAs' states, reachable ones
    numbered breadth first letter by letter, labelled ``(q1,...,qn)``:
    final when every component is (with ``disjunction``, any).  Returns
    the product and its state tuples in state order."""
    dfas = tuple(dfas)
    alphabet = dfas[0].alphabet
    if any(dfa.alphabet != alphabet for dfa in dfas):
        msg = "product needs automata over the same alphabet"
        raise ValueError(msg)
    join = any if disjunction else all
    tables = [dfa.transitions for dfa in dfas]
    start = tuple(dfa.initial for dfa in dfas)
    ids, order, rows = {start: 0}, [start], []
    for states in order:  # ``order`` grows as states are found: a FIFO walk
        row = []
        for target in zip(*map(getitem, tables, states)):  # one tuple per letter
            if target not in ids:
                ids[target] = len(order)
                order.append(target)
            row.append(ids[target])
        rows.append(tuple(row))
    product = Dfa(
        alphabet=alphabet,
        n_states=len(order),
        initial=0,
        transitions=tuple(rows),
        finals=frozenset(
            i for i, states in enumerate(order)
            if join(q in dfa.finals for dfa, q in zip(dfas, states))
        ),
        labels=tuple("(" + ",".join(map(str, states)) + ")" for states in order),
    )
    return product, tuple(order)


def tuple_product_fold(dfas, disjunction=False) -> Dfa:
    dfas = list(dfas)
    if len(dfas) == 1:
        return dfas[0]
    return minimize(tuple_product(dfas, disjunction)[0])
