"""Letter-by-letter references for reachability, minimization and the
product fold.  None runs a kernel stage of ``automata``: they read
``Dfa`` and ``Nfa`` tables one letter at a time.

``reachable`` walks a state's edges breadth first.  ``minimize`` is
Moore's refinement over the reachable states, letter by letter, the
per-letter construction that ``automata.minimize`` replaced: its blocks
are numbered breadth first, each with its first state's row and label.

``automata.product_fold`` walks the tuples of its operands' states once,
at class level, collapses the tuples that a rejecting (for a
disjunction, accepting) absorbing component decides, and refines the
class rows in place.  Two references check it:

- ``product_fold``, the pairwise fold it replaced: the ``tuple_product``
  of the folded automaton and the next operand, minimized as a DFA of
  its own.  Its tables, finals and colors must come out byte for
  byte, and with two operands its ``(i,j)`` labels too; with more, its
  labels name states of intermediate DFAs.
- ``tuple_product_fold``: the product over the tuples of the operands'
  states, walked letter by letter with no tuple collapsed, minimized by
  ``minimize``.  Its labels define the rule: a state is labelled
  ``(q1,...,qn)`` after the first tuple of its block.

``tuple_product`` is the one unminimized product of the tests: the
references above, the test products, criterion 9's pair tables and
``oracles.language_equal`` all walk it.
"""
from collections import deque
from operator import getitem

from ldlmon.automata import Dfa

from genformulas import column_rows, edges, letter_rows


def reachable(aut, state):
    seen = {state}
    queue = deque((state,))
    while queue:
        for _, target in edges(aut, queue.popleft()):
            if target not in seen:
                seen.add(target)
                queue.append(target)
    return frozenset(seen)


def minimize(dfa):
    letters = dfa.alphabet.letters()
    columns = {letter: index for index, letter in enumerate(letters)}
    table = letter_rows(dfa)
    states = sorted(reachable(dfa, dfa.initial))
    block = {s: (1 if s in dfa.finals else 0) for s in states}
    while True:
        signatures = {
            s: (
                block[s],
                tuple(block[table[s][columns[letter]]] for letter in letters),
            )
            for s in states
        }
        renumber: dict = {}
        for s in states:
            sig = signatures[s]
            if sig not in renumber:
                renumber[sig] = len(renumber)
        next_block = {s: renumber[signatures[s]] for s in states}
        if next_block == block:
            break
        block = next_block
    start = block[dfa.initial]
    ids = {start: 0}
    order = [start]
    representative = {}
    for s in states:
        representative.setdefault(block[s], s)
    transitions: dict = {}
    queue = deque((start,))
    while queue:
        blk = queue.popleft()
        rep = representative[blk]
        row = {}
        for letter in letters:
            target = block[table[rep][columns[letter]]]
            if target not in ids:
                ids[target] = len(order)
                order.append(target)
                queue.append(target)
            row[letter] = ids[target]
        transitions[ids[blk]] = row
    finals = frozenset(ids[blk] for blk in order if representative[blk] in dfa.finals)
    labels = tuple(
        dfa.labels[representative[blk]] if dfa.labels else "" for blk in order
    )
    return Dfa(
        alphabet=dfa.alphabet,
        n_states=len(order),
        initial=0,
        transitions=column_rows(dfa.alphabet, transitions),
        finals=finals,
        labels=labels if dfa.labels else (),
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
    tables = [letter_rows(dfa) for dfa in dfas]
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
