"""The NFA stage walks each obligation once, under every letter class and
the empty remainder together, and reads acceptance off that walk.

Every member's acceptance must agree with the reference empty-remainder
evaluation, and the states, tables and labels must not move: the NFA's
JSON and labels and the minimal DFA's labels hash to the values pinned
before the walk was shared.  Labels are what ``ldlmon compile --format
dot`` prints as tooltips; the table digests leave them out.

The DFA label pins were taken again when ``product_fold`` became one
walk over tuples of operand states: a compile whose top is an ``And`` or
``Or`` chain of three or more operands names its states ``(q1,...,qn)``
now, as the tuple product of ``reference_product`` does, which
``label_hashes`` checks; no other compile's labels moved.
"""
import hashlib
import random

from ldlmon.automata import _nfa_classes, aut_to_json, compile_dfa, ldlf_to_nfa
from ldlmon.syntax import Alphabet, ldl
from ldlmon.syntax.transforms import ltlf_to_ldlf

import reference_delta as ref
import reference_product as product
from genformulas import random_ldlf, random_ltlf
from table_digests import perfbench_formulas

NAMES = ("a", "b", "c")
PROPS = Alphabet.of("a", "b", "c", "d")
TASKS = Alphabet.tasks(["a", "b", "c", "d"])

# sha256 prefixes of the NFA JSON and labels, taken before acceptance
# rode the class walk, and of the minimal DFA labels, taken when the
# product fold became one tuple walk.
PINS = {
    "genformulas": ("3b203a1675c3e57d", "1678100204c1ef76"),
    "perfbench formulas": ("a54afb43dfca0340", "3eeea0ffc7f7706a"),
}


def genformula_cases():
    """200 seeded formulas over three names, each on a prop alphabet and
    on a task alphabet of four."""
    rng = random.Random(3101)
    for index in range(200):
        if index % 2:
            formula = random_ldlf(rng, NAMES)
        else:
            formula = ltlf_to_ldlf(random_ltlf(rng, NAMES))
        yield formula, PROPS
        yield formula, TASKS


def check_acceptance(formula, alphabet):
    """Each member's acceptance, read off the walk ``_nfa_classes`` caches,
    is the reference ``delta_epsilon``; a macro-state accepts when all
    of its members do."""
    _, order, _, _, accepts = _nfa_classes(formula, alphabet)
    for macro in order:
        at_end = [ref.delta_epsilon(member) for member in macro]
        for member, expected in zip(macro, at_end):
            assert accepts(frozenset((member,))) == expected, member
        assert accepts(macro) == all(at_end)


def chain_operands(formula):
    """The operands ``compile_dfa`` folds for the formula, under any
    negations, and whether they are disjoined; no operands when the top
    is no ``And``/``Or`` chain."""
    while isinstance(formula, ldl.Not):
        formula = formula.arg
    kind, operands, pending = type(formula), [], [formula]
    while kind in (ldl.And, ldl.Or) and pending:
        f = pending.pop()
        if isinstance(f, kind):
            pending += [f.right, f.left]
        else:
            operands.append(f)
    return operands, kind is ldl.Or


def label_hashes(cases):
    nfa_hash, dfa_hash = hashlib.sha256(), hashlib.sha256()
    for formula, alphabet in cases:
        check_acceptance(formula, alphabet)
        nfa = ldlf_to_nfa(formula, alphabet)
        nfa_hash.update(aut_to_json(nfa).encode())
        nfa_hash.update("\n".join(nfa.labels).encode() + b"\n\n")
        dfa = compile_dfa(formula, alphabet)
        operands, disjunction = chain_operands(formula)
        if len(operands) >= 3:
            dfas = [compile_dfa(f, alphabet) for f in operands]
            assert dfa.labels == product.tuple_product_fold(dfas, disjunction).labels
        dfa_hash.update("\n".join(dfa.labels).encode() + b"\n\n")
    return nfa_hash.hexdigest()[:16], dfa_hash.hexdigest()[:16]


def test_genformulas_accept_as_the_reference_and_keep_their_labels():
    assert label_hashes(genformula_cases()) == PINS["genformulas"]


def test_perfbench_formulas_accept_as_the_reference_and_keep_their_labels():
    assert label_hashes(perfbench_formulas()) == PINS["perfbench formulas"]
