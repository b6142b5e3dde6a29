"""Reads ``aut_to_json`` output back, trusting it: tests only, no checks."""
import json

from ldlmon.automata import Dfa, Nfa
from ldlmon.syntax import Alphabet


def aut_from_json(text):
    """The automaton and the colors (``None`` if absent) of a payload."""
    p = json.loads(text)
    alphabet = Alphabet(tuple(p["props"]), singleton_letters=p["singleton_letters"])
    dfa = p["kind"] == "dfa"
    columns = {letter: column for column, letter in enumerate(alphabet.letters())}
    rows = [[None if dfa else frozenset() for _ in columns] for _ in range(p["n_states"])]
    for source, letter, target in p["transitions"]:
        cells, column = rows[source], columns[frozenset(letter)]
        cells[column] = target if dfa else cells[column] | {target}
    table = tuple(map(tuple, rows))
    aut = (Dfa if dfa else Nfa)(alphabet, p["n_states"], p["initial"], table, frozenset(p["finals"]))
    return aut, p.get("colors")
