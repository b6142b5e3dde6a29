"""The precedence-climbing parser against the speculative one it replaced.

``reference_parser`` keeps the earlier parser, which told path tests,
guards and groups apart by trying each reading and rewinding.  On every
text the two must build equal trees or both raise FormulaSyntaxError.
"""
import random
import time

from ldlmon.syntax import (
    Alphabet,
    FormulaSyntaxError,
    parse_ldlf,
    parse_ltlf,
    parse_prop,
    parse_re,
    print_ldlf,
    print_ltlf,
    print_path,
    print_prop,
)
from ldlmon.syntax.parser import _tokenize

import reference_parser as ref
from genformulas import random_ldlf, random_ltlf, random_path, random_prop

AB = Alphabet.of("a", "b")

PARSERS = {"prop": parse_prop, "ldlf": parse_ldlf, "ltlf": parse_ltlf, "re": parse_re}

# Every operator token, the alphabet's names, an unknown name and every
# reserved word: the material of the token mutations.
VOCABULARY = (
    "<-> -> && || ! ( ) < > [ ] ? * + ; a b c "
    "tt ff end last true false X WX U R F G"
).split()


def _printed(rng, layer):
    names = ["a", "b"]
    if layer == "prop":
        return print_prop(random_prop(rng, names, depth=3))
    if layer == "ldlf":
        return print_ldlf(random_ldlf(rng, names, depth=4, star_depth=2))
    if layer == "ltlf":
        return print_ltlf(random_ltlf(rng, names, depth=3))
    return print_path(random_path(rng, names, 4, 2))


_BINARY = ("&&", "||", "->", "<->")


def _mutated(rng, text):
    """``text`` after one to three token edits: a token deleted, inserted
    or substituted, a formula connective swapped for another (which keeps
    a formula a formula), or a matched pair of parentheses removed (which
    bares compound guards and tests)."""
    tokens = [token.text for token in _tokenize(text)[:-1]]
    for _ in range(rng.randint(1, 3)):
        k = rng.randrange(len(tokens))
        roll = rng.randrange(5)
        if roll == 0 and len(tokens) > 1:
            del tokens[k]
        elif roll == 1:
            tokens.insert(k + rng.randint(0, 1), rng.choice(VOCABULARY))
        elif roll == 2:
            tokens[k] = rng.choice(VOCABULARY)
        elif roll == 3:
            binary = [j for j, t in enumerate(tokens) if t in _BINARY]
            if binary:
                tokens[rng.choice(binary)] = rng.choice(_BINARY)
        else:
            pairs, opened = [], []
            for j, t in enumerate(tokens):
                if t == "(":
                    opened.append(j)
                elif t == ")" and opened:
                    pairs.append((opened.pop(), j))
            if pairs and len(tokens) > 2:
                left, right = rng.choice(pairs)
                del tokens[right], tokens[left]
    return " ".join(tokens)


def _outcome(parse, text):
    try:
        return parse(text)
    except FormulaSyntaxError:
        return FormulaSyntaxError


def test_parser_agrees_with_the_speculative_reference():
    # Each text is read in its own layer and as a regex, so that every
    # layer's formulas also meet the path-atom decision as guards.
    rng = random.Random(1010)
    accepted = rejected = 0
    for i in range(10000):
        layer = ("prop", "ldlf", "ltlf", "re")[i % 4]
        text = _printed(rng, layer)
        if i % 8 >= 4:
            text = _mutated(rng, text)
        for reading in dict.fromkeys((layer, "re")):
            got = _outcome(lambda t: PARSERS[reading](t, AB), text)
            want = _outcome(lambda t: ref.parse(reading, t, AB), text)
            assert got == want, (reading, text)
            if got is FormulaSyntaxError:
                rejected += 1
            else:
                accepted += 1
    assert accepted > 8000 and rejected > 5000, (accepted, rejected)


def nested_tests(k):
    """A regex with ``k`` tests nested in one another, 190 characters at
    k = 17: the speculative parser needs time exponential in ``k``."""
    text = "a;b"
    for _ in range(k):
        text = "((<" + text + ">tt)?;b)"
    return text


def test_nested_tests_parse_in_well_under_two_seconds():
    # The speculative parser needs about 20 s at k = 17 and 3 s at k = 16.
    text = nested_tests(17)
    assert len(text) == 190
    started = time.perf_counter()
    path = parse_re(text, AB)
    assert time.perf_counter() - started < 2.0
    assert parse_re(print_path(path), AB) == path
    small = nested_tests(4)
    assert parse_re(small, AB) == ref.parse("re", small, AB)
