"""Letters and tokens keep their values and order.

``Alphabet.letters()`` builds a prop alphabet's letters by doubling; the
result must be the mask definition, letter ``mask`` holding ``props[j]``
for each set bit j, because every transition table's columns follow
it.  The tokenizer's tokens keep the ``kind``, ``text`` and ``pos``
that both parsers read, and syntax errors keep their offsets.
"""
from itertools import compress, product

import pytest

import ldlmon.syntax.alphabet as alphabet_module
from ldlmon.syntax import Alphabet, parse_ldlf, parse_ltlf, parse_prop, parse_re
from ldlmon.syntax.alphabet import MAX_PROPS
from ldlmon.syntax.parser import FormulaSyntaxError, _tokenize

import reference_parser as ref


@pytest.mark.parametrize("n", range(1, 11))
def test_prop_letters_follow_the_mask_definition(n):
    props = tuple(f"p{j}" for j in range(n))
    letters = Alphabet(props).letters()
    assert letters == tuple(
        frozenset(props[j] for j in range(n) if mask >> j & 1) for mask in range(1 << n)
    )


def test_task_letters_are_the_singletons_in_task_order():
    tasks = Alphabet.tasks(["pay", "acc", "get"])
    assert tasks.letters() == (frozenset({"pay"}), frozenset({"acc"}), frozenset({"get"}))


def test_columns_over_maps_each_letter_to_its_column_over_the_support():
    """Over a 4-prop alphabet and every support (each subset, in alphabet
    order), each letter maps to the index in ``letters_over(support)`` of
    its props in the support; over every prop, of 1 to 10, that is its
    index in ``letters()``, and over a task alphabet each task maps to
    its own index.  A second call returns the same dict."""
    props = ("p", "q", "r", "s")
    alphabet = Alphabet(props)
    supports = [tuple(compress(props, bits)) for bits in product((0, 1), repeat=len(props))]
    assert len(set(supports)) == 16
    for support in supports:
        over = alphabet.letters_over(support)
        columns = alphabet.columns_over(support)
        assert list(columns) == list(alphabet.letters())
        assert columns == {letter: over.index(letter & set(support)) for letter in columns}
        assert alphabet.columns_over(support) is columns
    for n in range(1, 11):
        wide = Alphabet(tuple(f"p{j}" for j in range(n)))
        assert wide.columns_over(wide.props) == {
            letter: mask for mask, letter in enumerate(wide.letters())}
    tasks = Alphabet.tasks(["pay", "acc", "get"])
    columns = tasks.columns_over(tasks.props)
    assert columns == {frozenset({t}): i for i, t in enumerate(["pay", "acc", "get"])}
    assert tasks.columns_over(tasks.props) is columns


def test_too_many_props_raise_before_any_letter_is_built(monkeypatch):
    def no_letters(*_):
        raise AssertionError("a letter was built")

    assert len(Alphabet.tasks([f"t{j}" for j in range(25)]).letters()) == 25
    monkeypatch.setattr(alphabet_module, "frozenset", no_letters, raising=False)
    wide = Alphabet(tuple(f"p{j}" for j in range(MAX_PROPS + 1)))
    with pytest.raises(ValueError, match=f"at most {MAX_PROPS} props"):
        wide.letters()
    assert "_letters" not in wide.__dict__


def test_tokens_keep_kind_text_and_position():
    tokens = _tokenize("<(a; !b)*>tt -> [c?]ff")
    assert [(t.kind, t.text, t.pos) for t in tokens] == [
        ("op", "<", 0), ("op", "(", 1), ("name", "a", 2), ("op", ";", 3),
        ("op", "!", 5), ("name", "b", 6), ("op", ")", 7), ("op", "*", 8),
        ("op", ">", 9), ("name", "tt", 10), ("op", "->", 13), ("op", "[", 16),
        ("name", "c", 17), ("op", "?", 18), ("op", "]", 19), ("name", "ff", 20),
        ("eof", "", 22),
    ]


def test_the_reference_parser_reads_the_same_tokens():
    abc = Alphabet.of("a", "b", "c")
    text = "<(a; !b)*>tt -> [c?]ff"
    assert ref.parse("ldlf", text, abc) == parse_ldlf(text, abc)


PARSERS = {"ldlf": parse_ldlf, "ltlf": parse_ltlf, "re": parse_re, "prop": parse_prop}

# (entry point, text, offset, message) as the tokenizer's dataclass
# tokens reported them.
MALFORMED = [
    ("ldlf", "", 0, "expected an LDLf formula"),
    ("ldlf", "<a", 2, "expected '>', found 'end of input'"),
    ("ldlf", "<a>", 3, "expected an LDLf formula"),
    ("ldlf", "[a]ff)", 5, "unexpected trailing input ')'"),
    ("ldlf", "a && ", 5, "expected an LDLf formula"),
    ("ldlf", "<(a;b)*>x", 8, "unknown proposition name 'x'"),
    ("ldlf", "tt # ff", 3, "unexpected character '#'"),
    ("ldlf", "<true>tt ff", 9, "unexpected trailing input 'ff'"),
    ("ldlf", "[end]ff", 1, "reserved word 'end' is not a proposition"),
    ("ldlf", "<a;>tt", 3, "expected a path expression"),
    ("ltlf", "a U", 3, "expected an LTLf formula"),
    ("ltlf", "X (a", 4, "expected ')', found 'end of input'"),
    ("ltlf", "G F", 3, "expected an LTLf formula"),
    ("ltlf", "a && d", 5, "unknown proposition name 'd'"),
    ("ltlf", "(a || b))", 8, "unexpected trailing input ')'"),
    ("ltlf", "a U U b", 4, "reserved word 'U' is not a proposition"),
    ("ltlf", "true @ a", 5, "unexpected character '@'"),
    ("ltlf", "X", 1, "expected an LTLf formula"),
    ("re", "a ;", 3, "expected a path expression"),
    ("re", "(a + b", 3, "expected ')', found '+'"),
    ("re", "a**)", 3, "unexpected trailing input ')'"),
    ("re", "a ; ; b", 4, "expected a path expression"),
    ("re", "<a>tt", 0, "expected a propositional formula"),
    ("prop", "a &&", 4, "expected a propositional formula"),
    ("prop", "!", 1, "expected a propositional formula"),
    ("prop", "a b", 2, "unexpected trailing input 'b'"),
    ("prop", "end", 0, "reserved word 'end' is not a proposition"),
    ("prop", "(a", 2, "expected ')', found 'end of input'"),
]


@pytest.mark.parametrize("entry, text, pos, message", MALFORMED)
def test_syntax_errors_keep_their_offsets(entry, text, pos, message):
    with pytest.raises(FormulaSyntaxError) as caught:
        PARSERS[entry](text, Alphabet.of("a", "b", "c"))
    assert caught.value.pos == pos
    assert str(caught.value) == f"{message} (at offset {pos})"
