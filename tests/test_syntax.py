"""Parsing, printing, and the formula transformations."""
import functools
import random

import pytest
from hypothesis import given, settings, strategies as st

from ldlmon.automata import compile_dfa
from ldlmon.syntax import (
    Alphabet,
    And,
    Box,
    Diamond,
    END,
    FormulaSyntaxError,
    LAST,
    Not,
    Star,
    Step,
    TT,
    FF,
    Test as PathTest,
    formula_atoms,
    ltlf_to_ldlf,
    parse_ldlf,
    parse_ltlf,
    parse_prop,
    parse_re,
    print_ldlf,
    print_ltlf,
    print_path,
    print_prop,
    prop_formula,
    re_to_ldlf,
    scan_names,
    subterms,
    to_nnf,
)
from ldlmon.syntax import ldl, ltl
from ldlmon.syntax.props import (
    PROP_OPS, Atom, PropAnd, PropNot, PropOr, TRUE, eval_prop, prop_atoms,
)

from oracles import is_nnf
from genformulas import random_ldlf, random_ltlf, random_prop

AB = Alphabet.of("a", "b")


def test_alphabet_rejects_reserved_and_bad_names():
    with pytest.raises(ValueError):
        Alphabet.of("true")
    with pytest.raises(ValueError):
        Alphabet.of("end")
    with pytest.raises(ValueError):
        Alphabet.of("2fast")
    with pytest.raises(ValueError):
        Alphabet.of("a", "a")
    # A string in place of the props is refused: kept as it is, it makes
    # ``"ab" in alphabet`` a substring test; split, it names "a" and "b".
    with pytest.raises(TypeError, match="not the string 'ab'"):
        Alphabet("ab")
    with pytest.raises(TypeError, match="not the string 'ab'"):
        Alphabet.tasks("ab")


def test_alphabet_letters_general_and_tasks():
    assert AB.letters() == (
        frozenset(),
        frozenset({"a"}),
        frozenset({"b"}),
        frozenset({"a", "b"}),
    )
    tasks = Alphabet.tasks(["pay", "acc"])
    assert tasks.letters() == (frozenset({"pay"}), frozenset({"acc"}))
    with pytest.raises(ValueError):
        tasks.check_letter(frozenset({"pay", "acc"}))
    with pytest.raises(ValueError):
        tasks.check_letter(frozenset({"nope"}))
    # Filled caches change neither equality nor hashing.
    fresh = Alphabet.tasks(("pay", "acc"))
    assert tasks.columns_over(tasks.props) and tasks == fresh and hash(tasks) == hash(fresh)
    assert tasks != Alphabet.of("pay", "acc")
    # A list of props is stored as a tuple, so it keys the compile memo.
    listed = Alphabet(["a", "b"])
    assert listed == AB and listed.props == ("a", "b")
    formula = parse_ldlf("<a><b>tt", listed)
    assert compile_dfa(formula, listed) == compile_dfa(formula, AB)


def test_prop_parsing_precedence():
    phi = parse_prop("a || b && !a", AB)
    assert phi == PropOr(Atom("a"), PropAnd(Atom("b"), PropNot(Atom("a"))))


def test_prop_implication_desugars():
    phi = parse_prop("a -> b", AB)
    assert phi == PropOr(PropNot(Atom("a")), Atom("b"))


def test_ldlf_bare_atom_is_modal():
    assert parse_ldlf("a", AB) == prop_formula(Atom("a"))


def test_ldlf_end_and_last_identities():
    assert parse_ldlf("end", AB) == END
    assert parse_ldlf("last", AB) == LAST
    assert parse_ldlf("[true]ff", AB) == END
    assert print_ldlf(END) == "end"
    assert print_ldlf(LAST) == "last"


def test_ldlf_modalities_and_tests():
    f = parse_ldlf("<a;true*>(b && end)", AB)
    assert isinstance(f, Diamond)
    g = parse_ldlf("[(a)?;true]ff", AB)
    assert isinstance(g, Box)
    assert isinstance(g.path.left, PathTest)


def test_path_star_and_alt_grouping():
    p = parse_re("(a + b);a*", AB)
    assert print_path(p) == "(a + b);a*"
    q = parse_re("a + b;a*", AB)
    assert print_path(q) == "a + b;a*"
    assert p != q


def test_test_versus_guard_disambiguation():
    guard = parse_re("(a && b)", AB)
    assert guard == Step(PropAnd(Atom("a"), Atom("b")))
    test = parse_re("(a && b)?", AB)
    assert isinstance(test, PathTest)
    eps = parse_re("tt?", AB)
    assert eps == PathTest(TT)


def test_unknown_name_reports_offset():
    with pytest.raises(FormulaSyntaxError) as exc:
        parse_ldlf("<a>c", AB)
    assert exc.value.pos == 3
    with pytest.raises(FormulaSyntaxError) as exc2:
        parse_ltlf("F zz", AB)
    assert exc2.value.pos == 2


def test_trailing_garbage_rejected():
    with pytest.raises(FormulaSyntaxError):
        parse_ldlf("tt tt", AB)
    with pytest.raises(FormulaSyntaxError):
        parse_re("a;", AB)


def test_ltlf_operator_precedence():
    f = parse_ltlf("a -> b U !a", AB)
    assert f == ltl.LtlfImplies(
        ltl.LtlfProp(Atom("a")),
        ltl.Until(ltl.LtlfProp(Atom("b")), ltl.LtlfNot(ltl.LtlfProp(Atom("a")))),
    )
    g = parse_ltlf("X a U b", AB)
    assert g == ltl.Until(ltl.Next(ltl.LtlfProp(Atom("a"))), ltl.LtlfProp(Atom("b")))


def test_ltlf_until_right_associative():
    f = parse_ltlf("a U b U a", AB)
    assert f == ltl.Until(
        ltl.LtlfProp(Atom("a")),
        ltl.Until(ltl.LtlfProp(Atom("b")), ltl.LtlfProp(Atom("a"))),
    )


def test_scan_names_skips_keywords():
    assert scan_names("G(pay -> F get)") == ["pay", "get"]
    assert scan_names("<true*>(a && tt)") == ["a"]


def test_nnf_pushes_negation_through_modalities():
    f = parse_ldlf("!<a>tt", AB)
    n = to_nnf(f)
    assert n == Box(Step(Atom("a")), FF)
    assert is_nnf(n)
    g = to_nnf(parse_ldlf("![a*]ff", AB))
    assert g == Diamond(Star(Step(Atom("a"))), TT)
    assert is_nnf(g)


def test_nnf_fixpoint():
    rng = random.Random(7)
    for _ in range(200):
        f = random_ldlf(rng, ["a", "b"])
        n = to_nnf(f)
        assert is_nnf(n)
        assert to_nnf(n) == n
        assert to_nnf(n) is n


def test_ltlf_translation_shapes():
    """The exact LDLf tree of every LTLf operator over two atoms: X, F
    and U are modalities over ``true`` steps guarded by ``!end``; WX, G
    and R are their duals, and -> and <-> are written with ! and ||."""
    a, b = ltl.LtlfProp(Atom("a")), ltl.LtlfProp(Atom("b"))
    da, db = prop_formula(Atom("a")), prop_formula(Atom("b"))
    step, not_end = Step(TRUE), Not(END)
    for f, expected in [
        (a, Diamond(Step(Atom("a")), TT)),
        (ltl.LtlfNot(a), Not(da)),
        (ltl.LtlfAnd(a, b), And(da, db)),
        (ltl.LtlfOr(a, b), ldl.Or(da, db)),
        (ltl.LtlfImplies(a, b), ldl.Or(Not(da), db)),
        (ltl.LtlfIff(a, b), And(ldl.Or(Not(da), db), ldl.Or(Not(db), da))),
        (ltl.Next(a), Diamond(step, And(da, not_end))),
        (ltl.WeakNext(a), Not(Diamond(step, And(Not(da), not_end)))),
        (ltl.Eventually(a), Diamond(Star(step), And(da, not_end))),
        (ltl.Always(a), Not(Diamond(Star(step), And(Not(da), not_end)))),
        (
            ltl.Until(a, b),
            Diamond(Star(ldl.Seq(PathTest(da), step)), And(db, not_end)),
        ),
        (
            ltl.Release(a, b),
            Not(
                Diamond(
                    Star(ldl.Seq(PathTest(Not(da)), step)),
                    And(Not(db), not_end),
                )
            ),
        ),
    ]:
        assert ltlf_to_ldlf(f) == expected, print_ltlf(f)
    with pytest.raises(TypeError, match="not an LTLf formula"):
        ltlf_to_ldlf(da)
    with pytest.raises(TypeError, match="not an LTLf formula"):
        ltlf_to_ldlf(ltl.Next(da))


def test_ltlf_chains_keep_their_shape():
    """Chains keep their shape, and API-built formulas nested thousands
    deep translate: each deep result is checked by walking it in a loop,
    since ``==`` and ``repr`` recurse."""
    abcd = Alphabet.of("a", "b", "c", "d")
    for text in (
        "(a && (b && c)) && ((d || a) || (b || (c || d)))",
        "a || (b && (c || (d && a)))",
        "((a && b) && c) && d",
    ):
        assert ltlf_to_ldlf(parse_ltlf(text, abcd)) == parse_ldlf(text, abcd)
    a, b = ltl.LtlfProp(Atom("a")), ltl.LtlfProp(Atom("b"))
    da, db = prop_formula(Atom("a")), prop_formula(Atom("b"))
    chain = a
    for _ in range(3000):
        chain = ltl.LtlfAnd(chain, b)
    translated = ltlf_to_ldlf(chain)
    for _ in range(3000):
        assert translated.right == db
        translated = translated.left
    assert translated == da

    not_end = Not(END)
    nexts = a
    for _ in range(5000):
        nexts = ltl.Next(nexts)
    translated = ltlf_to_ldlf(nexts)
    for _ in range(5000):
        assert type(translated) is Diamond and translated.path == Step(TRUE)
        assert type(translated.arg) is And and translated.arg.right == not_end
        translated = translated.arg.left
    assert translated == da

    nots = a
    for _ in range(5000):
        nots = ltl.LtlfNot(nots)
    translated = ltlf_to_ldlf(nots)
    for _ in range(5000):
        assert type(translated) is Not
        translated = translated.arg
    assert translated == da

    untils = b
    for _ in range(3000):
        untils = ltl.Until(a, untils)
    translated = ltlf_to_ldlf(untils)
    until_path = Star(ldl.Seq(PathTest(da), Step(TRUE)))
    for _ in range(3000):
        assert type(translated) is Diamond and translated.path == until_path
        assert type(translated.arg) is And and translated.arg.right == not_end
        translated = translated.arg.left
    assert translated == db


def test_nodes_hash_without_deep_recursion_to_the_same_values():
    """A node's hash is the hash of the tuple of its fields, however deep
    the node: a 5,000-deep chain and a 2,000-level DAG of shared halves
    hash without RecursionError."""

    def assert_hash_of_fields(n):
        fields = tuple(getattr(n, name) for name in n._fields)
        assert hash(n) == hash(fields)

    leaf = prop_formula(Atom("a"))
    chain = leaf
    for _ in range(5000):
        chain = And(leaf, Not(chain))
    for n in subterms(chain):
        assert_hash_of_fields(n)
    shared = leaf
    for _ in range(2000):
        shared = And(shared, shared)
    while shared is not leaf:
        assert_hash_of_fields(shared)
        shared = shared.left
    rng = random.Random(29)
    for _ in range(50):
        for n in subterms(random_ldlf(rng, ["a", "b"], depth=4, star_depth=2)):
            assert_hash_of_fields(n)
        assert_hash_of_fields(random_prop(rng, ["a", "b"], depth=4))


def test_wide_prop_chains_evaluate_and_list_atoms_without_deep_recursion():
    """A 3,000-term ``||`` (and ``&&``) chain nests 3,000 deep down its
    grouping side; evaluating it and listing its atoms walk that side in
    a loop."""
    names = [f"p{i}" for i in range(3000)]
    disjunction = functools.reduce(PropOr, map(Atom, names))
    conjunction = functools.reduce(PropAnd, map(Atom, names))
    assert prop_atoms(disjunction) == prop_atoms(conjunction) == frozenset(names)
    assert eval_prop(disjunction, frozenset({"p0"}))
    assert eval_prop(disjunction, frozenset({"p2999"}))
    assert not eval_prop(disjunction, frozenset({"q"}))
    assert eval_prop(conjunction, frozenset(names))
    assert not eval_prop(conjunction, frozenset(names[1:]))
    assert not eval_prop(conjunction, frozenset(names[:-1]))
    # Chains of the other class as operands are walked the same way.
    mixed = PropOr(PropNot(conjunction), PropAnd(disjunction, Atom("q")))
    assert eval_prop(mixed, frozenset({"q", "p7"}))
    assert not eval_prop(mixed, frozenset(names))
    assert prop_atoms(mixed) == frozenset([*names, "q"])


def test_nodes_are_immutable_and_take_exactly_their_fields():
    with pytest.raises(TypeError, match="Atom takes 1 fields, not 2"):
        Atom("a", "b")
    with pytest.raises(TypeError, match="And takes 2 fields, not 1"):
        And(TT)
    node = Atom("a")
    with pytest.raises(AttributeError, match="cannot assign to field 'name' of an immutable node"):
        node.name = "b"
    with pytest.raises(AttributeError, match="cannot delete field 'name' of an immutable node"):
        del node.name
    assert node == Atom("a") and hash(node) == hash(("a",))


@pytest.mark.parametrize("walk, kind", [
    (print_ldlf, "an LDLf formula"),
    (print_path, "a path expression"),
    (print_ltlf, "an LTLf formula"),
    (print_prop, "a propositional formula"),
    (lambda f: eval_prop(f, frozenset()), "a propositional formula"),
    (prop_atoms, "a propositional formula"),
], ids=["print_ldlf", "print_path", "print_ltlf", "print_prop", "eval_prop", "prop_atoms"])
def test_walks_over_nodes_refuse_a_non_node(walk, kind):
    with pytest.raises(TypeError, match=f"not {kind}: 'a'"):
        walk("a")

def test_regex_translation_rejects_embedded_tests():
    path = parse_re("a;(b)?", AB)
    with pytest.raises(ValueError):
        re_to_ldlf(path)
    ok = re_to_ldlf(parse_re("a;tt?;b*", AB))
    assert isinstance(ok, Diamond)


class TestRoundTrips:
    """print and parse are mutual inverses on ASTs."""

    def test_ldlf_random(self):
        rng = random.Random(11)
        for _ in range(300):
            f = random_ldlf(rng, ["a", "b"], depth=3, star_depth=2)
            assert parse_ldlf(print_ldlf(f), AB) == f

    def test_prop_random(self):
        rng = random.Random(13)
        for _ in range(300):
            phi = random_prop(rng, ["a", "b"], depth=3)
            assert parse_prop(print_prop(phi), AB) == phi

    def test_ltlf_random_atomic_payloads(self):
        rng = random.Random(17)
        for _ in range(300):
            f = random_ltlf(rng, ["a", "b"], depth=3)
            f = _atomize(f)
            assert parse_ltlf(print_ltlf(f), AB) == f


# Each layer's binary classes, three distinct operands and its printer
# and parser.
LAYERS = {
    "prop": (PROP_OPS, [Atom(n) for n in "abc"], print_prop, parse_prop),
    "ldlf": (
        ldl.LDLF_OPS,
        [prop_formula(Atom(n)) for n in "abc"],
        print_ldlf,
        parse_ldlf,
    ),
    "path": (ldl.PATH_OPS, [Step(Atom(n)) for n in "abc"], print_path, parse_re),
    "ltlf": (ltl.LTLF_OPS, [ltl.LtlfProp(Atom(n)) for n in "abc"], print_ltlf, parse_ltlf),
}
ABC = Alphabet.of("a", "b", "c")


@pytest.mark.parametrize("layer", sorted(LAYERS))
def test_every_operator_pair_round_trips(layer):
    """Both nestings of every ordered pair of a layer's binary operators
    print and reparse to the same tree."""
    ops, (x, y, z), show, parse = LAYERS[layer]
    classes = [cls for _, cls, _ in ops.values()]
    for outer in classes:
        for inner in classes:
            for tree in (outer(inner(x, y), z), outer(x, inner(y, z))):
                assert parse(show(tree), ABC) == tree, show(tree)


def test_every_ltlf_prefix_round_trips_over_every_binary_operator():
    x, y = ltl.LtlfProp(Atom("a")), ltl.LtlfProp(Atom("b"))
    for prefix in ltl.LTLF_PREFIXES.values():
        for _, binary, _ in ltl.LTLF_OPS.values():
            for tree in (prefix(binary(x, y)), binary(prefix(x), y), binary(x, prefix(y))):
                assert parse_ltlf(print_ltlf(tree), AB) == tree, print_ltlf(tree)


def test_printed_spacing_and_parentheses():
    a, b, c = (Step(Atom(n)) for n in "abc")
    assert print_path(ldl.Seq(a, b)) == "a;b"
    assert print_path(ldl.Alt(a, b)) == "a + b"
    assert print_path(ldl.Seq(ldl.Alt(a, b), c)) == "(a + b);c"
    assert print_path(ldl.Alt(a, ldl.Alt(b, c))) == "a + (b + c)"
    assert print_path(Star(ldl.Seq(a, b))) == "(a;b)*"
    pa, pb, pc = (Atom(n) for n in "abc")
    assert print_prop(PropAnd(PropOr(pa, pb), PropNot(pc))) == "(a || b) && !c"
    fa, fb = prop_formula(pa), prop_formula(pb)
    assert print_ldlf(Not(And(fa, fb))) == "!(<a>tt && <b>tt)"
    la, lb, lc = (ltl.LtlfProp(n) for n in (pa, pb, pc))
    assert print_ltlf(ltl.Until(la, ltl.Until(lb, lc))) == "a U b U c"
    assert print_ltlf(ltl.Until(ltl.Until(la, lb), lc)) == "(a U b) U c"
    assert print_ltlf(ltl.LtlfImplies(ltl.LtlfIff(la, lb), lc)) == "(a <-> b) -> c"
    assert print_ltlf(ltl.WeakNext(ltl.LtlfNot(ltl.LtlfAnd(la, lb)))) == "WX !(a && b)"
    assert print_ltlf(ltl.Release(ltl.Eventually(la), ltl.LtlfOr(lb, lc))) == "F a R (b || c)"


def test_a_chain_of_one_operator_prints_in_one_loop():
    """A chain down its operator's grouping side prints without one call
    per operand: 3,000 left-nested disjuncts print as their join, as do
    3,000 right-nested ``U`` operands, and the chain's operands and the
    chain itself keep their parentheses."""
    atoms = [Atom(f"p{j}") for j in range(3000)]
    assert print_prop(functools.reduce(PropOr, atoms)) == " || ".join(a.name for a in atoms)
    props = [ltl.LtlfProp(a) for a in atoms]
    until = functools.reduce(lambda right, left: ltl.Until(left, right), props[-2::-1], props[-1])
    assert print_ltlf(until) == " U ".join(a.name for a in atoms)
    pa, pb, pc = (Atom(n) for n in "abc")
    assert print_prop(PropNot(PropAnd(PropAnd(PropOr(pa, pb), pc), pa))) == "!((a || b) && c && a)"
    assert print_prop(PropOr(PropOr(pa, PropOr(pb, pc)), pa)) == "a || (b || c) || a"


def _atomize(f):
    """Compound propositional payloads parse back as formula-level
    connectives, so round-trip checks stick to atomic ones."""
    if isinstance(f, ltl.LtlfProp):
        leaves = [TRUE, Atom("a"), Atom("b")]
        index = len(print_prop(f.prop)) % len(leaves)
        return ltl.LtlfProp(leaves[index])
    if isinstance(f, (ltl.LtlfNot, ltl.Next, ltl.WeakNext, ltl.Eventually, ltl.Always)):
        return type(f)(_atomize(f.arg))
    return type(f)(_atomize(f.left), _atomize(f.right))


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_ldlf_roundtrip_hypothesis(data):
    seed = data.draw(st.integers(min_value=0, max_value=10**9))
    rng = random.Random(seed)
    f = random_ldlf(rng, ["a", "b"], depth=4, star_depth=2)
    text = print_ldlf(f)
    assert parse_ldlf(text, AB) == f
    assert print_ldlf(parse_ldlf(text, AB)) == text


def test_formula_atoms_collects_everything():
    f = parse_ldlf("<a*;(b)?>(a && end)", AB)
    assert formula_atoms(f) == frozenset({"a", "b"})
