"""The one formula traversal: ``rewrite``, ``subterms`` and the
transformations built on them, against hand-written reference walkers."""
import random

import pytest

from ldlmon.syntax import (
    Alphabet,
    formula_atoms,
    parse_ldlf,
    print_ldlf,
    prop_atoms,
    rewrite,
    subterms,
    to_nnf,
)
from ldlmon.syntax import ldl

from genformulas import random_ldlf, random_raw_ldlf
from oracles import is_nnf
from reference_delta import FalseMark, TrueMark

AB = Alphabet.of("a", "b")
NAMES = ("a", "b", "c")


# Reference walkers: one isinstance branch per node class. ---------------


def ref_nnf(f):
    if isinstance(f, (ldl.Tt, ldl.Ff)):
        return f
    if isinstance(f, ldl.And):
        return ldl.And(ref_nnf(f.left), ref_nnf(f.right))
    if isinstance(f, ldl.Or):
        return ldl.Or(ref_nnf(f.left), ref_nnf(f.right))
    if isinstance(f, ldl.Diamond):
        return ldl.Diamond(ref_nnf_path(f.path), ref_nnf(f.arg))
    if isinstance(f, ldl.Box):
        return ldl.Box(ref_nnf_path(f.path), ref_nnf(f.arg))
    if isinstance(f, ldl.Not):
        return ref_nnf_neg(f.arg)
    raise ValueError(f)


def ref_nnf_neg(f):
    if isinstance(f, ldl.Tt):
        return ldl.FF
    if isinstance(f, ldl.Ff):
        return ldl.TT
    if isinstance(f, ldl.Not):
        return ref_nnf(f.arg)
    if isinstance(f, ldl.And):
        return ldl.Or(ref_nnf_neg(f.left), ref_nnf_neg(f.right))
    if isinstance(f, ldl.Or):
        return ldl.And(ref_nnf_neg(f.left), ref_nnf_neg(f.right))
    if isinstance(f, ldl.Diamond):
        return ldl.Box(ref_nnf_path(f.path), ref_nnf_neg(f.arg))
    if isinstance(f, ldl.Box):
        return ldl.Diamond(ref_nnf_path(f.path), ref_nnf_neg(f.arg))
    raise ValueError(f)


def ref_nnf_path(p):
    if isinstance(p, ldl.Step):
        return p
    if isinstance(p, ldl.Test):
        return ldl.Test(ref_nnf(p.cond))
    if isinstance(p, ldl.Alt):
        return ldl.Alt(ref_nnf_path(p.left), ref_nnf_path(p.right))
    if isinstance(p, ldl.Seq):
        return ldl.Seq(ref_nnf_path(p.left), ref_nnf_path(p.right))
    return ldl.Star(ref_nnf_path(p.body))


def ref_nodes(f):
    """Every formula and path node, in a pre-order list."""
    kids = {
        ldl.Step: (),
        ldl.Tt: (),
        ldl.Ff: (),
        ldl.Test: ("cond",),
        ldl.Star: ("body",),
        ldl.Not: ("arg",),
        TrueMark: ("loop",),
        FalseMark: ("loop",),
        ldl.Diamond: ("path", "arg"),
        ldl.Box: ("path", "arg"),
    }.get(type(f), ("left", "right"))
    out = [f]
    for name in kids:
        out.extend(ref_nodes(getattr(f, name)))
    return out


# Differential tests. ----------------------------------------------------


def test_to_nnf_matches_the_reference_walker():
    rng = random.Random(41)
    for i in range(600):
        f = random_raw_ldlf(rng, NAMES) if i % 2 else random_ldlf(rng, NAMES)
        want = ref_nnf(f)
        assert to_nnf(f) == want, print_ldlf(f)
        assert is_nnf(want)
        assert is_nnf(f) == (f == want)


def test_subterms_and_atoms_match_the_reference_walker():
    rng = random.Random(47)
    for _ in range(500):
        f = random_raw_ldlf(rng, NAMES, markers=True)
        nodes = ref_nodes(f)
        assert sorted(map(id, subterms(f))) == sorted(map(id, nodes))
        steps = [n.guard for n in nodes if isinstance(n, ldl.Step)]
        assert formula_atoms(f) == frozenset().union(*map(prop_atoms, steps))


# The rewrite contract. ---------------------------------------------------


def test_rewrite_keeps_untouched_subtrees():
    rng = random.Random(53)
    for _ in range(200):
        f = random_raw_ldlf(rng, NAMES, markers=True)
        assert rewrite(f, lambda n: n) is f
        flipped = rewrite(f, lambda n: ldl.FF if isinstance(n, ldl.Tt) else n)
        for old, new in zip(ref_nodes(f), ref_nodes(flipped)):
            if not any(isinstance(n, ldl.Tt) for n in ref_nodes(old)):
                assert new is old


def test_rewrite_applies_the_rule_bottom_up():
    f = parse_ldlf("<a*>(b && !<(tt)?>ff)", AB)
    seen = []
    rewrite(f, lambda n: seen.append(n) or n)
    assert seen[-1] is f
    for i, n in enumerate(seen):
        assert all(m in seen[:i] for m in ref_nodes(n)[1:])
    assert len(seen) == len(ref_nodes(f))


def test_to_nnf_rejects_non_formulas():
    with pytest.raises(TypeError):
        to_nnf(ldl.EPSILON_PATH)
