from functools import reduce

import pytest
from hypothesis import given, strategies as st

from moncatkit.terms import (
    BULLET,
    UNIT,
    Leaf,
    MagmaTerm,
    Pair,
    TermSyntaxError,
    attach_labels,
    collapse,
    forget_parens,
    is_shape,
    leaf_count,
    left_comb,
    mag,
    parse_entries,
    parse_term,
    render_term,
    shapes_with_leaves,
    split,
)

B = Leaf(BULLET)


def sh(text: str) -> MagmaTerm:
    return parse_term(text.replace("*", BULLET))


terms_strategy = st.deferred(
    lambda: st.one_of(
        st.just(UNIT),
        st.sampled_from("xyz").map(Leaf),
        st.tuples(nonunit_terms, nonunit_terms).map(lambda ab: Pair(*ab)),
    )
)
nonunit_terms = st.deferred(
    lambda: st.one_of(
        st.sampled_from("xyz").map(Leaf),
        st.tuples(nonunit_terms, nonunit_terms).map(lambda ab: Pair(*ab)),
    )
)


class TestLeafCount:
    def test_five_bullet_example(self):
        assert leaf_count(sh("((* *) ((* *) *))")) == 5

    def test_paper_shape(self):
        assert leaf_count(sh("(((* *) *) (* *))")) == 5

    def test_unit(self):
        assert leaf_count(UNIT) == 0

    def test_pair_of_leaves(self):
        assert leaf_count(Pair(Leaf("x"), Leaf("y"))) == 2


class TestForgetParens:
    def test_in_order(self):
        assert forget_parens(parse_term("((x y) z)")) == ("x", "y", "z")

    def test_unit(self):
        assert forget_parens(UNIT) == ()

    def test_leaf(self):
        assert forget_parens(Leaf("x")) == ("x",)


class TestCollapse:
    def test_relabels(self):
        assert collapse(parse_term("(x (y z))")) == sh("(* (* *))")

    def test_unit(self):
        assert collapse(UNIT) is UNIT

    def test_leaf(self):
        assert collapse(Leaf("x")) == B


class TestLeftComb:
    def test_three(self):
        assert left_comb(3) == sh("((* *) *)")

    def test_zero(self):
        assert left_comb(0) is UNIT

    def test_one(self):
        assert left_comb(1) == B

    def test_five_matches_fold(self):
        # independent oracle: a plain fold-left over five fresh bullets
        expected = reduce(Pair, [Leaf(BULLET) for _ in range(4)], Leaf(BULLET))
        assert left_comb(5) == expected
        assert render_term(left_comb(5)) == render_term(expected)


class TestSplit:
    def test_paper_example(self):
        assert split(sh("(((* *) *) (* *))")) == (sh("((* *) *)"), sh("(* *)"))

    def test_two_leaves(self):
        assert split(sh("(* *)")) == (B, B)

    def test_symmetric(self):
        assert split(sh("((* *) (* *))")) == (sh("(* *)"), sh("(* *)"))

    @pytest.mark.parametrize("bad", [UNIT, Leaf("x")])
    def test_undecomposable(self, bad):
        with pytest.raises(ValueError):
            split(bad)


class TestGrammar:
    def test_pair(self):
        assert parse_term("((x y) z)") == Pair(Pair(Leaf("x"), Leaf("y")), Leaf("z"))

    def test_unit_literal(self):
        assert parse_term("1") is not None and parse_term("1") == UNIT

    def test_round_trip(self):
        text = "(x (y z))"
        assert render_term(parse_term(text)) == text

    def test_dense_bullets(self):
        assert parse_term(f"({BULLET}{BULLET})") == Pair(B, B)

    @pytest.mark.parametrize(
        "bad,pos",
        [("(x", 2), ("x)", 1), ("(x y z)", 5), ("", 0), ("()", 1)],
    )
    def test_errors_carry_position(self, bad, pos):
        with pytest.raises(TermSyntaxError) as err:
            parse_term(bad)
        assert err.value.position == pos

    @pytest.mark.parametrize(
        "text, pos", [("x,(y", 4), ("x, (y z", 7), (" x ,  (x", 8), ("(x y)),z", 5), ("x,", 2)]
    )
    def test_entry_errors_count_within_the_whole_text(self, text, pos):
        with pytest.raises(TermSyntaxError) as err:
            parse_entries(parse_term, text)
        assert err.value.position == pos
        assert str(err.value).endswith(f"(at position {pos})")

    def test_entries_are_stripped(self):
        assert parse_entries(parse_term, " x , (y z)") == (Leaf("x"), parse_term("(y z)"))

    def test_unit_below_pair_rejected(self):
        with pytest.raises(ValueError):
            Pair(UNIT, Leaf("x"))
        with pytest.raises(ValueError):
            parse_term("(1 x)")


class TestUnitalProduct:
    def test_unit_absorbs(self):
        t = parse_term("(x y)")
        assert mag(UNIT, t) == t
        assert mag(t, UNIT) == t

    def test_pairs_otherwise(self):
        assert mag(Leaf("x"), Leaf("y")) == Pair(Leaf("x"), Leaf("y"))


class TestEnumeration:
    def test_catalan_counts(self):
        assert [len(shapes_with_leaves(n)) for n in range(7)] == [1, 1, 1, 2, 5, 14, 42]

    def test_all_distinct_and_sized(self):
        for n in range(6):
            shapes = shapes_with_leaves(n)
            assert len(set(shapes)) == len(shapes)
            assert all(leaf_count(s) == n for s in shapes)

    def test_canonical_order(self):
        rendered = [render_term(s) for s in shapes_with_leaves(4)]
        assert rendered == sorted(rendered)


class TestAttachLabels:
    def test_round_trip_with_collapse(self):
        term = parse_term("((x y) (z x))")
        assert attach_labels(collapse(term), forget_parens(term)) == term

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            attach_labels(sh("(* *)"), ("x",))


@given(terms_strategy)
def test_word_length_is_leaf_count(t):
    assert len(forget_parens(t)) == leaf_count(t)
    assert leaf_count(collapse(t)) == leaf_count(t)


@given(nonunit_terms)
def test_split_sections_pair(t):
    if leaf_count(t) > 1:
        left, right = split(t)
        assert Pair(left, right) == t
        assert leaf_count(left) >= 1 and leaf_count(right) >= 1
        assert leaf_count(left) + leaf_count(right) == leaf_count(t)


@given(terms_strategy)
def test_render_parse_round_trip(t):
    assert parse_term(render_term(t)) == t


@given(st.integers(min_value=0, max_value=8))
def test_left_comb_word_length(n):
    labels = tuple(f"g{i}" for i in range(n))
    if n == 0:
        assert left_comb(0) is UNIT
    else:
        assert forget_parens(attach_labels(left_comb(n), labels)) == labels


def reference_word(t: MagmaTerm) -> tuple:
    """In-order leaf labels by walking the tree, ignoring the word a term carries."""
    if isinstance(t, Leaf):
        return (t.label,)
    if isinstance(t, Pair):
        return reference_word(t.left) + reference_word(t.right)
    return ()


def assert_word_agrees(t: MagmaTerm):
    word = reference_word(t)
    assert forget_parens(t) == word
    assert leaf_count(t) == t.leaf_count() == len(word)
    assert is_shape(t) == all(label == BULLET for label in word)


X, Y, Z = Leaf("x"), Leaf("y"), Leaf("z")

CONSTRUCTED = {
    "leaf": Leaf("x"),
    "bullet": B,
    "pair": Pair(X, Pair(B, Z)),
    "mag-unit-unit": mag(UNIT, UNIT),
    "mag-unit-left": mag(UNIT, X),
    "mag-unit-right": mag(Pair(X, Y), UNIT),
    "mag-pairs": mag(mag(X, B), mag(Y, Z)),
    "parse-unit": parse_term("1"),
    "parse": parse_term("((x •) (y (z x)))"),
    "attach-unit": attach_labels(UNIT, ()),
    "attach": attach_labels(sh("(* (* *))"), ("x", BULLET, "z")),
    "collapse-unit": collapse(UNIT),
    "collapse": collapse(parse_term("((x y) (z x))")),
    **{f"left-comb-{n}": left_comb(n) for n in range(5)},
    **{f"shape-{n}-{i}": s for n in range(6) for i, s in enumerate(shapes_with_leaves(n))},
}


@pytest.mark.parametrize("t", CONSTRUCTED.values(), ids=CONSTRUCTED.keys())
def test_word_agrees_with_tree_walk(t):
    assert_word_agrees(t)


@given(terms_strategy, terms_strategy)
def test_word_agrees_with_tree_walk_under_mag(a, b):
    for t in (a, mag(a, b), mag(b, a), collapse(mag(a, b))):
        assert_word_agrees(t)
