"""The one structural-arrow engine against the recursions it replaced.

``theta_factors`` used to peel one entry per recursion and ``rho_factors``
to split the term and call it again; both are kept here, verbatim in
behaviour, as the reference.  The engine must reproduce their factor
lists exactly (kind, arguments and paddings), since the CLI prints them.
The two construction tensors are checked against their former formulas:
conjugation by ``theta`` for sequences, and for shaped sequences the plain
base tensor, conjugated by a unitor when a factor is empty.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from moncatkit.core import Factor, Morphism, compose_factors, invert_factors, render_factor
from moncatkit.nonstrictify import (
    EMPTY_Q,
    NonStrictifiedModel,
    QObject,
    par_q,
    q_model,
    qobjs_over,
    star_q_arrows,
    star_q_objects,
)
from moncatkit.strictify import (
    EMPTY_SEQ,
    StrictifiedModel,
    StrObject,
    coherence_factors,
    par_seq,
    rho_factors,
    seq_word,
    seqs_over,
    star_arrows,
    star_objects,
    str_model,
    theta_factors,
)
from moncatkit.terms import UNIT, Leaf, forget_parens, leaf_count, mag

SETTINGS = settings(max_examples=150, deadline=None)


# -- the former recursions, kept as the reference ------------------------------------


def reference_theta_factors(model, s, t):
    s, t = tuple(s), tuple(t)
    if not s:
        return [Factor("l", (par_seq(model, t),))]
    if not t:
        return [Factor("r", (par_seq(model, s),))]
    if len(t) == 1:
        return []
    front, last = t[:-1], t[-1]
    inner = reference_theta_factors(model, s, front)
    step = Factor("a_inv", (par_seq(model, s), par_seq(model, front), last))
    return [step] + [factor.wrap_right(last) for factor in inner]


def reference_rho_factors(model, term):
    if leaf_count(term) <= 1:
        return []
    left, right = term.left, term.right
    left_word, right_word = seq_word(forget_parens(left)), seq_word(forget_parens(right))
    factors = [factor.wrap_right(right) for factor in reference_rho_factors(model, left)]
    factors += [factor.wrap_left(par_seq(model, left_word)) for factor in reference_rho_factors(model, right)]
    factors += reference_theta_factors(model, left_word, right_word)
    return factors


def reference_coherence_factors(model, source, target):
    if source == target:
        return []
    back = [factor.inverted() for factor in reversed(reference_rho_factors(model, target))]
    return reference_rho_factors(model, source) + back


def assert_same_factors(model, got, expected):
    assert got == expected  # kind, args and wraps, factor by factor
    assert [render_factor(model, f) for f in got] == [render_factor(model, f) for f in expected]


# -- strategies -------------------------------------------------------------------------


def bracket(draw, leaves):
    """A random bracketing of the given leaves (the unit when there are none)."""

    def build(lo, hi):
        if hi - lo == 1:
            return leaves[lo]
        cut = draw(st.integers(lo + 1, hi - 1))
        return mag(build(lo, cut), build(cut, hi))

    return build(0, len(leaves)) if leaves else UNIT


@st.composite
def thin3_terms(draw, max_leaves):
    word = draw(st.lists(st.sampled_from("xyz"), max_size=max_leaves))
    return bracket(draw, [Leaf(x) for x in word])


@st.composite
def two_bracketings(draw, max_leaves):
    word = draw(st.lists(st.sampled_from("xyz"), max_size=max_leaves))
    leaves = [Leaf(x) for x in word]
    return bracket(draw, leaves), bracket(draw, leaves)


NS2_SEQS = st.lists(st.sampled_from(["I", "A"]), max_size=8)
THIN3_ENTRY_SEQS = st.lists(thin3_terms(3).filter(lambda term: term != UNIT), max_size=8)


# -- factor lists ---------------------------------------------------------------------------


class TestEngineAgainstReference:
    @SETTINGS
    @given(term=thin3_terms(24))
    def test_rho_on_thin3_bracketings(self, thin3, term):
        assert_same_factors(thin3, rho_factors(thin3, term), reference_rho_factors(thin3, term))

    @SETTINGS
    @given(pair=two_bracketings(24))
    def test_coherence_on_thin3_bracketings(self, thin3, pair):
        source, target = pair
        got = coherence_factors(thin3, source, target)
        assert_same_factors(thin3, got, reference_coherence_factors(thin3, source, target))

    @SETTINGS
    @given(s=NS2_SEQS, t=NS2_SEQS)
    def test_theta_on_ns2_sequences(self, ns2, s, t):
        got = theta_factors(ns2, StrObject(tuple(s)), StrObject(tuple(t)))
        assert_same_factors(ns2, got, reference_theta_factors(ns2, s, t))

    @SETTINGS
    @given(s=THIN3_ENTRY_SEQS, t=THIN3_ENTRY_SEQS)
    def test_theta_on_thin3_entry_sequences(self, thin3, s, t):
        got = theta_factors(thin3, StrObject(tuple(s)), StrObject(tuple(t)))
        assert_same_factors(thin3, got, reference_theta_factors(thin3, s, t))

    @pytest.mark.parametrize("m, n", [(0, 0), (0, 8), (8, 0), (1, 1), (8, 8), (3, 7)])
    def test_theta_at_the_size_edges(self, ns2, m, n):
        s, t = ("A",) * m, ("I", "A") * (n // 2) + ("A",) * (n % 2)
        assert_same_factors(ns2, theta_factors(ns2, s, t), reference_theta_factors(ns2, s, t))

    def test_invert_factors_reverses_and_inverts(self):
        factors = [Factor("a", ("x", "y", "z")), Factor("l", ("x",), (("R", "y"),))]
        assert invert_factors(factors) == [Factor("l_inv", ("x",), (("R", "y"),)), Factor("a_inv", ("x", "y", "z"))]


# -- the construction tensors ---------------------------------------------------------------


def reference_star_arrows(model, f, g):
    """The former strict tensor: the base tensor conjugated by theta."""
    theta_cod = compose_factors(
        model, reference_theta_factors(model, f.cod, g.cod), model.tensor_obj(par_seq(model, f.cod), par_seq(model, g.cod))
    )
    back = [factor.inverted() for factor in reversed(reference_theta_factors(model, f.dom, g.dom))]
    theta_dom_inv = compose_factors(model, back, par_seq(model, star_objects(f.dom, g.dom)))
    return model.compose(theta_cod, model.compose(model.tensor_mor(f.payload, g.payload), theta_dom_inv))


def reference_iota(model, o, p):
    if o.seq and p.seq:
        return model.identity(model.tensor_obj(par_q(model, o), par_q(model, p)))
    if not o.seq:
        return model.lunitor_inv(par_q(model, p))
    return model.runitor_inv(par_q(model, o))


def reference_iota_inv(model, o, p):
    if o.seq and p.seq:
        return model.identity(model.tensor_obj(par_q(model, o), par_q(model, p)))
    if not o.seq:
        return model.lunitor(par_q(model, p))
    return model.runitor(par_q(model, o))


def reference_star_q_arrows(model, f, g):
    """The former shaped tensor: the plain base tensor, or a unitor conjugate for an empty factor."""
    if f.dom.seq and g.dom.seq and f.cod.seq and g.cod.seq:
        return model.tensor_mor(f.payload, g.payload)
    return model.compose(
        reference_iota_inv(model, f.cod, g.cod),
        model.compose(model.tensor_mor(f.payload, g.payload), reference_iota(model, f.dom, g.dom)),
    )


def construction_arrows(wrapped, objects):
    return [f for o in objects for p in objects for f in wrapped.hom(o, p)]


def sampled_arrows(model, objects, seed):
    """mat7 arrows between construction objects: sampled payloads between their products."""
    rng = random.Random(seed)
    out = []
    for o in objects:
        for p in objects:
            dom, cod = par_q(model, o), par_q(model, p)
            for payload in model.sample_morphisms([dom, cod], rng):
                if payload.dom == dom and payload.cod == cod:
                    out.append(Morphism(o, p, payload))
    return out


def check_tensor_agrees(model, arrows, tensor, reference, join):
    assert arrows
    for f in arrows:
        for g in arrows:
            got = tensor(model, f, g)
            assert got.dom == join(f.dom, g.dom) and got.cod == join(f.cod, g.cod)
            assert model.mor_eq(got.payload, reference(model, f, g))


class TestTensorsAgainstFormerFormulas:
    def test_strict_tensor_over_ns2(self, ns2):
        seqs = seqs_over(["I", "A"], 2)
        one_unit = StrObject(("I",))
        assert str_model(ns2).hom(one_unit, EMPTY_SEQ) and str_model(ns2).hom(EMPTY_SEQ, one_unit)
        arrows = construction_arrows(str_model(ns2), seqs)
        check_tensor_agrees(ns2, arrows, star_arrows, reference_star_arrows, star_objects)

    def test_shaped_tensor_over_ns2(self, ns2):
        qobjs = qobjs_over(["I", "A"], 2)
        assert EMPTY_Q in qobjs
        one_unit = QObject.comb(("I",))
        assert q_model(ns2).hom(one_unit, EMPTY_Q) and q_model(ns2).hom(EMPTY_Q, one_unit)
        arrows = construction_arrows(q_model(ns2), qobjs)
        check_tensor_agrees(ns2, arrows, star_q_arrows, reference_star_q_arrows, star_q_objects)

    def test_both_tensors_over_thin3(self, thin3):
        # thin compositions check their endpoints, so a factor inverted by
        # mistake raises here even where ns2 cannot tell a from its inverse
        entries = [Leaf("x"), Leaf("y"), mag(Leaf("x"), Leaf("y"))]
        arrows = construction_arrows(str_model(thin3), seqs_over(entries, 3))
        check_tensor_agrees(thin3, arrows[::2], star_arrows, reference_star_arrows, star_objects)
        arrows = construction_arrows(q_model(thin3), qobjs_over(entries, 3))
        check_tensor_agrees(thin3, arrows, star_q_arrows, reference_star_q_arrows, star_q_objects)

    def test_strict_tensor_over_mat7(self, mat7):
        arrows = sampled_arrows(mat7, seqs_over([1, 2], 2), seed=3)
        check_tensor_agrees(mat7, arrows[::3], star_arrows, reference_star_arrows, star_objects)

    def test_shaped_tensor_over_mat7(self, mat7):
        arrows = sampled_arrows(mat7, qobjs_over([1, 2], 3), seed=5)
        check_tensor_agrees(mat7, arrows[::3], star_q_arrows, reference_star_q_arrows, star_q_objects)

    def test_both_constructions_share_one_tensor(self):
        assert star_arrows is star_q_arrows
        assert StrictifiedModel.tensor_mor is NonStrictifiedModel.tensor_mor
