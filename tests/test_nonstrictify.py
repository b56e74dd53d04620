import pytest

from moncatkit.core import (
    CompositionError,
    check_hexagon,
    check_monoidal_nat,
    check_naturality,
    check_pentagon,
    check_triangle,
    check_unit_squares,
    compose_functors,
    identity_functor,
    identity_nat,
)
from moncatkit.models import FreeThinModel, validate_category
from moncatkit.nonstrictify import (
    EMPTY_Q,
    QObject,
    assoc_q,
    assoc_q_inv,
    beta_q,
    beta_q_inv,
    delta_q,
    embed_j,
    embed_j_functor,
    embed_j_mor,
    eta_q,
    lift_nat_nonstrict,
    lift_nonstrict,
    par_q,
    q_functor,
    q_model,
    q_nat,
    qobjs_over,
    realise_tilde_q,
    seq_q,
    seq_term_functor,
    star_q_arrows,
    star_q_objects,
    unit_uq,
)
from moncatkit.terms import BULLET, UNIT, Leaf, mag, parse_term, shapes_with_leaves

B = Leaf(BULLET)


def sh(text):
    return parse_term(text.replace("*", BULLET))


def q_arrows(model, objs):
    wrapped = q_model(model)
    return [f for o in objs for p in objs for f in wrapped.hom(o, p)]


@pytest.fixture(scope="module")
def ns2_qobjs(ns2):
    return qobjs_over(["I", "A"], 2)


class TestParQ:
    def test_five_entry_example(self):
        # shape ((**)*)(**): the parenthesization follows the tree exactly
        model = FreeThinModel(generators=("a", "b", "c", "d", "e"), name="thin5")
        entries = tuple(Leaf(x) for x in "abcde")
        obj = QObject(entries, sh("(((* *) *) (* *))"))
        assert par_q(model, obj) == model.parse_obj("(((a b) c) (d e))")

    def test_empty_pair_is_unit(self, ns2):
        assert par_q(ns2, EMPTY_Q) == "I"

    def test_singleton(self, ns2):
        assert par_q(ns2, embed_j("A")) == "A"

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            QObject(("X",), sh("(* *)"))

    def test_labeled_tree_rejected_as_shape(self):
        with pytest.raises(ValueError):
            QObject(("X", "Y"), parse_term("(x y)"))

    @pytest.mark.parametrize(
        "entries, shape", [((), "1"), (("A",), "x"), (("A",), None)], ids=["str-unit", "str-leaf", "none"]
    )
    def test_foreign_shape_rejected(self, entries, shape):
        with pytest.raises(ValueError, match="bullet term"):
            QObject(entries, shape)


class TestParseObj:
    def test_term_gives_entries_and_shape(self, ns2):
        assert q_model(ns2).parse_obj("(A (I A))") == QObject(("A", "I", "A"), parse_term("(• (• •))"))

    def test_unit_term_is_the_empty_object(self, ns2):
        assert q_model(ns2).parse_obj("1") == EMPTY_Q

    def test_foreign_entry_is_the_base_models_error(self, mat7):
        with pytest.raises(CompositionError, match="objects are integers"):
            q_model(mat7).parse_obj("(2 x)")


class TestStarQ:
    def test_concat_and_pair(self, ns2):
        left = embed_j("A")
        right = embed_j("I")
        joined = star_q_objects(left, right)
        assert joined == QObject(("A", "I"), B * B)

    def test_unit_absorbs(self, ns2, ns2_qobjs):
        for o in ns2_qobjs:
            assert star_q_objects(o, EMPTY_Q) == o
            assert star_q_objects(EMPTY_Q, o) == o

    def test_par_is_tensor_homomorphism(self, ns2, ns2_qobjs):
        for o in ns2_qobjs:
            for p in ns2_qobjs:
                assert par_q(ns2, star_q_objects(o, p)) == ns2.tensor_obj(
                    par_q(ns2, o), par_q(ns2, p)
                )

    def test_arrow_payload_is_plain_tensor(self, ns2, ns2_qobjs):
        # the literal tensor formula; well-typed exactly on nonempty factors
        arrows = [f for f in q_arrows(ns2, ns2_qobjs[:5]) if f.dom.seq and f.cod.seq]
        for f in arrows:
            for g in arrows:
                star = star_q_arrows(ns2, f, g)
                assert ns2.mor_eq(star.payload, ns2.tensor_mor(f.payload, g.payload))

    def test_empty_factor_pairing_is_unitor_conjugate(self, ns2, ns2_qobjs):
        wrapped = q_model(ns2)
        unit_id = wrapped.identity(EMPTY_Q)
        for o in ns2_qobjs:
            if not o.seq:
                continue
            f = wrapped.identity(o)
            right = star_q_arrows(ns2, f, unit_id)
            par = par_q(ns2, o)
            expected = ns2.compose(ns2.runitor(par), ns2.runitor_inv(par))
            assert right.dom == o and right.cod == o
            assert ns2.mor_eq(right.payload, expected)
            left = star_q_arrows(ns2, unit_id, f)
            assert ns2.mor_eq(
                left.payload, ns2.compose(ns2.lunitor(par), ns2.lunitor_inv(par))
            )

    def test_identity_and_interchange(self, ns2, ns2_qobjs):
        wrapped = q_model(ns2)
        objs = ns2_qobjs[:5]
        for o in objs:
            for p in objs:
                lhs = star_q_arrows(ns2, wrapped.identity(o), wrapped.identity(p))
                assert wrapped.mor_eq(lhs, wrapped.identity(star_q_objects(o, p)))
        arrows = q_arrows(ns2, objs)
        composable = [(g, f) for g in arrows for f in arrows if f.cod == g.dom]
        for g, f in composable[:40]:
            for g2, f2 in composable[:40]:
                lhs = star_q_arrows(ns2, wrapped.compose(g, f), wrapped.compose(g2, f2))
                rhs = wrapped.compose(star_q_arrows(ns2, g, g2), star_q_arrows(ns2, f, f2))
                assert wrapped.mor_eq(lhs, rhs)


class TestAssocQ:
    def test_payload_is_ambient_component(self, ns2, ns2_qobjs):
        nonempty = [o for o in ns2_qobjs[:6] if o.seq]
        for o in nonempty:
            for p in nonempty:
                for q in nonempty:
                    arrow = assoc_q(ns2, o, p, q)
                    expected = ns2.associator(par_q(ns2, o), par_q(ns2, p), par_q(ns2, q))
                    assert ns2.mor_eq(arrow.payload, expected)

    def test_unit_triples_collapse_to_identity(self, ns2, ns2_qobjs):
        # forced by the triangle: the unitors of the construction are identities
        for o in ns2_qobjs[:5]:
            for p in ns2_qobjs[:5]:
                arrow = assoc_q(ns2, o, EMPTY_Q, p)
                assert arrow.dom == arrow.cod == star_q_objects(o, p)
                assert ns2.mor_eq(arrow.payload, ns2.identity(par_q(ns2, arrow.dom)))

    def test_endpoints_differ_for_nonempty_triples(self, mat7):
        o = embed_j(2)
        arrow = assoc_q(mat7, o, o, o)
        assert arrow.dom != arrow.cod
        assert arrow.dom.shape == sh("((* *) *)")
        assert arrow.cod.shape == sh("(* (* *))")

    def test_inverse(self, ns2, ns2_qobjs):
        wrapped = q_model(ns2)
        for o in ns2_qobjs[:4]:
            for p in ns2_qobjs[:4]:
                for q in ns2_qobjs[:4]:
                    fwd = assoc_q(ns2, o, p, q)
                    back = assoc_q_inv(ns2, o, p, q)
                    assert wrapped.mor_eq(wrapped.compose(back, fwd), wrapped.identity(fwd.dom))
                    assert wrapped.mor_eq(wrapped.compose(fwd, back), wrapped.identity(fwd.cod))

    def test_pentagon_and_triangle_transfer(self, ns2, ns2_qobjs):
        wrapped = q_model(ns2)
        objs = ns2_qobjs[:5]
        for o in objs:
            for p in objs:
                assert check_triangle(wrapped, o, p)
                for q in objs:
                    for r in objs[:3]:
                        assert check_pentagon(wrapped, o, p, q, r)

    def test_unitors_are_identities_but_not_associator(self, mat7):
        wrapped = q_model(mat7)
        o = embed_j(3)
        assert wrapped.mor_eq(wrapped.lunitor(o), wrapped.identity(o))
        assert wrapped.mor_eq(wrapped.runitor(o), wrapped.identity(o))
        a = wrapped.associator(o, o, o)
        assert a.dom != a.cod
        assert not wrapped.is_strict


class TestEmbedJ:
    def test_par_after_embed(self, ns2):
        for x in ns2.objects():
            assert par_q(ns2, embed_j(x)) == x
        for f in ns2.morphisms():
            assert ns2.mor_eq(embed_j_mor(f).payload, f)

    def test_delta_q_identity_payload_and_naturality(self, ns2, ns2_qobjs):
        wrapped = q_model(ns2)
        for o in ns2_qobjs:
            d = delta_q(ns2, o)
            assert ns2.mor_eq(d.payload, ns2.identity(par_q(ns2, o)))
        for f in q_arrows(ns2, ns2_qobjs[:5]):
            lhs = wrapped.compose(embed_j_mor(f.payload), delta_q(ns2, f.dom))
            rhs = wrapped.compose(delta_q(ns2, f.cod), f)
            assert wrapped.mor_eq(lhs, rhs)

    def test_eta_q_and_unit(self, ns2):
        arrow = eta_q(ns2, "A", "A")
        assert arrow.dom == QObject(("A", "A"), B * B)
        assert arrow.cod == embed_j("A")
        assert ns2.mor_eq(arrow.payload, ns2.identity("A"))
        u = unit_uq(ns2)
        assert u.dom == EMPTY_Q and u.cod == embed_j("I")

    def test_embedding_is_strong_monoidal(self, ns2, trivial, mat7):
        for model in (ns2, trivial, mat7):
            functor = embed_j_functor(model)
            objs = model.objects() or [1, 2, 3]
            for x in objs:
                assert check_unit_squares(functor, x)
                for y in objs:
                    for z in objs:
                        assert check_hexagon(functor, x, y, z)


class TestShapedCategoryValidates:
    def test_validate_clean_over_ns2(self, ns2, ns2_qobjs):
        report = validate_category(q_model(ns2), objects=ns2_qobjs, max_instances=2500)
        assert report.ok, report.to_text()


class TestBetaQ:
    def test_base_cases(self, fx):
        functor = fx.functors["Ftw"]
        d = functor.target
        assert d.mor_eq(beta_q(functor, EMPTY_Q), functor.u)
        assert d.mor_eq(beta_q(functor, embed_j("A")), d.identity("A"))

    def test_unfolds_to_gamma_composite(self, fx, ns2):
        # shape (* (* *)): beta is (id (x) gamma) then gamma at the outer split
        functor = fx.functors["Fm"]
        d = functor.target
        obj = QObject(("A", "A", "A"), sh("(* (* *))"))
        inner = d.tensor_mor(d.identity(functor.obj_map("A")), functor.gamma("A", "A"))
        expected = d.compose(functor.gamma("A", ns2.tensor_obj("A", "A")), inner)
        assert d.mor_eq(beta_q(functor, obj), expected)

    def test_strict_functor_identities(self, fx):
        functor = fx.functors["F1"]  # strict into ns2
        d = functor.target
        for obj in qobjs_over(["I"], 3):
            arrow = beta_q(functor, obj)
            assert d.mor_eq(arrow, d.identity(arrow.dom))

    def test_inverse(self, fx, ns2_qobjs):
        functor = fx.functors["Fm"]
        d = functor.target
        for obj in ns2_qobjs:
            fwd, back = beta_q(functor, obj), beta_q_inv(functor, obj)
            assert d.mor_eq(d.compose(fwd, back), d.identity(fwd.cod))
            assert d.mor_eq(d.compose(back, fwd), d.identity(fwd.dom))


class TestLiftNonStrict:
    def test_flag_check_with_override(self, fx):
        with pytest.raises(ValueError):
            lift_nonstrict(fx.functors["Fm"])  # matrix target is strict
        lift_nonstrict(fx.functors["Fm"], allow_strict_target=True)

    def test_factors_through_embedding(self, fx, ns2):
        functor = fx.functors["Ftw"]
        lifted = lift_nonstrict(functor)
        composite = compose_functors(lifted, embed_j_functor(ns2))
        d = functor.target
        for x in ["I", "A"]:
            assert d.obj_eq(composite.obj_map(x), functor.obj_map(x))
            for y in ["I", "A"]:
                assert d.mor_eq(composite.gamma(x, y), functor.gamma(x, y))
        for f in ns2.morphisms():
            assert d.mor_eq(composite.mor_map(f), functor.mor_map(f))
        assert d.mor_eq(composite.u, functor.u)

    def test_strict_monoidality_of_lift(self, fx, ns2, ns2_qobjs):
        functor = fx.functors["Ftw"]
        lifted = lift_nonstrict(functor)
        d = functor.target
        for o in ns2_qobjs:
            for p in ns2_qobjs:
                joined = star_q_objects(o, p)
                assert d.obj_eq(
                    lifted.obj_map(joined), d.tensor_obj(lifted.obj_map(o), lifted.obj_map(p))
                )
        # arrow-level preservation on the fragment where strictness is coherent
        # (mixed empty/nonempty endpoints need non-identity unitors in the target)
        arrows = [
            f for f in q_arrows(ns2, ns2_qobjs[:5]) if bool(f.dom.seq) == bool(f.cod.seq)
        ]
        for f in arrows:
            for g in arrows:
                lhs = lifted.mor_map(star_q_arrows(ns2, f, g))
                rhs = d.tensor_mor(lifted.mor_map(f), lifted.mor_map(g))
                assert d.mor_eq(lhs, rhs)

    def test_mutation_breaks_forced_equation(self, fx, ns2, ns2_qobjs):
        functor = fx.functors["Ftw"]
        lifted = lift_nonstrict(functor)
        d = functor.target
        wrapped = q_model(ns2)
        mutated = 0
        for o in ns2_qobjs:
            for p in ns2_qobjs:
                for f in wrapped.hom(o, p):
                    current = lifted.mor_map(f)
                    others = [
                        g for g in wrapped.hom(o, p) if not d.mor_eq(lifted.mor_map(g), current)
                    ]
                    if not others:
                        continue
                    mutated += 1
                    tampered = lifted.mor_map(others[0])
                    forced = d.compose(
                        beta_q_inv(functor, p),
                        d.compose(functor.mor_map(f.payload), beta_q(functor, o)),
                    )
                    assert d.mor_eq(current, forced)
                    assert not d.mor_eq(tampered, forced)
        assert mutated > 10


class TestLiftNatNonStrict:
    def test_restricts_to_alpha(self, fx, ns2):
        alpha = fx.nats["alpha"]
        lifted = lift_nat_nonstrict(alpha)
        for x in ["I", "A"]:
            assert ns2.mor_eq(lifted.component(embed_j(x)), alpha.component(x))
        assert ns2.mor_eq(lifted.component(EMPTY_Q), ns2.identity("I"))

    def test_natural_and_monoidal(self, fx, ns2, ns2_qobjs):
        alpha = fx.nats["alpha"]
        lifted = lift_nat_nonstrict(alpha)
        for f in q_arrows(ns2, ns2_qobjs[:6]):
            assert check_naturality(lifted, f)
        for o in ns2_qobjs[:5]:
            for p in ns2_qobjs[:5]:
                assert check_monoidal_nat(lifted, o, p)

    def test_identity_lifts_to_identity(self, fx, ns2, ns2_qobjs):
        functor = fx.functors["Ftw"]
        lifted = lift_nat_nonstrict(identity_nat(functor))
        d = functor.target
        hat = lift_nonstrict(functor)
        for o in ns2_qobjs:
            assert d.mor_eq(lifted.component(o), d.identity(hat.obj_map(o)))


class TestQFunctor:
    def test_identity_maps_to_identity(self, ns2, ns2_qobjs):
        lifted = q_functor(identity_functor(ns2))
        wrapped = q_model(ns2)
        for o in ns2_qobjs:
            assert lifted.obj_map(o) == o
        for f in q_arrows(ns2, ns2_qobjs[:6]):
            assert wrapped.mor_eq(lifted.mor_map(f), f)

    def test_composition_law(self, fx, ns2_qobjs):
        f1, f2 = fx.functors["Ftw"], fx.functors["Fm"]
        lhs = q_functor(compose_functors(f2, f1))
        rhs = compose_functors(q_functor(f2), q_functor(f1))
        target = q_model(f2.target)
        for o in ns2_qobjs:
            assert lhs.obj_map(o) == rhs.obj_map(o)
        for f in q_arrows(f1.source, ns2_qobjs[:6]):
            assert target.mor_eq(lhs.mor_map(f), rhs.mor_map(f))

    def test_preserves_star_and_shape(self, fx, ns2_qobjs):
        functor = fx.functors["Ftw"]
        lifted = q_functor(functor)
        for o in ns2_qobjs[:6]:
            assert lifted.obj_map(o).shape == o.shape
            for p in ns2_qobjs[:6]:
                assert lifted.obj_map(star_q_objects(o, p)) == star_q_objects(
                    lifted.obj_map(o), lifted.obj_map(p)
                )

    def test_q_nat_vertical_composition(self, fx, ns2, ns2_qobjs):
        from moncatkit.core import compose_nats

        alpha, beta_nat = fx.nats["alpha"], fx.nats["beta"]
        lhs = q_nat(compose_nats(beta_nat, alpha))
        rhs = compose_nats(q_nat(beta_nat), q_nat(alpha))
        wrapped = q_model(ns2)
        for o in ns2_qobjs:
            assert wrapped.mor_eq(lhs.component(o), rhs.component(o))

    def test_q_nat_components_follow_shape(self, fx, ns2):
        alpha = fx.nats["alpha"]
        lifted = q_nat(alpha)
        obj = QObject(("A", "A", "A"), sh("(* (* *))"))
        s = alpha.component("A")
        expected = ns2.tensor_mor(s, ns2.tensor_mor(s, s))
        assert ns2.mor_eq(lifted.component(obj).payload, expected)


class TestRealisationQ:
    def test_seq_of_empty(self, words3):
        assert seq_q(UNIT) == EMPTY_Q

    def test_seq_is_homomorphism(self, words3):
        terms = [UNIT, Leaf("x"), parse_term("(x y)"), parse_term("((z x) y)"), parse_term("(x (y (z x)))")]
        for v in terms:
            for w in terms:
                assert seq_q(mag(v, w)) == star_q_objects(seq_q(v), seq_q(w))

    def test_par_of_seq_is_concatenated_word(self, words3):
        term = parse_term("((x y) (z x))")
        assert par_q(words3, seq_q(term)) == ("x", "y", "z", "x")

    def test_essential_surjectivity_equalities(self, words3):
        from moncatkit.terms import attach_labels, left_comb

        # a shaped sequence of words equals the sequencing of any parenthesisation
        obj = QObject((("x", "y"), ("z",), ("x", "x")), sh("((* *) *)"))
        word = sum(obj.seq, ())
        for shape in shapes_with_leaves(len(word)):
            v = attach_labels(shape, word)
            assert par_q(words3, obj) == par_q(words3, seq_q(v))
        assert len(q_model(words3).hom(obj, seq_q(attach_labels(left_comb(len(word)), word)))) == 1

    def test_term_category_validates_nonstrict(self, words3):
        realised = realise_tilde_q(words3)
        objs = realised_terms()
        report = validate_category(realised, objects=objs, max_instances=1500)
        assert report.ok, report.to_text()
        assert not realised.is_strict

    def test_hom_transport(self, words3):
        realised = realise_tilde_q(words3)
        assert len(realised.hom(parse_term("(x y)"), parse_term("(y x)"))) == 1
        assert realised.hom(Leaf("x"), parse_term("(x y)")) == []

    def test_seq_functor_strict(self, words3):
        functor = seq_term_functor(words3)
        target = functor.target
        for v in realised_terms():
            for w in realised_terms():
                gamma = functor.gamma(v, w)
                assert gamma.dom == gamma.cod
                assert target.mor_eq(gamma, target.identity(gamma.dom))

    def test_rejects_non_word_model(self, ns2):
        with pytest.raises(ValueError):
            realise_tilde_q(ns2)


def realised_terms():
    out = [UNIT]
    for a in "xy":
        out.append(Leaf(a))
        for b in "xy":
            out.append(Leaf(a) * Leaf(b))
    out.append(parse_term("((x y) z)"))
    out.append(parse_term("(x (y z))"))
    return out


class TestDeltaQIsNaturalIso:
    def test_delta_q_inverts(self, ns2, ns2_qobjs):
        from moncatkit.nonstrictify import delta_q_inv

        wrapped = q_model(ns2)
        for o in ns2_qobjs:
            fwd, back = delta_q(ns2, o), delta_q_inv(ns2, o)
            assert wrapped.mor_eq(wrapped.compose(back, fwd), wrapped.identity(o))
            assert wrapped.mor_eq(wrapped.compose(fwd, back), wrapped.identity(fwd.cod))


class TestRealisationProperties:
    def test_seq_q_homomorphism_random_terms(self, words3):
        from hypothesis import given, strategies as st
        from moncatkit.terms import Leaf, Pair, UNIT

        labeled = st.deferred(
            lambda: st.one_of(
                st.sampled_from("xyz").map(Leaf),
                st.tuples(labeled, labeled).map(lambda ab: Pair(*ab)),
            )
        )
        terms = st.one_of(st.just(UNIT), labeled)

        @given(terms, terms)
        def check(v, w):
            assert seq_q(mag(v, w)) == star_q_objects(seq_q(v), seq_q(w))

        check()

    def test_seq_word_homomorphism_random_words(self, thin3):
        from hypothesis import given, strategies as st
        from moncatkit.strictify import seq_word, star_objects

        words = st.lists(st.sampled_from("xyz"), max_size=6).map(tuple)

        @given(words, words)
        def check(v, w):
            assert seq_word(v + w) == star_objects(seq_word(v), seq_word(w))

        check()


class TestSeqTermFunctorCoherence:
    def test_seq_term_functor_passes_functor_laws(self, words3):
        from moncatkit.terms import Leaf, parse_term

        functor = seq_term_functor(words3)
        terms = [UNIT, Leaf("x"), Leaf("y"), parse_term("(x y)"), parse_term("(z (x y))")]
        for v in terms:
            assert check_unit_squares(functor, v)
            for w in terms:
                for u in terms:
                    assert check_hexagon(functor, v, w, u)
