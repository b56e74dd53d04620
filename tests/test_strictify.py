import pytest

from moncatkit.core import (
    Morphism,
    check_hexagon,
    check_monoidal_nat,
    check_naturality,
    check_unit_squares,
    compose_functors,
    identity_functor,
    identity_nat,
)
from moncatkit.models import CategorySpecError, validate_category
from moncatkit.strictify import (
    EMPTY_SEQ,
    StrObject,
    beta,
    beta_inv,
    coherence_factors,
    delta,
    delta_inv,
    embed_functor,
    embed_i,
    embed_i_mor,
    eta,
    lift_nat_strict,
    lift_strict,
    par_seq,
    realise_tilde_str,
    rho,
    rho_factors,
    seq_word,
    seq_word_functor,
    seqs_over,
    star_arrows,
    star_objects,
    str_functor,
    str_model,
    str_nat,
    theta,
    theta_factors,
    theta_inv,
    unit_u,
)
from moncatkit.terms import BULLET, UNIT, Leaf, forget_parens, parse_term

B = Leaf(BULLET)


def str_arrows(model, seqs):
    wrapped = str_model(model)
    return [f for s in seqs for t in seqs for f in wrapped.hom(s, t)]


@pytest.fixture(scope="module")
def ns2_seqs(ns2):
    return seqs_over(["I", "A"], 2)


class TestParSeq:
    def test_empty_is_unit(self, ns2):
        assert par_seq(ns2, ()) == "I"

    def test_singleton(self, ns2):
        assert par_seq(ns2, ("A",)) == "A"

    def test_left_nesting(self, thin):
        b2 = B * B
        assert par_seq(thin, (B, b2, B)) == (B * b2) * B


class TestTheta:
    def test_left_unitor_base_case(self, ns2):
        arrow = theta(ns2, (), ("A",))
        assert ns2.mor_eq(arrow, ns2.lunitor("A"))
        arrow = theta(ns2, (), ("A", "A"))
        assert ns2.mor_eq(arrow, ns2.lunitor(par_seq(ns2, ("A", "A"))))

    def test_right_unitor_base_case(self, ns2):
        arrow = theta(ns2, ("A", "I"), ())
        assert ns2.mor_eq(arrow, ns2.runitor(par_seq(ns2, ("A", "I"))))

    def test_single_entry_is_identity(self, ns2):
        arrow = theta(ns2, ("A", "A"), ("I",))
        assert ns2.mor_eq(arrow, ns2.identity(ns2.tensor_obj("A", "I")))

    def test_empty_empty_is_left_unitor_at_unit(self, ns2):
        # the overlapping base case; safe because both unitors agree at the unit
        assert ns2.mor_eq(ns2.lunitor("I"), ns2.runitor("I"))
        assert ns2.mor_eq(theta(ns2, (), ()), ns2.lunitor("I"))

    def test_thin_oracle_two_bullet_sequences(self, thin):
        arrow = theta(thin, (B, B), (B, B))
        assert arrow.dom == (B * B) * (B * B)
        assert arrow.cod == ((B * B) * B) * B
        assert thin.mor_eq(arrow, thin.the(arrow.dom, arrow.cod))

    def test_invertible_on_fixture_sequences(self, ns2, ns2_seqs):
        for s in ns2_seqs:
            for t in ns2_seqs:
                fwd = theta(ns2, s, t)
                back = theta_inv(ns2, s, t)
                assert ns2.mor_eq(ns2.compose(fwd, back), ns2.identity(fwd.cod))
                assert ns2.mor_eq(ns2.compose(back, fwd), ns2.identity(fwd.dom))

    def test_naturality_square(self, ns2, ns2_seqs):
        arrows = str_arrows(ns2, ns2_seqs[:7])
        for f in arrows:
            for g in arrows:
                lhs = ns2.compose(
                    theta(ns2, f.cod, g.cod), ns2.tensor_mor(f.payload, g.payload)
                )
                star = star_arrows(ns2, f, g)
                rhs = ns2.compose(star.payload, theta(ns2, f.dom, g.dom))
                assert ns2.mor_eq(lhs, rhs)


class TestParseObj:
    """Sequence syntax: comma-separated base objects, with no outer brackets."""

    def test_bracketed_term_is_one_entry(self, thin3):
        assert str_model(thin3).parse_obj("(x y)") == StrObject((parse_term("(x y)"),))

    def test_commas_separate_entries(self, thin3):
        assert str_model(thin3).parse_obj("(x y),(z x)") == StrObject(
            (parse_term("(x y)"), parse_term("(z x)"))
        )

    def test_outer_brackets_are_not_stripped(self, ns2):
        with pytest.raises(CategorySpecError, match="'\\(A'"):
            str_model(ns2).parse_obj("(A,I)")

    @pytest.mark.parametrize("text", ["", " ", "1", "()"])
    def test_empty_sequence(self, ns2, text):
        assert str_model(ns2).parse_obj(text) == EMPTY_SEQ

    def test_render_round_trip(self, ns2):
        wrapped = str_model(ns2)
        assert wrapped.render_obj(wrapped.parse_obj("A, I")) == "(A,I)"
        assert wrapped.render_obj(wrapped.parse_obj("")) == "()"


class TestStarObjects:
    def test_concat(self):
        assert star_objects(StrObject(("X",)), StrObject(("Y",))) == StrObject(("X", "Y"))

    def test_unit_laws(self):
        s = StrObject(("X", "Y"))
        assert star_objects(s, EMPTY_SEQ) == s
        assert star_objects(EMPTY_SEQ, s) == s

    def test_associative(self):
        a, b, c = StrObject(("X",)), StrObject(("Y",)), StrObject(("Z",))
        assert star_objects(star_objects(a, b), c) == star_objects(a, star_objects(b, c))


class TestStarArrows:
    def test_identity_star_identity(self, ns2, ns2_seqs):
        wrapped = str_model(ns2)
        for s in ns2_seqs:
            for t in ns2_seqs:
                lhs = star_arrows(ns2, wrapped.identity(s), wrapped.identity(t))
                assert wrapped.mor_eq(lhs, wrapped.identity(star_objects(s, t)))

    def test_interchange_exhaustive(self, ns2, ns2_seqs):
        wrapped = str_model(ns2)
        seqs = ns2_seqs[:5]
        arrows = str_arrows(ns2, seqs)
        composable = [(g, f) for g in arrows for f in arrows if f.cod == g.dom]
        for g, f in composable:
            for g2, f2 in composable:
                lhs = star_arrows(ns2, wrapped.compose(g, f), wrapped.compose(g2, f2))
                rhs = wrapped.compose(star_arrows(ns2, g, g2), star_arrows(ns2, f, f2))
                assert wrapped.mor_eq(lhs, rhs)

    def test_star_with_empty_identity(self, ns2, ns2_seqs):
        wrapped = str_model(ns2)
        empty_id = wrapped.identity(EMPTY_SEQ)
        for f in str_arrows(ns2, ns2_seqs[:7]):
            assert wrapped.mor_eq(star_arrows(ns2, f, empty_id), f)
            assert wrapped.mor_eq(star_arrows(ns2, empty_id, f), f)


class TestEmbedding:
    def test_embed_unit(self, ns2):
        assert embed_i("I") == StrObject(("I",))

    def test_embed_identity_arrow(self, ns2):
        wrapped = str_model(ns2)
        assert wrapped.mor_eq(embed_i_mor(ns2.identity("A")), wrapped.identity(embed_i("A")))

    def test_par_after_embed_is_identity(self, ns2):
        for x in ns2.objects():
            assert par_seq(ns2, embed_i(x)) == x
        for f in ns2.morphisms():
            assert ns2.mor_eq(embed_i_mor(f).payload, f)

    def test_delta_has_identity_payload(self, ns2, ns2_seqs):
        for s in ns2_seqs:
            d = delta(ns2, s)
            assert ns2.mor_eq(d.payload, ns2.identity(par_seq(ns2, s)))
            assert d.cod == embed_i(par_seq(ns2, s))

    def test_delta_on_empty(self, ns2):
        d = delta(ns2, ())
        assert d.dom == EMPTY_SEQ and d.cod == embed_i("I")
        assert ns2.mor_eq(d.payload, ns2.identity("I"))

    def test_delta_naturality(self, ns2, ns2_seqs):
        wrapped = str_model(ns2)
        for f in str_arrows(ns2, ns2_seqs[:7]):
            lhs = wrapped.compose(embed_i_mor(f.payload), delta(ns2, f.dom))
            rhs = wrapped.compose(delta(ns2, f.cod), f)
            assert wrapped.mor_eq(lhs, rhs)
            both = wrapped.compose(delta_inv(ns2, f.cod), wrapped.compose(lhs, delta_inv(ns2, f.dom)))
            assert both.dom == embed_i(par_seq(ns2, f.dom))

    def test_eta_and_unit_payloads(self, ns2):
        arrow = eta(ns2, "A", "I")
        assert arrow.dom == StrObject(("A", "I")) and arrow.cod == embed_i("A")
        assert ns2.mor_eq(arrow.payload, ns2.identity("A"))
        u = unit_u(ns2)
        assert u.dom == EMPTY_SEQ and u.cod == embed_i("I")
        assert ns2.mor_eq(u.payload, ns2.identity("I"))

    def test_embedding_is_strong_monoidal(self, ns2):
        functor = embed_functor(ns2)
        objs = ns2.objects()
        for x in objs:
            assert check_unit_squares(functor, x)
            for y in objs:
                for z in objs:
                    assert check_hexagon(functor, x, y, z)

    def test_embedding_hexagon_on_other_fixtures(self, trivial, thin):
        for model, objs in ((trivial, ["I"]), (thin, thin.enumerate_objects(2))):
            functor = embed_functor(model)
            for x in objs:
                assert check_unit_squares(functor, x)
                for y in objs:
                    for z in objs:
                        assert check_hexagon(functor, x, y, z)


class TestSequenceCategoryIsStrict:
    def test_validate_clean(self, ns2, ns2_seqs):
        wrapped = str_model(ns2)
        report = validate_category(wrapped, objects=ns2_seqs, max_instances=2500)
        assert report.ok, report.to_text()

    def test_structural_arrows_are_identities(self, ns2, ns2_seqs):
        wrapped = str_model(ns2)
        for s in ns2_seqs:
            assert wrapped.mor_eq(wrapped.lunitor(s), wrapped.identity(s))
            assert wrapped.mor_eq(wrapped.runitor(s), wrapped.identity(s))
            for t in ns2_seqs[:4]:
                for u in ns2_seqs[:4]:
                    a = wrapped.associator(s, t, u)
                    assert a.dom == a.cod
                    assert wrapped.mor_eq(a, wrapped.identity(a.dom))


class TestBeta:
    def test_empty_is_unit_coherence(self, fx):
        functor = fx.functors["Fm"]
        assert functor.target.mor_eq(beta(functor, ()), functor.u)

    def test_singleton_is_identity(self, fx):
        functor = fx.functors["Fm"]
        d = functor.target
        assert d.mor_eq(beta(functor, ("A",)), d.identity(functor.obj_map("A")))

    def test_strict_functor_gives_identities(self, fx):
        functor = fx.functors["F0"]  # strict into the matrix model
        d = functor.target
        for seq in seqs_over(["I"], 3):
            arrow = beta(functor, seq)
            assert d.mor_eq(arrow, d.identity(arrow.dom))

    def test_beta_inverts(self, fx, ns2_seqs):
        functor = fx.functors["Fm"]
        d = functor.target
        for seq in ns2_seqs:
            fwd, back = beta(functor, seq), beta_inv(functor, seq)
            assert d.mor_eq(d.compose(fwd, back), d.identity(fwd.cod))
            assert d.mor_eq(d.compose(back, fwd), d.identity(fwd.dom))


class TestLiftStrict:
    def test_rejects_nonstrict_target(self, fx):
        with pytest.raises(ValueError):
            lift_strict(fx.functors["Ftw"])

    def test_factors_through_embedding(self, fx):
        functor = fx.functors["Fm"]
        lifted = lift_strict(functor)
        composite = compose_functors(lifted, embed_functor(functor.source))
        d = functor.target
        for x in ["I", "A"]:
            assert d.obj_eq(composite.obj_map(x), functor.obj_map(x))
            for y in ["I", "A"]:
                assert d.mor_eq(composite.gamma(x, y), functor.gamma(x, y))
        for f in functor.source.morphisms():
            assert d.mor_eq(composite.mor_map(f), functor.mor_map(f))
        assert d.mor_eq(composite.u, functor.u)

    def test_lift_is_strict_monoidal(self, fx, ns2_seqs):
        functor = fx.functors["Fm"]
        lifted = lift_strict(functor)
        d = functor.target
        for s in ns2_seqs:
            for t in ns2_seqs:
                joined = star_objects(s, t)
                assert d.obj_eq(
                    lifted.obj_map(joined), d.tensor_obj(lifted.obj_map(s), lifted.obj_map(t))
                )
                gamma = lifted.gamma(s, t)
                assert gamma.dom == gamma.cod
                assert d.mor_eq(gamma, d.identity(gamma.dom))
        assert d.mor_eq(lifted.u, d.identity(d.unit_obj))

    def test_lift_preserves_star_on_arrows(self, fx, ns2, ns2_seqs):
        functor = fx.functors["Fm"]
        lifted = lift_strict(functor)
        d = functor.target
        arrows = str_arrows(ns2, ns2_seqs[:5])
        for f in arrows:
            for g in arrows:
                lhs = lifted.mor_map(star_arrows(ns2, f, g))
                rhs = d.tensor_mor(lifted.mor_map(f), lifted.mor_map(g))
                assert d.mor_eq(lhs, rhs)

    def test_functoriality_of_lift(self, fx, ns2, ns2_seqs):
        functor = fx.functors["Fm"]
        lifted = lift_strict(functor)
        wrapped = str_model(ns2)
        d = functor.target
        arrows = str_arrows(ns2, ns2_seqs[:6])
        for f in arrows:
            for g in arrows:
                if g.dom != f.cod:
                    continue
                assert d.mor_eq(
                    lifted.mor_map(wrapped.compose(g, f)),
                    d.compose(lifted.mor_map(g), lifted.mor_map(f)),
                )

    def test_mutating_one_arrow_breaks_the_forced_equation(self, fx, ns2, ns2_seqs):
        # uniqueness proxy: every strict monoidal G with G o i = F satisfies
        # G(f) = beta^{-1} G(i(Par f)) beta, so changing a single arrow value
        # contradicts strictness or the factorization
        functor = fx.functors["Fm"]
        lifted = lift_strict(functor)
        d = functor.target
        wrapped = str_model(ns2)
        mutated = 0
        for s in ns2_seqs:
            for t in ns2_seqs:
                for f in wrapped.hom(s, t):
                    current = lifted.mor_map(f)
                    others = [
                        g for g in wrapped.hom(s, t) if not d.mor_eq(lifted.mor_map(g), current)
                    ]
                    if not others:
                        continue
                    mutated += 1
                    tampered = lifted.mor_map(others[0])
                    forced = d.compose(
                        beta_inv(functor, t),
                        d.compose(functor.mor_map(f.payload), beta(functor, s)),
                    )
                    assert d.mor_eq(current, forced)
                    assert not d.mor_eq(tampered, forced)
        assert mutated > 10


class TestLiftNat:
    def test_component_at_singleton(self, fx):
        mu = fx.nats["mu"]
        lifted = lift_nat_strict(mu)
        d = mu.dom.target
        assert d.mor_eq(lifted.component(StrObject(("A",))), mu.component("A"))
        assert d.mor_eq(lifted.component(EMPTY_SEQ), d.identity(d.unit_obj))

    def test_lift_is_monoidal_and_natural(self, fx, ns2, ns2_seqs):
        mu = fx.nats["mu"]
        lifted = lift_nat_strict(mu)
        for f in str_arrows(ns2, ns2_seqs[:6]):
            assert check_naturality(lifted, f)
        for s in ns2_seqs[:6]:
            for t in ns2_seqs[:6]:
                assert check_monoidal_nat(lifted, s, t)

    def test_identity_lifts_to_identity(self, fx, ns2, ns2_seqs):
        functor = fx.functors["Fm"]
        ident = identity_nat(functor)
        lifted = lift_nat_strict(ident)
        d = functor.target
        hat = lift_strict(functor)
        for s in ns2_seqs:
            assert d.mor_eq(lifted.component(s), d.identity(hat.obj_map(s)))


class TestStrFunctor:
    def test_identity_strictifies_to_identity(self, fx, ns2, ns2_seqs):
        lifted = str_functor(identity_functor(ns2))
        wrapped = str_model(ns2)
        for s in ns2_seqs:
            assert lifted.obj_map(s) == s
        for f in str_arrows(ns2, ns2_seqs[:6]):
            assert wrapped.mor_eq(lifted.mor_map(f), f)

    def test_composition_law(self, fx, ns2_seqs):
        f1, f2 = fx.functors["Ftw"], fx.functors["Fm"]
        lhs = str_functor(compose_functors(f2, f1))
        rhs = compose_functors(str_functor(f2), str_functor(f1))
        target = str_model(f2.target)
        for s in ns2_seqs:
            assert lhs.obj_map(s) == rhs.obj_map(s)
        for f in str_arrows(f1.source, ns2_seqs[:6]):
            assert target.mor_eq(lhs.mor_map(f), rhs.mor_map(f))

    def test_intertwines_embeddings_on_objects(self, fx):
        functor = fx.functors["Fm"]
        lifted = str_functor(functor)
        for x in ["I", "A"]:
            assert lifted.obj_map(embed_i(x)) == embed_i(functor.obj_map(x))

    def test_strict_monoidality(self, fx, ns2_seqs):
        functor = fx.functors["Ftw"]
        lifted = str_functor(functor)
        for s in ns2_seqs[:6]:
            for t in ns2_seqs[:6]:
                assert lifted.obj_map(star_objects(s, t)) == star_objects(
                    lifted.obj_map(s), lifted.obj_map(t)
                )


class TestStrNat:
    def test_components_fold_left(self, fx, ns2):
        alpha = fx.nats["alpha"]
        lifted = str_nat(alpha)
        s = StrObject(("A", "A"))
        expected = ns2.tensor_mor(alpha.component("A"), alpha.component("A"))
        assert ns2.mor_eq(lifted.component(s).payload, expected)

    def test_vertical_composition_preserved(self, fx, ns2, ns2_seqs):
        from moncatkit.core import compose_nats

        alpha, beta_nat = fx.nats["alpha"], fx.nats["beta"]
        lhs = str_nat(compose_nats(beta_nat, alpha))
        rhs = compose_nats(str_nat(beta_nat), str_nat(alpha))
        wrapped = str_model(ns2)
        for s in ns2_seqs:
            assert wrapped.mor_eq(lhs.component(s), rhs.component(s))

    def test_natural_and_monoidal(self, fx, ns2, ns2_seqs):
        alpha = fx.nats["alpha"]
        lifted = str_nat(alpha)
        for f in str_arrows(ns2, ns2_seqs[:6]):
            assert check_naturality(lifted, f)
        for s in ns2_seqs[:5]:
            for t in ns2_seqs[:5]:
                assert check_monoidal_nat(lifted, s, t)


class TestRealisation:
    def test_sequencing_is_monoid_homomorphism(self, thin3):
        words = [(), ("x",), ("x", "y"), ("z", "z", "x"), ("y", "x", "z", "x")]
        for v in words:
            for w in words:
                assert seq_word(v + w) == star_objects(seq_word(v), seq_word(w))

    def test_rho_unit_and_generator_are_identities(self, thin3):
        assert rho_factors(thin3, UNIT) == []
        assert rho_factors(thin3, Leaf("x")) == []
        assert thin3.mor_eq(rho(thin3, UNIT), thin3.identity(UNIT))
        assert thin3.mor_eq(rho(thin3, Leaf("x")), thin3.identity(Leaf("x")))

    def test_rho_lands_on_left_comb(self, thin3):
        term = parse_term("((x (y z)) x)")
        arrow = rho(thin3, term)
        word = forget_parens(term)
        assert arrow.dom == term
        assert arrow.cod == par_seq(thin3, seq_word(word))
        assert thin3.mor_eq(arrow, thin3.the(arrow.dom, arrow.cod))

    def test_rho_matches_thin_oracle_up_to_five_leaves(self, thin):
        for n in range(6):
            from moncatkit.terms import shapes_with_leaves

            for shape in shapes_with_leaves(n):
                arrow = rho(thin, shape)
                assert arrow.dom == shape
                assert arrow.cod == par_seq(thin, seq_word(forget_parens(shape)))
                assert thin.mor_eq(arrow, thin.the(arrow.dom, arrow.cod))

    def test_word_category_validates_strict(self, thin3):
        realised = realise_tilde_str(thin3)
        words = realised_words()
        report = validate_category(realised, objects=words, max_instances=1500)
        assert report.ok, report.to_text()
        assert realised.is_strict

    def test_hom_transport(self, thin3):
        realised = realise_tilde_str(thin3)
        assert len(realised.hom(("x", "y"), ("x", "y"))) == 1
        assert realised.hom(("x",), ("y",)) == []

    def test_seq_functor_is_strict_monoidal(self, thin3):
        functor = seq_word_functor(thin3)
        words = realised_words()
        target = functor.target
        for v in words:
            for w in words:
                gamma = functor.gamma(v, w)
                assert gamma.dom == gamma.cod
                assert target.mor_eq(gamma, target.identity(gamma.dom))
        for v in words:
            for w in words:
                f = functor.source.hom(v, w)
                if f:
                    image = functor.mor_map(f[0])
                    assert image.dom == seq_word(v) and image.cod == seq_word(w)

    def test_rejects_non_magma_model(self, ns2):
        with pytest.raises(ValueError):
            realise_tilde_str(ns2)

    def test_coherence_requires_matching_words(self, thin3):
        from moncatkit.core import CompositionError

        with pytest.raises(CompositionError):
            coherence_factors(thin3, parse_term("(x y)"), parse_term("(y x)"))


def realised_words():
    out = [()]
    for a in "xyz":
        out.append((a,))
        for b in "xyz":
            out.append((a, b))
    return out


class TestDeltaIsNaturalIso:
    def test_delta_inverts(self, ns2, ns2_seqs):
        wrapped = str_model(ns2)
        for s in ns2_seqs:
            fwd, back = delta(ns2, s), delta_inv(ns2, s)
            assert wrapped.mor_eq(wrapped.compose(back, fwd), wrapped.identity(s))
            assert wrapped.mor_eq(wrapped.compose(fwd, back), wrapped.identity(fwd.cod))

    def test_corrupted_delta_fails_naturality(self, ns2):
        # replacing the component at (A) by the twist breaks the square
        wrapped = str_model(ns2)
        s_arrow = next(f for f in ns2.morphisms() if f.payload == "s")
        good = delta(ns2, StrObject(("A",)))
        bad = Morphism(good.dom, good.cod, s_arrow)
        f = wrapped.embed_arrow(s_arrow)
        lhs = wrapped.compose(embed_i_mor(f.payload), bad)
        rhs = wrapped.compose(bad, f)
        assert wrapped.mor_eq(lhs, rhs)  # an endo-twist alone still commutes here
        idA = next(m for m in ns2.morphisms() if m.payload == "idA")
        mixed = wrapped.hom(StrObject(("A", "I")), StrObject(("A",)))
        twisted = Morphism(StrObject(("A", "I")), embed_i("A"), s_arrow)
        for f in mixed:
            lhs = wrapped.compose(embed_i_mor(f.payload), twisted)
            rhs = wrapped.compose(delta(ns2, f.cod), f)
            assert not wrapped.mor_eq(lhs, rhs)


class TestTracesAreModelIndependent:
    def test_theta_factor_shapes_agree_across_models(self, ns2, thin):
        # the recursion emits the same tagged factor list over any model;
        # only the object arguments differ
        from moncatkit.terms import BULLET, Leaf

        b = Leaf(BULLET)
        profiles = [((), ()), ((), ("A",)), (("A",), ()), (("A", "I"), ("A", "A", "I"))]
        for left, right in profiles:
            thin_left = tuple(b for _ in left)
            thin_right = tuple(b for _ in right)
            ns2_factors = theta_factors(ns2, left, right)
            thin_factors = theta_factors(thin, thin_left, thin_right)
            assert [f.kind for f in ns2_factors] == [f.kind for f in thin_factors]
            assert [[side for side, _ in f.wraps] for f in ns2_factors] == [
                [side for side, _ in f.wraps] for f in thin_factors
            ]


class TestSeqFunctorCoherence:
    def test_seq_word_functor_passes_functor_laws(self, thin3):
        functor = seq_word_functor(thin3)
        words = [(), ("x",), ("y",), ("x", "y"), ("z", "x")]
        for x in words:
            assert check_unit_squares(functor, x)
            for y in words:
                for z in words:
                    assert check_hexagon(functor, x, y, z)
