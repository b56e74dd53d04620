import pytest

from moncatkit.core import (
    CompositionError,
    Factor,
    Morphism,
    NatTransData,
    check_hexagon,
    check_monoidal_nat,
    check_naturality,
    check_pentagon,
    check_triangle,
    check_unit_squares,
    compose_factors,
    compose_functors,
    identity_functor,
    identity_nat,
    interpret_factor,
    render_factor,
)


def all_objects(model):
    return model.objects()


class TestAxiomCheckers:
    def test_pentagon_strict_model(self, mat7):
        assert check_pentagon(mat7, 2, 3, 2, 3)

    def test_pentagon_exhaustive_on_fixture(self, ns2):
        objs = ns2.objects()
        assert all(
            check_pentagon(ns2, x, y, z, m)
            for x in objs for y in objs for z in objs for m in objs
        )

    def test_triangle_strict_and_fixture(self, mat7, ns2):
        assert check_triangle(mat7, 2, 3)
        objs = ns2.objects()
        assert all(check_triangle(ns2, x, y) for x in objs for y in objs)

    def test_pentagon_detects_corruption(self, ns2):
        class Corrupted(type(ns2)):
            def associator(self, x, y, z):
                if (x, y, z) == ("A", "I", "I"):
                    return self._mor(self._identity["A"])
                return super().associator(x, y, z)

        bad = Corrupted(ns2.to_spec(), name="bad")
        objs = bad.objects()
        assert not all(
            check_pentagon(bad, x, y, z, m) and check_triangle(bad, x, m)
            for x in objs for y in objs for z in objs for m in objs
        )


class TestFunctorCheckers:
    def test_identity_functor_trivially_coherent(self, ns2):
        ident = identity_functor(ns2)
        objs = ns2.objects()
        assert all(check_hexagon(ident, x, y, z) for x in objs for y in objs for z in objs)
        assert all(check_unit_squares(ident, x) for x in objs)

    def test_fixture_functors_coherent(self, fx):
        for functor in fx.functors.values():
            objs = fx.objects_for(functor.source)
            assert all(
                check_hexagon(functor, x, y, z) for x in objs for y in objs for z in objs
            ), functor.name
            assert all(check_unit_squares(functor, x) for x in objs), functor.name

    def test_composite_functor_coherent(self, fx):
        for f2, f1 in fx.composable_pairs:
            comp = compose_functors(f2, f1)
            objs = fx.objects_for(f1.source)
            assert all(check_hexagon(comp, x, y, z) for x in objs for y in objs for z in objs)
            assert all(check_unit_squares(comp, x) for x in objs)

    def test_strong_gamma_inverses(self, fx):
        for functor in fx.functors.values():
            if not functor.is_strong:
                continue
            d = functor.target
            for x in fx.objects_for(functor.source):
                for y in fx.objects_for(functor.source):
                    g, gi = functor.gamma(x, y), functor.gamma_inv(x, y)
                    assert d.mor_eq(d.compose(g, gi), d.identity(g.cod))
                    assert d.mor_eq(d.compose(gi, g), d.identity(g.dom))
            assert d.mor_eq(d.compose(functor.u, functor.u_inv), d.identity(functor.u.cod))
            assert d.mor_eq(d.compose(functor.u_inv, functor.u), d.identity(functor.u.dom))

    def test_compose_with_identity(self, fx, ns2):
        f = fx.functors["Fm"]
        left = compose_functors(f, identity_functor(ns2))
        right = compose_functors(identity_functor(f.target), f)
        d = f.target
        for x in fx.objects_for(ns2):
            assert left.obj_map(x) == f.obj_map(x) == right.obj_map(x)
            for y in fx.objects_for(ns2):
                assert d.mor_eq(left.gamma(x, y), f.gamma(x, y))
                assert d.mor_eq(right.gamma(x, y), f.gamma(x, y))
        for arrow in fx.arrows_for(ns2):
            assert d.mor_eq(left.mor_map(arrow), f.mor_map(arrow))
            assert d.mor_eq(right.mor_map(arrow), f.mor_map(arrow))
        assert d.mor_eq(left.u, f.u) and d.mor_eq(right.u, f.u)

    def test_compose_functors_associative(self, fx):
        f1 = fx.functors["F1"]      # trivial -> ns2
        f2 = fx.functors["Ftw"]     # ns2 -> ns2
        f3 = fx.functors["Fm"]      # ns2 -> mat7
        lhs = compose_functors(compose_functors(f3, f2), f1)
        rhs = compose_functors(f3, compose_functors(f2, f1))
        d = f3.target
        for x in fx.objects_for(f1.source):
            assert lhs.obj_map(x) == rhs.obj_map(x)
            for y in fx.objects_for(f1.source):
                assert d.mor_eq(lhs.gamma(x, y), rhs.gamma(x, y))
        for arrow in fx.arrows_for(f1.source):
            assert d.mor_eq(lhs.mor_map(arrow), rhs.mor_map(arrow))
        assert d.mor_eq(lhs.u, rhs.u)

    def test_strict_composites_stay_strict(self, fx):
        f0 = fx.functors["F1"]
        assert compose_functors(f0, identity_functor(f0.source)).strength == "strict"


class TestNatCheckers:
    def test_identity_nat(self, fx, ns2):
        ident = identity_nat(identity_functor(ns2))
        for x in fx.objects_for(ns2):
            for y in fx.objects_for(ns2):
                assert check_monoidal_nat(ident, x, y)
        for arrow in fx.arrows_for(ns2):
            assert check_naturality(ident, arrow)

    def test_fixture_nats(self, fx):
        for nat in fx.nats.values():
            src = nat.dom.source
            for x in fx.objects_for(src):
                for y in fx.objects_for(src):
                    assert check_monoidal_nat(nat, x, y), nat.name
            for arrow in fx.arrows_for(src):
                assert check_naturality(nat, arrow), nat.name

    def test_corrupted_component_fails(self, fx, ns2):
        alpha = fx.nats["alpha"]
        swapped = NatTransData(
            dom=alpha.dom,
            cod=alpha.cod,
            component=lambda x: ns2.identity(x),  # drops the twist at A
            name="broken",
        )
        objs = fx.objects_for(ns2)
        assert not all(check_monoidal_nat(swapped, x, y) for x in objs for y in objs)

    def test_corrupted_naturality_fails(self, fx, mat7):
        mu = fx.nats["mu"]
        import numpy as np

        crooked = NatTransData(
            dom=mu.dom,
            cod=mu.cod,
            component=lambda x: Morphism(1, 1, np.array([[3 if x == "A" else 1]])),
            name="crooked",
        )
        objs = fx.objects_for(mu.dom.source)
        ok_everywhere = all(check_monoidal_nat(crooked, x, y) for x in objs for y in objs)
        assert not ok_everywhere


class TestModelBasics:
    def test_compose_rejects_mismatched(self, ns2):
        ida = ns2.identity("A")
        idi = ns2.identity("I")
        with pytest.raises(CompositionError):
            ns2.compose(ida, idi)

    def test_mor_eq_is_model_owned(self, thin):
        from moncatkit.terms import BULLET, Leaf

        b = Leaf(BULLET)
        f = Morphism(b, b, None)
        g = Morphism(b, b, "something-else")
        assert thin.mor_eq(f, g)  # thin equality is endpoint equality


class TestFactors:
    def test_interpret_and_render(self, ns2):
        factor = Factor("l", ("A",)).wrap_right("I").wrap_left("A")
        arrow = interpret_factor(ns2, factor)
        assert arrow.dom == "A" and arrow.cod == "A"
        text = render_factor(ns2, factor)
        assert "ℓ(A)" in text and text.count("id(") == 2

    def test_inverted_round_trip(self, ns2):
        factor = Factor("a", ("A", "I", "A")).wrap_right("I")
        composite = compose_factors(ns2, [factor, factor.inverted()], "A")
        assert ns2.mor_eq(composite, ns2.identity("A"))

    def test_unknown_kind_is_value_error(self, ns2):
        with pytest.raises(ValueError, match="unknown factor kind 'z'"):
            interpret_factor(ns2, Factor("z", ("A",)))

    @pytest.mark.parametrize("kind", ["a", "a_inv", "l", "l_inv", "r", "r_inv"])
    def test_every_kind_inverts_and_renders(self, ns2, kind):
        args = ("A", "I", "A") if kind.startswith("a") else ("A",)
        factor = Factor(kind, args)
        assert factor.inverted().inverted() == factor
        composite = compose_factors(ns2, [factor, factor.inverted()], interpret_factor(ns2, factor).dom)
        assert ns2.mor_eq(composite, ns2.identity(composite.dom))
        text = render_factor(ns2, factor)
        assert text[0] == {"a": "a", "l": "ℓ", "r": "r"}[kind[0]]
        assert ("⁻¹(" in text) == kind.endswith("_inv")

    def test_empty_factor_list_is_identity(self, ns2):
        assert ns2.mor_eq(compose_factors(ns2, [], "A"), ns2.identity("A"))
