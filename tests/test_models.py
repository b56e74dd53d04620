import gc
import json
import random
import sys
from pathlib import Path

import numpy as np
import pytest

from moncatkit.core import CompositionError, Morphism
from moncatkit.fixtures import builtin_fixtures, fixture_dir
from moncatkit.models import (
    CategorySpecError,
    FiniteTableCategory,
    FreeMonoidThinModel,
    FreeThinModel,
    load_category,
    save_category,
    validate_category,
)
from moncatkit.terms import BULLET, UNIT, Leaf


def fixture_data(name):
    with open(fixture_dir() / f"{name}.json", encoding="utf-8") as handle:
        return json.load(handle)


class TestLoadCategory:
    def test_trivial_fixture(self):
        model = load_category(fixture_dir() / "trivial.json")
        assert model.objects() == ["I"]
        assert model.is_strict
        assert len(model.morphisms()) == 1

    def test_ns2_fixture_validates(self, ns2):
        report = validate_category(ns2)
        assert report.ok, report.to_text()
        assert not ns2.is_strict
        assert ns2.mor_eq(ns2.lunitor("A"), next(f for f in ns2.morphisms() if f.payload == "s"))

    def test_missing_compose_entry_is_totality_error(self, tmp_path):
        data = fixture_data("ns2")
        del data["compose"]["s,s"]
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(data))
        with pytest.raises(CategorySpecError) as err:
            load_category(path)
        assert err.value.kind == "totality"

    def test_unknown_id_is_referential_error(self, tmp_path):
        data = fixture_data("ns2")
        data["identity"]["A"] = "nope"
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(data))
        with pytest.raises(CategorySpecError) as err:
            load_category(path)
        assert err.value.kind == "referential"

    def test_bad_json_is_parse_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(CategorySpecError) as err:
            load_category(path)
        assert err.value.kind == "parse"

    def test_missing_key_is_parse_error(self, tmp_path):
        data = fixture_data("trivial")
        del data["compose"]
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(data))
        with pytest.raises(CategorySpecError) as err:
            load_category(path)
        assert err.value.kind == "parse"

    def test_nonstrict_requires_structural_tables(self, tmp_path):
        data = fixture_data("ns2")
        del data["lunitor"]
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(data))
        with pytest.raises(CategorySpecError) as err:
            load_category(path)
        assert err.value.kind == "parse"

    def test_wrong_structural_endpoints_rejected(self, tmp_path):
        data = fixture_data("ns2")
        data["lunitor"]["A"] = "idI"
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(data))
        with pytest.raises(CategorySpecError) as err:
            load_category(path)
        assert err.value.kind == "referential"


class TestRoundTrip:
    @pytest.mark.parametrize("name", ["trivial", "ns2"])
    def test_save_load_is_identity_on_canonical_files(self, name, tmp_path):
        source = fixture_dir() / f"{name}.json"
        model = load_category(source)
        out = tmp_path / f"{name}.json"
        save_category(model, out)
        assert out.read_bytes() == source.read_bytes()

    def test_reload_equals_original(self, ns2, tmp_path):
        out = tmp_path / "ns2.json"
        save_category(ns2, out)
        again = load_category(out)
        assert again.to_spec() == ns2.to_spec()


class TestValidateNegative:
    def test_corrupted_fixture_names_the_instance(self):
        data = fixture_data("ns2")
        data["compose"]["s,s"] = "s"  # breaks s being an involution
        model = FiniteTableCategory(data, name="corrupt")
        report = validate_category(model)
        assert not report.ok
        assert any("s" in failure.instance for failure in report.failures)

    def test_strict_flag_lie_detected(self):
        # the tensor of ns2 is associative and unital on objects, so the lie
        # only shows up as non-identity structural arrows under validation
        data = fixture_data("ns2")
        data["strict"] = True
        model = FiniteTableCategory(data, name="liar")
        report = validate_category(model)
        assert not report.ok
        assert any("strict" in failure.law for failure in report.failures)


class TestTableLookupErrors:
    def test_foreign_arrows_raise_composition_error(self, ns2):
        foreign = Morphism("A", "A", "zzz")
        known = ns2.identity("A")
        for call in (
            lambda: ns2.compose(foreign, foreign),
            lambda: ns2.compose(known, foreign),
            lambda: ns2.tensor_mor(foreign, known),
            lambda: ns2.tensor_mor(known, foreign),
        ):
            with pytest.raises(CompositionError, match="zzz"):
                call()

    def test_unhashable_payloads_raise_composition_error(self, ns2):
        matrix = Morphism("A", "A", np.array([[1]]))
        known = ns2.identity("A")
        for call in (
            lambda: ns2.compose(matrix, matrix),
            lambda: ns2.compose(known, matrix),
            lambda: ns2.tensor_mor(matrix, known),
            lambda: ns2.tensor_mor(known, matrix),
        ):
            with pytest.raises(CompositionError, match="undefined"):
                call()

    @pytest.mark.parametrize(
        "call",
        [lambda ns2: ns2.identity(np.array([1])), lambda ns2: ns2.tensor_obj([1], "A")],
        ids=["identity-array", "tensor_obj-list"],
    )
    def test_unhashable_objects_raise_composition_error(self, ns2, call):
        with pytest.raises(CompositionError):
            call(ns2)

    @pytest.mark.parametrize("method", ["lunitor", "runitor", "lunitor_inv", "runitor_inv"])
    def test_unhashable_objects_in_unitors_raise_composition_error(self, ns2, method):
        with pytest.raises(CompositionError, match="undefined"):
            getattr(ns2, method)([1])

    def test_known_arrows_still_compose(self, ns2):
        known = ns2.identity("A")
        assert ns2.mor_eq(ns2.compose(known, known), known)
        assert ns2.mor_eq(ns2.tensor_mor(known, ns2.identity("I")), known)


class TestFreeThinModel:
    def test_hom_is_singleton_iff_words_match(self, thin):
        b = Leaf(BULLET)
        assert len(thin.hom(b * b, b * b)) == 1
        assert len(thin.hom((b * b) * b, b * (b * b))) == 1
        assert thin.hom(b, b * b) == []

    def test_hom_sizes_after_construction(self, thin):
        objs = thin.enumerate_objects(5)
        assert all(len(thin.hom(x, y)) <= 1 for x in objs for y in objs)

    def test_labeled_generators_use_word_equality(self, thin3):
        x, y = Leaf("x"), Leaf("y")
        assert len(thin3.hom(x * y, x * y)) == 1
        assert thin3.hom(x * y, y * x) == []

    @pytest.mark.parametrize(
        "x, y", [("a", Leaf("x")), (Leaf("x"), "a"), (None, UNIT)], ids=["str-term", "term-str", "none-unit"]
    )
    @pytest.mark.parametrize("method", ["hom", "the"])
    def test_foreign_objects_raise_composition_error(self, thin3, method, x, y):
        with pytest.raises(CompositionError, match="objects are magma terms"):
            getattr(thin3, method)(x, y)

    def test_validation_leaves_no_memory_behind(self):
        # Terms are plain values: once a validation's results are dropped,
        # no term built during it stays reachable.
        def validate(max_leaves):
            model = FreeThinModel(("x", "y", "z"), name="thin-xyz")
            validate_category(model, objects=model.enumerate_objects(max_leaves))

        validate(2)  # warm up the interpreter state the first run creates
        gc.collect()
        before = sys.getallocatedblocks()
        validate(3)
        gc.collect()
        assert sys.getallocatedblocks() - before < 1000

    def test_validates_clean(self, thin):
        report = validate_category(thin, objects=thin.enumerate_objects(4), max_instances=4000)
        assert report.ok, report.to_text()

    def test_unit_is_tensor_unit(self, thin):
        b = Leaf(BULLET)
        assert thin.tensor_obj(UNIT, b) == b
        assert thin.tensor_obj(b, UNIT) == b

    def test_parse_checks_generators(self, thin3):
        with pytest.raises(Exception):
            thin3.parse_obj("(x q)")


X = Leaf("x")


class TestThinModelsForeignArguments:
    """Arguments that are not objects of a thin model fail with a named error."""

    @pytest.mark.parametrize(
        "call",
        [
            lambda m: m.associator("a", X, X),
            lambda m: m.associator_inv("a", X, X),
            lambda m: m.tensor_mor(Morphism("a", "a", None), m.identity(X)),
            lambda m: m.tensor_mor(m.identity(X), Morphism(X, "a", None)),
        ],
        ids=["associator", "associator_inv", "tensor_mor-dom", "tensor_mor-cod"],
    )
    def test_free_thin_model(self, call):
        with pytest.raises(CompositionError, match="objects are magma terms"):
            call(FreeThinModel(("x",), name="thin-x"))

    @pytest.mark.parametrize(
        "call",
        [
            lambda m: m.hom(1, ("x",)),
            lambda m: m.the(("x",), 3),
            lambda m: m.tensor_mor(Morphism(1, 1, None), m.identity(("x",))),
            lambda m: m.tensor_mor(m.identity(("x",)), Morphism([1], [1], None)),
        ],
        ids=["hom", "the", "tensor_mor-int", "tensor_mor-list"],
    )
    def test_free_monoid_thin_model(self, call):
        with pytest.raises(CompositionError, match="objects are words"):
            call(FreeMonoidThinModel(("x",), name="words-x"))

    @pytest.mark.parametrize(
        "call",
        [
            lambda m: m.hom("ab", "cd"),
            lambda m: m.the("ab", "cd"),
            lambda m: m.tensor_mor(Morphism("a", "a", None), Morphism("b", "b", None)),
            lambda m: m.tensor_mor(m.identity(("x",)), Morphism("b", "b", None)),
        ],
        ids=["hom", "the", "tensor_mor-both", "tensor_mor-right"],
    )
    def test_strings_are_not_words(self, words3, call):
        with pytest.raises(CompositionError, match="objects are words"):
            call(words3)

    def test_empty_hom_messages_are_unchanged(self, thin3, words3):
        with pytest.raises(CompositionError, match=r"no arrow \(x y\) -> \(y x\) \(words differ\)"):
            thin3.the(X * Leaf("y"), Leaf("y") * X)
        with pytest.raises(CompositionError, match=r"no arrow \('x',\) -> \(\) \(lengths differ\)"):
            words3.the(("x",), ())


class TestBuiltinUniverses:
    """The fixtures' objects and arrows per model, pinned to the table they had as literals."""

    LITERAL_OBJECTS = {"trivial": ["I"], "ns2": ["I", "A"], "mat7": [1, 2, 3]}

    @pytest.mark.parametrize("seed", [0, 7])
    def test_objects_and_arrows_match_the_literal_table(self, seed):
        fx = builtin_fixtures(seed=seed)
        assert list(fx.models) == ["trivial", "ns2", "thin", "thin3", "words3", "mat7"]
        for name, model in fx.models.items():
            objects = self.LITERAL_OBJECTS.get(name) or model.enumerate_objects(2)
            if name == "mat7":
                arrows = model.sample_morphisms([1, 2], random.Random(seed), per_pair=2)
            else:
                arrows = [f for x in objects for y in objects for f in model.hom(x, y)]
            assert fx.objects_for(model) == objects, name
            got = fx.arrows_for(model)
            assert len(got) == len(arrows), name
            assert all(model.mor_eq(f, g) for f, g in zip(got, arrows)), name


class TestFreeMonoidThinModel:
    def test_hom_by_length(self, words3):
        assert len(words3.hom(("x", "y"), ("y", "z"))) == 1
        assert words3.hom(("x",), ("x", "y")) == []

    def test_strict_and_valid(self, words3):
        report = validate_category(words3, objects=words3.enumerate_objects(2), max_instances=3000)
        assert report.ok, report.to_text()
        assert words3.is_strict


class TestMatrixModCategory:
    def test_interchange_against_direct_kronecker(self, mat7):
        # independent oracle: compute both interchange sides with raw numpy
        rng = random.Random(7)
        arrows = mat7.sample_morphisms([1, 2, 3], rng, per_pair=2)
        pairs = [(g, f) for g in arrows for f in arrows if f.cod == g.dom]
        count = 0
        for g, f in pairs[:40]:
            for g2, f2 in pairs[:40]:
                left = np.kron((g.payload @ f.payload) % 7, (g2.payload @ f2.payload) % 7) % 7
                right = (np.kron(g.payload, g2.payload) @ np.kron(f.payload, f2.payload)) % 7
                assert np.array_equal(left, right)
                lhs = mat7.tensor_mor(mat7.compose(g, f), mat7.compose(g2, f2))
                rhs = mat7.compose(mat7.tensor_mor(g, g2), mat7.tensor_mor(f, f2))
                assert mat7.mor_eq(lhs, rhs)
                count += 1
        assert count > 100

    def test_strict_flags_and_validation(self, mat7):
        assert mat7.is_strict
        report = validate_category(mat7, objects=[1, 2, 3], max_instances=2500)
        assert report.ok, report.to_text()

    def test_entries_reduced_mod_p(self, mat7):
        arrow = mat7.make_mor(1, 1, [[9]])
        assert arrow.payload[0][0] == 2

    def test_shape_mismatch_rejected(self, mat7):
        with pytest.raises(Exception):
            mat7.make_mor(2, 2, [[1, 0]])


class TestValidateUniverseHandling:
    def test_infinite_model_needs_sample(self, thin):
        with pytest.raises(ValueError):
            validate_category(thin)

    def test_sampling_is_deterministic(self, mat7):
        one = validate_category(mat7, objects=[1, 2], seed=3, max_instances=500)
        two = validate_category(mat7, objects=[1, 2], seed=3, max_instances=500)
        assert one.universe_size == two.universe_size
        assert one.to_json() == two.to_json()


class _WrongLunitorModel(FiniteTableCategory):
    """ns2 whose left unitor at each object claims the other object as domain.

    A spec file cannot express this (loading checks every endpoint), and
    composition here does not check endpoints, so the validation runs to
    the end and reports every law the bad domain breaks.
    """

    def _check_composable(self, g, f):
        pass

    def lunitor(self, x):
        arrow = super().lunitor(x)
        return Morphism("A" if x == "I" else "I", arrow.cod, arrow.payload)


class TestFailureReportBytes:
    """Failing validation reports pinned byte for byte against recorded files."""

    GOLDEN = Path(__file__).resolve().parent / "golden"

    def test_wrong_lunitor_domain(self):
        model = _WrongLunitorModel(fixture_data("ns2"), name="ns2-bad-lunitor")
        report = validate_category(model)
        assert report.to_json() + "\n" == (self.GOLDEN / "report-wrong-lunitor.json").read_text(encoding="utf-8")

    def test_sampled_corruption(self):
        data = fixture_data("ns2")
        data["compose"]["s,s"] = "s"
        report = validate_category(FiniteTableCategory(data, name="ns2_corrupt"), seed=3, max_instances=6)
        assert report.to_json() + "\n" == (self.GOLDEN / "report-ns2-corrupt-sampled.json").read_text(encoding="utf-8")
