import json
from pathlib import Path

import pytest

from moncatkit.core import NatTransData
from moncatkit.fixtures import builtin_fixtures
from moncatkit.laws import (
    LawReport,
    compare_functors,
    run_2functor_suite,
    run_adjunction_suite_q,
    run_adjunction_suite_str,
)


@pytest.fixture(scope="module")
def suite_reports(fx):
    return {
        "2functor": run_2functor_suite(fx),
        "adjunction-str": run_adjunction_suite_str(fx),
        "adjunction-q": run_adjunction_suite_q(fx),
    }


class TestSuitesPass:
    @pytest.mark.parametrize("name", ["2functor", "adjunction-str", "adjunction-q"])
    def test_no_failures_on_shipped_fixtures(self, suite_reports, name):
        report = suite_reports[name]
        assert report.ok, report.to_text()
        assert report.universe_size > 100

    def test_seed_echoed(self, fx):
        report = run_adjunction_suite_str(fx, seed=11)
        assert report.seed == 11
        assert json.loads(report.to_json())["seed"] == 11


class TestDeterminism:
    def test_reports_byte_identical_across_runs(self):
        first = builtin_fixtures()
        second = builtin_fixtures()
        for runner in (run_2functor_suite, run_adjunction_suite_str, run_adjunction_suite_q):
            assert runner(first, seed=0).to_json() == runner(second, seed=0).to_json()

    def test_json_schema_keys(self, suite_reports):
        payload = json.loads(suite_reports["2functor"].to_json())
        assert set(payload) == {"law", "universe_size", "failures", "seed"}


class TestNegative:
    def test_corrupted_strictification_is_flagged(self, fx, ns2, mat7):
        # flipping a single arrow value of a computed strictification must be
        # caught by the comparison, naming the sequence instance
        import dataclasses

        from moncatkit.core import compose_functors
        from moncatkit.strictify import StrObject, seqs_over, str_functor, str_model

        f1, f2 = fx.functors["Ftw"], fx.functors["Fm"]
        left = str_functor(compose_functors(f2, f1))
        right = compose_functors(str_functor(f2), str_functor(f1))
        wrapped = str_model(ns2)
        target = str_model(mat7)
        victim = wrapped.hom(StrObject(("A",)), StrObject(("A",)))[1]
        replacement = right.mor_map(wrapped.hom(StrObject(("A",)), StrObject(("A",)))[0])

        def tampered_mor_map(f, right=right):
            if f.dom == victim.dom and f.cod == victim.cod and ns2.mor_eq(f.payload, victim.payload):
                return replacement
            return right.mor_map(f)

        tampered = dataclasses.replace(right, mor_map=tampered_mor_map)
        seqs = seqs_over(["I", "A"], 2)
        arrows = [f for s in seqs for t in seqs for f in wrapped.hom(s, t)]
        report = LawReport(law="2functor", seed=0)
        compare_functors(report, "str-compose:Fm.Ftw", left, tampered, seqs, arrows, ambient=target)
        assert not report.ok
        assert any("(A)" in failure.instance for failure in report.failures)

    def test_corrupted_component_in_compare(self, fx, ns2):
        report = LawReport(law="probe")
        f = fx.functors["Ftw"]
        compare_functors(report, "probe", f, fx.functors["Id[ns2]"], ["I", "A"], fx.arrows_for(ns2))
        assert not report.ok  # the twist disagrees with the identity's gamma
        assert any("gamma" in failure.instance for failure in report.failures)

    def test_perturbed_whisker_fails(self, fx, ns2):
        from moncatkit.laws import compare_nats
        from moncatkit.nonstrictify import embed_j_functor, q_model, q_nat
        from moncatkit.core import whisker_left, whisker_right

        eps = fx.nats["alpha"]
        lhs = whisker_right(q_nat(eps), embed_j_functor(ns2))
        rhs = whisker_left(embed_j_functor(ns2), eps)
        report = LawReport(law="probe")
        compare_nats(report, "probe", lhs, rhs, ["I", "A"], ambient=q_model(ns2))
        assert report.ok

        swapped = NatTransData(
            dom=eps.dom, cod=eps.cod, component=lambda x: ns2.identity(x), name="swapped"
        )
        report = LawReport(law="probe")
        compare_nats(
            report,
            "probe",
            whisker_right(q_nat(swapped), embed_j_functor(ns2)),
            rhs,
            ["I", "A"],
            ambient=q_model(ns2),
        )
        assert not report.ok


class TestReportShape:
    def test_failures_carry_instance_and_sides(self):
        report = LawReport(law="demo", seed=0)
        report.record_failure("sub-law", "at-things", "left", "right")
        data = report.to_dict()
        assert data["failures"] == [
            {"law": "sub-law", "instance": "at-things", "lhs": "left", "rhs": "right"}
        ]
        assert not report.ok

    def test_text_rendering_mentions_failures(self):
        report = LawReport(law="demo", seed=3)
        report.count(5)
        report.record_failure("sub", "inst", "l", "r")
        text = report.to_text()
        assert "demo" in text and "FAIL sub @ inst" in text


class TestFailureReportBytes:
    """Failing comparison reports pinned byte for byte against recorded files."""

    GOLDEN = Path(__file__).resolve().parent / "golden"

    def test_every_functor_family_fails(self, ns2):
        import dataclasses

        from moncatkit.core import identity_functor

        s = next(f for f in ns2.morphisms() if f.payload == "s")
        left = identity_functor(ns2)
        right = dataclasses.replace(
            left, obj_map=lambda x: "A", mor_map=lambda f: s, gamma=lambda x, y: s, u=s
        )
        report = LawReport(law="probe")
        compare_functors(report, "probe-functor", left, right, ["I", "A"], ns2.morphisms())
        families = {failure.instance.split()[0] for failure in report.failures}
        assert families == {"object", "arrow", "gamma", "unit"}
        assert report.to_json() + "\n" == (self.GOLDEN / "report-compare-functors.json").read_text(encoding="utf-8")

    def test_nat_component_fails(self, ns2):
        from moncatkit.core import identity_functor, identity_nat
        from moncatkit.laws import compare_nats

        s = next(f for f in ns2.morphisms() if f.payload == "s")
        ident = identity_functor(ns2)
        twisted = NatTransData(
            dom=ident, cod=ident, component=lambda x: s if x == "A" else ns2.identity(x), name="twisted"
        )
        report = LawReport(law="probe")
        compare_nats(report, "probe-nat", identity_nat(ident), twisted, ["I", "A"])
        assert report.to_json() + "\n" == (self.GOLDEN / "report-compare-nats.json").read_text(encoding="utf-8")
