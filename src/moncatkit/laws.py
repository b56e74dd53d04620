"""Cross-cutting law drivers: 2-functor equations and adjunction round trips.

Each suite walks a fixture bundle and produces a ``LawReport``.  Reports are
deterministic for a fixed bundle and seed; the JSON form is byte-stable so
CI runs can be diffed directly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .core import (
    CategoryModel,
    MonFunctorData,
    NatTransData,
    arrows_over,
    compose_functors,
    compose_nats,
    hcompose_nats,
    identity_functor,
    whisker_left,
    whisker_right,
)
from .nonstrictify import (
    NonStrictifiedModel,
    construction,
    embedding,
    induced_functor,
    induced_nat,
    lift,
)
from .strictify import StrictifiedModel


@dataclass
class LawFailure:
    law: str
    instance: str
    lhs: str
    rhs: str

    def to_dict(self) -> dict:
        return {"law": self.law, "instance": self.instance, "lhs": self.lhs, "rhs": self.rhs}


@dataclass
class LawReport:
    law: str
    seed: int = 0
    universe_size: int = 0
    failures: list[LawFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def count(self, n: int = 1):
        self.universe_size += n

    def record_failure(self, law: str, instance: str, lhs: str, rhs: str):
        self.failures.append(LawFailure(law, instance, lhs, rhs))

    def to_dict(self) -> dict:
        return {
            "law": self.law,
            "universe_size": self.universe_size,
            "failures": [f.to_dict() for f in self.failures],
            "seed": self.seed,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True, ensure_ascii=True)

    def to_text(self) -> str:
        lines = [
            f"law: {self.law}",
            f"seed: {self.seed}",
            f"instances checked: {self.universe_size}",
            f"failures: {len(self.failures)}",
        ]
        for failure in self.failures:
            lines.append(f"  FAIL {failure.law} @ {failure.instance}")
            lines.append(f"       lhs: {failure.lhs}")
            lines.append(f"       rhs: {failure.rhs}")
        return "\n".join(lines)


# -- comparison helpers -------------------------------------------------------


def compare_functors(
    report: LawReport,
    law: str,
    left: MonFunctorData,
    right: MonFunctorData,
    objects: list,
    arrows: list,
    coherence_pairs: list | None = None,
    ambient: CategoryModel | None = None,
):
    """Record any componentwise disagreement of two parallel functors."""
    d = ambient or left.target
    ro = d.render_obj
    for x in objects:
        report.count()
        if not d.obj_eq(left.obj_map(x), right.obj_map(x)):
            report.record_failure(law, f"object {left.source.render_obj(x)}",
                                  ro(left.obj_map(x)), ro(right.obj_map(x)))
    for f in arrows:
        report.count()
        lf, rf = left.mor_map(f), right.mor_map(f)
        if not d.mor_eq(lf, rf):
            report.record_failure(law, f"arrow {left.source.render_mor(f)}",
                                  d.render_mor(lf), d.render_mor(rf))
    if coherence_pairs is None:
        coherence_pairs = [(x, y) for x in objects for y in objects]
    for x, y in coherence_pairs:
        report.count()
        lg, rg = left.gamma(x, y), right.gamma(x, y)
        if not d.mor_eq(lg, rg):
            report.record_failure(
                law,
                f"gamma {left.source.render_obj(x)},{left.source.render_obj(y)}",
                d.render_mor(lg),
                d.render_mor(rg),
            )
    report.count()
    if not d.mor_eq(left.u, right.u):
        report.record_failure(law, "unit coherence", d.render_mor(left.u), d.render_mor(right.u))


def compare_nats(
    report: LawReport,
    law: str,
    left: NatTransData,
    right: NatTransData,
    objects: list,
    ambient: CategoryModel | None = None,
):
    d = ambient or left.dom.target
    for x in objects:
        report.count()
        lc, rc = left.component(x), right.component(x)
        if not d.mor_eq(lc, rc):
            report.record_failure(
                law,
                f"component {left.dom.source.render_obj(x)}",
                d.render_mor(lc),
                d.render_mor(rc),
            )


_CONSTRUCTIONS = (StrictifiedModel, NonStrictifiedModel)  # in report order


def _universe(cls: type, fixtures, model: CategoryModel, size: int = 2, base_objects=None):
    """Objects of the construction over a model, and its arrows between them.

    The arrows come from the hom-sets when the base enumerates them;
    otherwise the base arrow sample is transported along one-entry objects.
    """
    base = fixtures.objects_for(model) if base_objects is None else base_objects
    objs = cls.objects_over(base, size)
    wrapped = construction(cls, model)
    arrows = arrows_over(wrapped, objs)
    if arrows is None:
        arrows = [wrapped.embed_arrow(f) for f in fixtures.arrows_for(model)]
    return objs, arrows


def run_2functor_suite(fixtures, seed: int = 0, max_len: int = 2) -> LawReport:
    """Identity preservation and both composition equations, for str and q."""
    report = LawReport(law="2functor", seed=seed)

    for model in fixtures.models.values():
        # the identity laws are definitional; three base objects per model keep
        # the sequence universes small without losing shape coverage
        base = fixtures.objects_for(model)[:3]
        for cls in _CONSTRUCTIONS:
            objs, arrows = _universe(cls, fixtures, model, max_len, base_objects=base)
            compare_functors(
                report,
                f"{cls.tag}-identity:{model.name}",
                induced_functor(cls, identity_functor(model)),
                identity_functor(construction(cls, model)),
                objs,
                arrows,
            )

    for f2, f1 in fixtures.composable_pairs:
        for cls in _CONSTRUCTIONS:
            objs, arrows = _universe(cls, fixtures, f1.source, max_len)
            compare_functors(
                report,
                f"{cls.tag}-compose:{f2.name}o{f1.name}",
                induced_functor(cls, compose_functors(f2, f1)),
                compose_functors(induced_functor(cls, f2), induced_functor(cls, f1)),
                objs,
                arrows,
                ambient=construction(cls, f2.target),
            )

    for b, a in fixtures.vertical_pairs:
        for cls in _CONSTRUCTIONS:
            objs, _ = _universe(cls, fixtures, a.dom.source, max_len)
            compare_nats(
                report,
                f"{cls.tag}-vertical:{b.name}o{a.name}",
                induced_nat(cls, compose_nats(b, a)),
                compose_nats(induced_nat(cls, b), induced_nat(cls, a)),
                objs,
                ambient=construction(cls, a.dom.target),
            )

    for a2, a1 in fixtures.horizontal_pairs:
        for cls in _CONSTRUCTIONS:
            objs, _ = _universe(cls, fixtures, a1.dom.source, max_len)
            compare_nats(
                report,
                f"{cls.tag}-horizontal:{a2.name}*{a1.name}",
                induced_nat(cls, hcompose_nats(a2, a1)),
                hcompose_nats(induced_nat(cls, a2), induced_nat(cls, a1)),
                objs,
                ambient=construction(cls, a2.dom.target),
            )

    return report


def _run_adjunction_suite(cls: type, scenarios, fixtures, seed: int, size: int) -> LawReport:
    """Both round trips of the hom isomorphism plus its naturality equalities."""
    report = LawReport(law=f"adjunction-{cls.tag}", seed=seed)

    for scenario in scenarios:
        c, f = scenario.ambient, scenario.functor
        tag, name = cls.tag, scenario.name
        lifted = lift(cls, f)
        embed = embedding(cls, c)
        c_objs = fixtures.objects_for(c)
        c_arrows = fixtures.arrows_for(c)

        # round trip through the embedding: (lift F) o i = F, with coherence data
        compare_functors(report, f"{tag}-counit:{name}", compose_functors(lifted, embed), f, c_objs, c_arrows)

        # round trip the other way: lifting the restriction returns the lift
        objs, arrows = _universe(cls, fixtures, c, size)
        relift = lift(cls, compose_functors(lifted, embed), True)
        compare_functors(report, f"{tag}-unit:{name}", relift, lifted, objs, arrows)

        # naturality in the monoidal category argument
        h = scenario.inner
        c2_objs = fixtures.objects_for(h.source)
        c2_arrows = fixtures.arrows_for(h.source)
        lhs = compose_functors(f, h)
        rhs = compose_functors(lifted, compose_functors(induced_functor(cls, h), embedding(cls, h.source)))
        compare_functors(report, f"{tag}-natural-functor:{name}", lhs, rhs, c2_objs, c2_arrows)

        # naturality for 2-cells: whiskering the induced transformation
        eps = scenario.nat
        lhs_nat = whisker_right(induced_nat(cls, eps), embedding(cls, eps.dom.source))
        rhs_nat = whisker_left(embedding(cls, eps.dom.target), eps)
        compare_nats(
            report,
            f"{tag}-natural-2cell:{name}",
            lhs_nat,
            rhs_nat,
            fixtures.objects_for(eps.dom.source),
            ambient=construction(cls, eps.dom.target),
        )

    return report


def run_adjunction_suite_str(fixtures, seed: int = 0, max_len: int = 2) -> LawReport:
    return _run_adjunction_suite(StrictifiedModel, fixtures.str_scenarios, fixtures, seed, max_len)


def run_adjunction_suite_q(fixtures, seed: int = 0, max_leaves: int = 2) -> LawReport:
    return _run_adjunction_suite(NonStrictifiedModel, fixtures.q_scenarios, fixtures, seed, max_leaves)
