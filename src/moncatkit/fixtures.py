"""Shipped desk-scale fixtures: models, functors, transformations, scenarios.

The JSON fixture files live inside the package; the MONCATKIT_FIXTURES
environment variable (or an explicit path) overrides the directory.  All
functor data here has been checked against the hexagon/unit-square and
monoidality laws by the test suite.  Beside the two table fixtures, the
bundle holds the builtin models of ``models.BUILTIN_MODELS``, each with the
objects and arrows ``models.default_universe`` chooses at bound 2.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

import numpy as np

from .core import CategoryModel, MonFunctorData, Morphism, NatTransData, identity_functor, identity_nat
from .models import BUILTIN_MODELS, default_universe, load_category

FIXTURE_ENV = "MONCATKIT_FIXTURES"


def fixture_dir(override: str | os.PathLike | None = None) -> Path:
    if override is not None:
        return Path(override)
    env = os.environ.get(FIXTURE_ENV)
    if env:
        return Path(env)
    return Path(resources.files("moncatkit").joinpath("fixtures"))


@dataclass
class AdjunctionScenario:
    """One instance of the hom-isomorphism checks.

    ``functor`` is a strong monoidal functor out of ``ambient``; ``inner``
    maps another model into ``ambient`` and ``nat`` is a monoidal
    transformation between endofunctor-like fixtures used for the 2-cell
    naturality equation.
    """

    name: str
    ambient: CategoryModel
    functor: MonFunctorData
    inner: MonFunctorData
    nat: NatTransData


@dataclass
class FixtureSet:
    models: dict[str, CategoryModel]
    functors: dict[str, MonFunctorData]
    nats: dict[str, NatTransData]
    composable_pairs: list[tuple[MonFunctorData, MonFunctorData]]
    vertical_pairs: list[tuple[NatTransData, NatTransData]]
    horizontal_pairs: list[tuple[NatTransData, NatTransData]]
    str_scenarios: list[AdjunctionScenario]
    q_scenarios: list[AdjunctionScenario]
    seed: int = 0
    _objects: dict[str, list] = field(default_factory=dict)
    _arrows: dict[str, list] = field(default_factory=dict)

    def objects_for(self, model: CategoryModel) -> list:
        return self._objects[model.name]

    def arrows_for(self, model: CategoryModel) -> list:
        return self._arrows[model.name]


def table_functor(
    source: CategoryModel,
    target: CategoryModel,
    obj_table: dict,
    mor_table: dict,
    gamma_table: dict,
    gamma_inv_table: dict,
    u: Morphism,
    u_inv: Morphism,
    strength: str,
    name: str,
) -> MonFunctorData:
    """A monoidal functor given by finite lookup tables on a table category."""
    return MonFunctorData(
        source=source,
        target=target,
        obj_map=lambda x: obj_table[x],
        mor_map=lambda f: mor_table[f.payload],
        gamma=lambda x, y: gamma_table[(x, y)],
        gamma_inv=lambda x, y: gamma_inv_table[(x, y)],
        u=u,
        u_inv=u_inv,
        strength=strength,
        name=name,
    )


def builtin_fixtures(path: str | os.PathLike | None = None, seed: int = 0) -> FixtureSet:
    """Load the shipped fixture bundle; deterministic for a fixed seed."""
    directory = fixture_dir(path)
    trivial = load_category(directory / "trivial.json", name="trivial")
    ns2 = load_category(directory / "ns2.json", name="ns2")
    models: dict[str, CategoryModel] = {"trivial": trivial, "ns2": ns2}
    models.update((name, make()) for name, make in BUILTIN_MODELS.items())
    mat7 = models["mat7"]

    def m11(value: int) -> Morphism:
        return Morphism(1, 1, np.array([[value]], dtype=np.int64))

    ns2_mor = {f.payload: f for f in ns2.morphisms()}
    idI, idA, s = ns2_mor["idI"], ns2_mor["idA"], ns2_mor["s"]

    f_triv_ns2 = table_functor(
        trivial, ns2,
        {"I": "I"}, {"idI": idI},
        {("I", "I"): idI}, {("I", "I"): idI},
        idI, idI, "strict", "F1",
    )
    f_triv_mat = table_functor(
        trivial, mat7,
        {"I": 1}, {"idI": m11(1)},
        {("I", "I"): m11(1)}, {("I", "I"): m11(1)},
        m11(1), m11(1), "strict", "F0",
    )

    # identity on objects/arrows of ns2, with a twisted tensor coherence at (A, A)
    twist_gamma = {("I", "I"): idI, ("I", "A"): idA, ("A", "I"): idA, ("A", "A"): s}
    f_twist = table_functor(
        ns2, ns2,
        {"I": "I", "A": "A"}, dict(ns2_mor),
        twist_gamma, twist_gamma,
        idI, idI, "strong", "Ftw",
    )

    # both objects land on dimension 1; s goes to -1 and the coherence data is
    # a nontrivial family of units mod 7
    mat_mor = {"idI": m11(1), "idA": m11(1), "s": m11(6)}
    gamma_m = {("I", "I"): m11(4), ("I", "A"): m11(3), ("A", "I"): m11(3), ("A", "A"): m11(3)}
    gamma_m_inv = {("I", "I"): m11(2), ("I", "A"): m11(5), ("A", "I"): m11(5), ("A", "A"): m11(5)}
    f_mat = table_functor(
        ns2, mat7, {"I": 1, "A": 1}, mat_mor, gamma_m, gamma_m_inv, m11(2), m11(4), "strong", "Fm"
    )
    gamma_m2 = dict(gamma_m)
    gamma_m2[("A", "A")] = m11(5)
    gamma_m2_inv = dict(gamma_m_inv)
    gamma_m2_inv[("A", "A")] = m11(3)
    f_mat2 = table_functor(
        ns2, mat7, {"I": 1, "A": 1}, mat_mor, gamma_m2, gamma_m2_inv, m11(2), m11(4), "strong", "Fm2"
    )

    id_trivial = identity_functor(trivial, name="Id[trivial]")
    id_ns2 = identity_functor(ns2, name="Id[ns2]")

    functors = {
        f.name: f
        for f in (f_triv_ns2, f_triv_mat, f_twist, f_mat, f_mat2, id_trivial, id_ns2)
    }

    alpha_twist = NatTransData(
        dom=id_ns2,
        cod=f_twist,
        component=lambda x: idI if x == "I" else s,
        name="alpha",
    )
    beta_twist = NatTransData(
        dom=f_twist,
        cod=id_ns2,
        component=lambda x: idI if x == "I" else s,
        name="beta",
    )
    mu = NatTransData(
        dom=f_mat,
        cod=f_mat2,
        component=lambda x: m11(1) if x == "I" else m11(2),
        name="mu",
    )
    nats = {n.name: n for n in (alpha_twist, beta_twist, mu)}

    objects, arrows = {}, {}
    for name, model in models.items():
        objects[name], arrows[name] = default_universe(model, 2, seed)

    composable_pairs = [(f_twist, f_triv_ns2), (f_mat, f_twist), (f_mat, f_triv_ns2)]
    vertical_pairs = [(beta_twist, alpha_twist)]
    horizontal_pairs = [(mu, alpha_twist), (alpha_twist, identity_nat(f_triv_ns2, name="id1"))]

    str_scenarios = [
        AdjunctionScenario("mat-over-ns2", ns2, f_mat, f_twist, alpha_twist),
        AdjunctionScenario("mat-over-trivial", ns2, f_mat, f_triv_ns2, alpha_twist),
        AdjunctionScenario("trivial-to-mat", trivial, f_triv_mat, id_trivial, identity_nat(f_triv_ns2, name="id1")),
    ]
    q_scenarios = [
        AdjunctionScenario("twist-over-ns2", ns2, f_twist, f_twist, alpha_twist),
        AdjunctionScenario("twist-over-trivial", ns2, f_twist, f_triv_ns2, alpha_twist),
        AdjunctionScenario("trivial-to-ns2", trivial, f_triv_ns2, id_trivial, identity_nat(f_triv_ns2, name="id1")),
    ]

    return FixtureSet(
        models=models,
        functors=functors,
        nats=nats,
        composable_pairs=composable_pairs,
        vertical_pairs=vertical_pairs,
        horizontal_pairs=horizontal_pairs,
        str_scenarios=str_scenarios,
        q_scenarios=q_scenarios,
        seed=seed,
        _objects=objects,
        _arrows=arrows,
    )
