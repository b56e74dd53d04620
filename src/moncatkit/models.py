"""Concrete ambient categories: table-driven, thin term models, matrices mod p.

The table category is loaded from a JSON spec and is the workhorse for
exhaustive checking.  The thin models (at most one arrow between any two
objects) are coherence oracles: every structural diagram commutes in them
by construction, so any composite built by the library can be confronted
with the unique arrow between its endpoints.  They share their arrows
through ``ThinStructure``.

The four models that need no spec file are built in one place,
``BUILTIN_MODELS``, and ``default_universe`` chooses the objects and arrows
any model is checked over; the CLI and the fixtures both read them.
"""

from __future__ import annotations

import itertools
import json
import random
from typing import Optional, Sequence

import numpy as np

from .core import CategoryModel, CompositionError, Morphism, arrows_over, check_pentagon, check_triangle
from .laws import LawReport
from .terms import (
    UNIT,
    MagmaTerm,
    Word,
    attach_labels,
    enumerate_shapes,
    forget_parens,
    leaf_count,
    mag,
    parse_generated_term,
    parse_word,
    render_term,
    render_word,
)


class CategorySpecError(Exception):
    """A category spec file failed to load; ``kind`` is parse/referential/totality."""

    def __init__(self, kind: str, message: str):
        super().__init__(f"{kind} error: {message}")
        self.kind = kind


class FiniteTableCategory(CategoryModel):
    """A monoidal category given by finite lookup tables."""

    def __init__(self, data: dict, name: str = "table"):
        self.name = name
        self._load(data)

    # -- loading -------------------------------------------------------------

    def _load(self, data: dict):
        required = ["objects", "unit", "tensor_obj", "morphisms", "identity", "compose", "tensor_mor", "strict"]
        structural = ["associator", "associator_inv", "lunitor", "lunitor_inv", "runitor", "runitor_inv"]
        if not isinstance(data, dict):
            raise CategorySpecError("parse", "top level must be a JSON object")
        for key in required:
            if key not in data:
                raise CategorySpecError("parse", f"missing required key {key!r}")
        self.is_strict = bool(data["strict"])
        if not self.is_strict:
            for key in structural:
                if key not in data:
                    raise CategorySpecError("parse", f"missing required key {key!r} (only strict specs may omit it)")

        self._objects = list(data["objects"])
        if len(set(self._objects)) != len(self._objects):
            raise CategorySpecError("referential", "duplicate object ids")
        objset = set(self._objects)
        self._unit = data["unit"]
        if self._unit not in objset:
            raise CategorySpecError("referential", f"unit object {self._unit!r} is not listed")

        self._dom: dict[str, str] = {}
        self._cod: dict[str, str] = {}
        for entry in data["morphisms"]:
            try:
                mid, dom, cod = entry["id"], entry["dom"], entry["cod"]
            except (TypeError, KeyError) as exc:
                raise CategorySpecError("parse", f"bad morphism entry {entry!r}") from exc
            if mid in self._dom:
                raise CategorySpecError("referential", f"duplicate morphism id {mid!r}")
            if dom not in objset or cod not in objset:
                raise CategorySpecError("referential", f"morphism {mid!r} has unknown endpoint")
            self._dom[mid] = dom
            self._cod[mid] = cod
        morset = set(self._dom)

        def obj_key(text: str, arity: int, table: str) -> tuple:
            parts = tuple(text.split(","))
            if len(parts) != arity or any(p not in objset for p in parts):
                raise CategorySpecError("referential", f"bad key {text!r} in {table}")
            return parts

        self._tensor_obj = {}
        for key, val in data["tensor_obj"].items():
            if val not in objset:
                raise CategorySpecError("referential", f"tensor_obj[{key!r}] = unknown object {val!r}")
            self._tensor_obj[obj_key(key, 2, "tensor_obj")] = val
        for x in self._objects:
            for y in self._objects:
                if (x, y) not in self._tensor_obj:
                    raise CategorySpecError("totality", f"tensor_obj missing entry {x},{y}")

        self._identity = {}
        for x, mid in data["identity"].items():
            if x not in objset or mid not in morset:
                raise CategorySpecError("referential", f"identity[{x!r}] = {mid!r} is unknown")
            if self._dom[mid] != x or self._cod[mid] != x:
                raise CategorySpecError("referential", f"identity of {x!r} must be an endo-arrow of it")
            self._identity[x] = mid
        for x in self._objects:
            if x not in self._identity:
                raise CategorySpecError("totality", f"identity missing entry for {x}")

        self._compose = {}
        for key, val in data["compose"].items():
            parts = tuple(key.split(","))
            if len(parts) != 2 or any(p not in morset for p in parts):
                raise CategorySpecError("referential", f"bad key {key!r} in compose")
            g, f = parts
            if val not in morset:
                raise CategorySpecError("referential", f"compose[{key!r}] = unknown morphism {val!r}")
            if self._cod[f] != self._dom[g]:
                raise CategorySpecError("referential", f"compose key {key!r} is not a composable pair")
            if self._dom[val] != self._dom[f] or self._cod[val] != self._cod[g]:
                raise CategorySpecError("referential", f"compose[{key!r}] has wrong endpoints")
            self._compose[(g, f)] = val
        for g in morset:
            for f in morset:
                if self._cod[f] == self._dom[g] and (g, f) not in self._compose:
                    raise CategorySpecError("totality", f"compose missing entry {g},{f}")

        self._tensor_mor = {}
        for key, val in data["tensor_mor"].items():
            parts = tuple(key.split(","))
            if len(parts) != 2 or any(p not in morset for p in parts):
                raise CategorySpecError("referential", f"bad key {key!r} in tensor_mor")
            if val not in morset:
                raise CategorySpecError("referential", f"tensor_mor[{key!r}] = unknown morphism {val!r}")
            f, g = parts
            want_dom = self._tensor_obj[(self._dom[f], self._dom[g])]
            want_cod = self._tensor_obj[(self._cod[f], self._cod[g])]
            if self._dom[val] != want_dom or self._cod[val] != want_cod:
                raise CategorySpecError("referential", f"tensor_mor[{key!r}] has wrong endpoints")
            self._tensor_mor[(f, g)] = val
        for f in morset:
            for g in morset:
                if (f, g) not in self._tensor_mor:
                    raise CategorySpecError("totality", f"tensor_mor missing entry {f},{g}")

        def load_structural(table: str, arity: int, endpoint_check) -> dict:
            out = {}
            for key, val in data.get(table, {}).items():
                parts = obj_key(key, arity, table)
                if val not in morset:
                    raise CategorySpecError("referential", f"{table}[{key!r}] = unknown morphism {val!r}")
                want_dom, want_cod = endpoint_check(*parts)
                if self._dom[val] != want_dom or self._cod[val] != want_cod:
                    raise CategorySpecError("referential", f"{table}[{key!r}] has wrong endpoints")
                out[parts if arity > 1 else parts[0]] = val
            if table in data or not self.is_strict:
                universe = (
                    [(x, y, z) for x in self._objects for y in self._objects for z in self._objects]
                    if arity == 3
                    else [(x,) for x in self._objects]
                )
                for parts in universe:
                    k = parts if arity > 1 else parts[0]
                    if table in data and k not in out:
                        raise CategorySpecError("totality", f"{table} missing entry for {','.join(parts)}")
            return out

        t = self._tensor_obj
        self._assoc = load_structural(
            "associator", 3, lambda x, y, z: (t[(t[(x, y)], z)], t[(x, t[(y, z)])])
        )
        self._assoc_inv = load_structural(
            "associator_inv", 3, lambda x, y, z: (t[(x, t[(y, z)])], t[(t[(x, y)], z)])
        )
        self._lun = load_structural("lunitor", 1, lambda x: (t[(self._unit, x)], x))
        self._lun_inv = load_structural("lunitor_inv", 1, lambda x: (x, t[(self._unit, x)]))
        self._run = load_structural("runitor", 1, lambda x: (t[(x, self._unit)], x))
        self._run_inv = load_structural("runitor_inv", 1, lambda x: (x, t[(x, self._unit)]))

        if self.is_strict:
            for x in self._objects:
                if t[(self._unit, x)] != x or t[(x, self._unit)] != x:
                    raise CategorySpecError("referential", f"strict spec but unit is not absorbed at {x}")
                for y in self._objects:
                    for z in self._objects:
                        if t[(t[(x, y)], z)] != t[(x, t[(y, z)])]:
                            raise CategorySpecError(
                                "referential", f"strict spec but tensor is not associative at {x},{y},{z}"
                            )

    # -- CategoryModel interface ----------------------------------------------

    def objects(self):
        return list(self._objects)

    def hom(self, x, y):
        return [
            self._mor(mid) for mid in sorted(self._dom) if self._dom[mid] == x and self._cod[mid] == y
        ]

    def _mor(self, mid: str) -> Morphism:
        return Morphism(self._dom[mid], self._cod[mid], mid)

    def identity(self, x):
        try:
            mid = self._identity[x]
        except (KeyError, TypeError) as exc:
            raise CompositionError(f"unknown object {x!r}") from exc
        return self._mor(mid)

    def compose(self, g, f):
        self._check_composable(g, f)
        try:
            mid = self._compose[(g.payload, f.payload)]
        except (KeyError, TypeError) as exc:
            raise CompositionError(f"compose undefined at {g.payload},{f.payload}") from exc
        return self._mor(mid)

    @property
    def unit_obj(self):
        return self._unit

    def tensor_obj(self, x, y):
        try:
            return self._tensor_obj[(x, y)]
        except (KeyError, TypeError) as exc:
            raise CompositionError(f"tensor_obj undefined at {x},{y}") from exc

    def tensor_mor(self, f, g):
        try:
            mid = self._tensor_mor[(f.payload, g.payload)]
        except (KeyError, TypeError) as exc:
            raise CompositionError(f"tensor_mor undefined at {f.payload},{g.payload}") from exc
        return self._mor(mid)

    def _structural(self, table: dict, key, fallback_obj):
        if self.is_strict and key not in table:
            return self.identity(fallback_obj)
        return self._mor(table[key])

    def associator(self, x, y, z):
        return self._structural(self._assoc, (x, y, z), self.tensor_obj(self.tensor_obj(x, y), z))

    def associator_inv(self, x, y, z):
        return self._structural(self._assoc_inv, (x, y, z), self.tensor_obj(self.tensor_obj(x, y), z))

    def lunitor(self, x):
        return self._structural(self._lun, x, x)

    def lunitor_inv(self, x):
        return self._structural(self._lun_inv, x, x)

    def runitor(self, x):
        return self._structural(self._run, x, x)

    def runitor_inv(self, x):
        return self._structural(self._run_inv, x, x)

    def parse_obj(self, text):
        if text not in set(self._objects):
            raise CategorySpecError("referential", f"unknown object {text!r} in {self.name}")
        return text

    def render_mor(self, f):
        return str(f.payload)

    # -- serialization ----------------------------------------------------------

    def to_spec(self) -> dict:
        """Canonical spec dict; load_category inverts this exactly."""
        spec = {
            "objects": list(self._objects),
            "unit": self._unit,
            "strict": self.is_strict,
            "tensor_obj": {f"{x},{y}": v for (x, y), v in sorted(self._tensor_obj.items())},
            "morphisms": [
                {"id": mid, "dom": self._dom[mid], "cod": self._cod[mid]} for mid in sorted(self._dom)
            ],
            "identity": dict(sorted(self._identity.items())),
            "compose": {f"{g},{f}": v for (g, f), v in sorted(self._compose.items())},
            "tensor_mor": {f"{f},{g}": v for (f, g), v in sorted(self._tensor_mor.items())},
        }
        tables = {
            "associator": self._assoc,
            "associator_inv": self._assoc_inv,
            "lunitor": self._lun,
            "lunitor_inv": self._lun_inv,
            "runitor": self._run,
            "runitor_inv": self._run_inv,
        }
        for name, table in tables.items():
            if table or not self.is_strict:
                spec[name] = {
                    (",".join(k) if isinstance(k, tuple) else k): v for k, v in sorted(table.items())
                }
        return spec


def load_category(path, name: Optional[str] = None) -> FiniteTableCategory:
    """Load a table category from a JSON spec file."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise CategorySpecError("parse", f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CategorySpecError("parse", f"invalid JSON in {path}: {exc}") from exc
    import os

    return FiniteTableCategory(data, name=name or os.path.splitext(os.path.basename(str(path)))[0])


def save_category(model: FiniteTableCategory, path) -> None:
    """Write the canonical JSON spec; round-trips through load_category."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(model.to_spec(), handle, indent=2, sort_keys=True, ensure_ascii=True)
        handle.write("\n")


class ThinStructure:
    """Identity, composition, equality and the unique arrow of a thin model.

    A mixin, not a ``CategoryModel``, so that bench/tracer.py times each
    method once, under the concrete class.  Subclasses supply ``hom`` and
    ``_check_obj``, the name of their objects (``_obj_kind``), and
    ``_show`` and ``_mismatch`` for the message when a hom-set is empty.
    The unit is absorbed on the nose, so every unitor is an identity.
    """

    _obj_kind: str

    def _foreign(self, *objs) -> CompositionError:
        return CompositionError(f"{self.name}: objects are {self._obj_kind}, got {', '.join(map(repr, objs))}")

    def the(self, x, y) -> Morphism:
        """The unique arrow x -> y; fails if the hom-set is empty."""
        hom = self.hom(x, y)
        if not hom:
            raise CompositionError(f"{self.name}: no arrow {self._show(x)} -> {self._show(y)} ({self._mismatch})")
        return hom[0]

    def identity(self, x):
        self._check_obj(x)
        return Morphism(x, x, None)

    lunitor = lunitor_inv = runitor = runitor_inv = identity

    def compose(self, g, f):
        self._check_composable(g, f)
        return Morphism(f.dom, g.cod, None)

    def mor_eq(self, f, g):
        return f.dom == g.dom and f.cod == g.cod

    def render_mor(self, f):
        return f"!{self.render_obj(f.dom)}=>{self.render_obj(f.cod)}"


class FreeThinModel(ThinStructure, CategoryModel):
    """Thin category on free-magma terms.

    There is exactly one arrow between two terms carrying the same word of
    generators (for the one-generator alphabet: the same leaf count), so
    every diagram of structural arrows commutes and mor_eq degenerates to
    endpoint equality.  Tensor is the unital magma product.
    """

    is_strict = False
    _obj_kind, _show, _mismatch = "magma terms", staticmethod(render_term), "words differ"

    def __init__(self, generators: Sequence[str] = ("•",), name: str = "thin"):
        self.generators = tuple(generators)
        self.name = name

    def _check_obj(self, x) -> MagmaTerm:
        if not isinstance(x, MagmaTerm):
            raise self._foreign(x)
        return x

    def hom(self, x, y):
        try:
            same_word = forget_parens(x) == forget_parens(y)
        except AttributeError:
            raise self._foreign(x, y) from None
        return [Morphism(x, y, None)] if same_word else []

    @property
    def unit_obj(self):
        return UNIT

    def tensor_obj(self, x, y):
        return mag(self._check_obj(x), self._check_obj(y))

    def tensor_mor(self, f, g):
        try:
            return Morphism(mag(f.dom, g.dom), mag(f.cod, g.cod), None)
        except AttributeError:
            raise self._foreign(f.dom, f.cod, g.dom, g.cod) from None

    def associator(self, x, y, z):
        try:
            return self.the(mag(mag(x, y), z), mag(x, mag(y, z)))
        except AttributeError:
            raise self._foreign(x, y, z) from None

    def associator_inv(self, x, y, z):
        try:
            return self.the(mag(x, mag(y, z)), mag(mag(x, y), z))
        except AttributeError:
            raise self._foreign(x, y, z) from None

    def enumerate_objects(self, max_leaves: int) -> list[MagmaTerm]:
        """Terms up to a leaf bound: shapes filled with all label assignments."""
        out: list[MagmaTerm] = []
        for shape in enumerate_shapes(max_leaves):
            n = leaf_count(shape)
            if n == 0:
                out.append(shape)
                continue
            for labels in itertools.product(self.generators, repeat=n):
                out.append(attach_labels(shape, labels))
        return out

    def render_obj(self, x):
        return render_term(x)

    def parse_obj(self, text):
        return parse_generated_term(self, text)


class FreeMonoidThinModel(ThinStructure, CategoryModel):
    """Thin strict category on flat words, tensor by concatenation.

    One arrow between any two words of equal length; the ambient model for
    categories whose objects form a free monoid.
    """

    is_strict = True
    _obj_kind, _show, _mismatch = "words (tuples)", staticmethod(str), "lengths differ"

    def __init__(self, generators: Sequence[str] = ("x",), name: str = "words"):
        self.generators = tuple(generators)
        self.name = name

    def _check_obj(self, w) -> Word:
        if not isinstance(w, tuple):
            raise self._foreign(w)
        return w

    def hom(self, v, w):
        try:
            same_length = len(v) == len(w)
        except TypeError:
            raise self._foreign(v, w) from None
        return [Morphism(v, w, None)] if same_length else []

    @property
    def unit_obj(self) -> Word:
        return ()

    def tensor_obj(self, v, w):
        return self._check_obj(v) + self._check_obj(w)

    def tensor_mor(self, f, g):
        try:
            return Morphism(f.dom + g.dom, f.cod + g.cod, None)
        except TypeError:
            raise self._foreign(f.dom, f.cod, g.dom, g.cod) from None

    def enumerate_objects(self, max_len: int) -> list[Word]:
        out: list[Word] = []
        for n in range(max_len + 1):
            out.extend(itertools.product(self.generators, repeat=n))
        return out

    def render_obj(self, w):
        return render_word(w)

    def parse_obj(self, text):
        return parse_word(self, text)


class MatrixModCategory(CategoryModel):
    """Integer matrices with entries mod a small prime; strictly monoidal.

    Objects are dimensions, tensor is the Kronecker product.  Equality is
    exact integer arithmetic, which keeps every law check on the nose.
    """

    is_strict = True

    def __init__(self, modulus: int = 7, name: Optional[str] = None):
        if modulus < 2:
            raise ValueError("modulus must be at least 2")
        self.modulus = modulus
        self.name = name or f"mat{modulus}"

    def _check_obj(self, n) -> int:
        if not isinstance(n, (int, np.integer)) or n < 0:
            raise CompositionError(f"{self.name}: objects are nonnegative dimensions, got {n!r}")
        return int(n)

    def _mat(self, payload) -> np.ndarray:
        return np.asarray(payload, dtype=np.int64) % self.modulus

    def make_mor(self, dom: int, cod: int, entries) -> Morphism:
        mat = self._mat(entries)
        if mat.shape != (cod, dom):
            raise CompositionError(f"matrix of shape {mat.shape} is not a map {dom} -> {cod}")
        return Morphism(dom, cod, mat)

    def identity(self, n):
        n = self._check_obj(n)
        return Morphism(n, n, np.eye(n, dtype=np.int64))

    def compose(self, g, f):
        self._check_composable(g, f)
        return Morphism(f.dom, g.cod, (g.payload @ f.payload) % self.modulus)

    def mor_eq(self, f, g):
        return f.dom == g.dom and f.cod == g.cod and np.array_equal(f.payload, g.payload)

    @property
    def unit_obj(self) -> int:
        return 1

    def tensor_obj(self, m, n):
        return self._check_obj(m) * self._check_obj(n)

    def tensor_mor(self, f, g):
        return Morphism(
            f.dom * g.dom, f.cod * g.cod, np.kron(f.payload, g.payload) % self.modulus
        )

    def sample_morphisms(self, objects: Sequence[int], rng: random.Random, per_pair: int = 1) -> list[Morphism]:
        """Deterministic pseudo-random arrows between the given dimensions."""
        out = []
        for dom in objects:
            for cod in objects:
                for _ in range(per_pair):
                    entries = [[rng.randrange(self.modulus) for _ in range(dom)] for _ in range(cod)]
                    out.append(Morphism(int(dom), int(cod), self._mat(entries)))
        return out

    def parse_obj(self, text):
        try:
            value = int(text)
        except ValueError as exc:
            raise CompositionError(f"{self.name}: objects are integers, got {text!r}") from exc
        return self._check_obj(value)

    def render_mor(self, f):
        if f.dom == f.cod and np.array_equal(f.payload, np.eye(f.dom, dtype=np.int64)):
            return f"id[{f.dom}]"
        if f.payload.size <= 16:
            return f"{f.dom}->{f.cod}:{f.payload.tolist()}"
        return f"{f.dom}->{f.cod}:matrix{f.payload.shape}"


# The models that need no spec file, by name; each call builds a fresh one.
BUILTIN_MODELS = {
    "thin": lambda: FreeThinModel(name="thin"),
    "thin3": lambda: FreeThinModel(generators=("x", "y", "z"), name="thin3"),
    "words3": lambda: FreeMonoidThinModel(generators=("x", "y", "z"), name="words3"),
    "mat7": lambda: MatrixModCategory(modulus=7),
}


def default_universe(model: CategoryModel, max_leaves: int, seed: int) -> tuple[list, list[Morphism]]:
    """Objects and arrows to check a model over.

    Every object and arrow of a finite model; terms or words up to
    ``max_leaves`` entries for a thin model (at most 3 over several
    generators), with every arrow between them; dimensions 1-3 and seeded
    matrices between dimensions 1 and 2 for a matrix model.
    """
    objects = model.objects()
    if objects is None:
        if isinstance(model, ThinStructure):
            objects = model.enumerate_objects(max_leaves if len(model.generators) == 1 else min(max_leaves, 3))
        elif isinstance(model, MatrixModCategory):
            return [1, 2, 3], model.sample_morphisms([1, 2], random.Random(seed), per_pair=2)
        else:
            raise ValueError(f"cannot choose a universe for {model.name}")
    return objects, arrows_over(model, objects)


def validate_category(
    model: CategoryModel,
    objects: Optional[list] = None,
    morphisms: Optional[list[Morphism]] = None,
    seed: int = 0,
    max_instances: int = 20000,
    max_arrows: int = 400,
) -> LawReport:
    """Check the category and monoidal axioms over a universe of the model.

    Finite models are checked exhaustively; for infinite models the caller
    supplies object/arrow samples (or the model offers sample_morphisms) and
    oversized instance families are cut down deterministically from ``seed``.
    Arrow universes beyond ``max_arrows`` are likewise sampled, since the
    composable-pair scan is quadratic in them.
    """
    rng = random.Random(seed)
    report = LawReport(law=f"validate:{model.name}", seed=seed)

    if objects is None:
        objects = model.objects()
    if objects is None:
        raise ValueError(f"{model.name} is not finitely enumerable; pass an object sample")
    if morphisms is None:
        morphisms = model.morphisms()
    if morphisms is None:
        morphisms = arrows_over(model, objects)
    if morphisms is None:
        sampler = getattr(model, "sample_morphisms", None)
        if sampler is None:
            raise ValueError(f"{model.name} cannot enumerate arrows; pass a morphism sample")
        morphisms = sampler(objects, rng)
    if len(morphisms) > max_arrows:
        morphisms = rng.sample(morphisms, max_arrows)

    def bounded(*pools):
        """The full product when it fits the budget, else seeded draws from it."""
        total = 1
        for pool in pools:
            total *= len(pool)
        if total <= max_instances:
            yield from itertools.product(*pools)
        else:
            for _ in range(max_instances):
                yield tuple(pool[rng.randrange(len(pool))] for pool in pools)

    def fail(law: str, instance, lhs, rhs):
        # instance descriptors are built lazily; rendering every passing
        # instance (matrices especially) would dominate the runtime
        report.record_failure(
            law,
            instance() if callable(instance) else instance,
            lhs if isinstance(lhs, str) else model.render_mor(lhs),
            rhs if isinstance(rhs, str) else model.render_mor(rhs),
        )

    def expect(law: str, instance, lhs: Morphism, rhs: Morphism):
        report.count()
        if not model.mor_eq(lhs, rhs):
            fail(law, instance, lhs, rhs)

    ro = model.render_obj

    # identities and unit laws of composition
    for x in objects:
        i = model.identity(x)
        report.count()
        if not (model.obj_eq(i.dom, x) and model.obj_eq(i.cod, x)):
            fail("identity-endpoints", ro(x), i, "expected endo-arrow")
    for f in morphisms:
        label = lambda f=f: model.render_mor(f)
        expect("compose-unit-right", label, model.compose(f, model.identity(f.dom)), f)
        expect("compose-unit-left", label, model.compose(model.identity(f.cod), f), f)

    # associativity of composition
    pairs = [(g, f) for g in morphisms for f in morphisms if model.obj_eq(f.cod, g.dom)]
    for (h, g), f in bounded(pairs, morphisms):
        if not model.obj_eq(f.cod, g.dom):
            continue
        expect(
            "compose-assoc",
            lambda h=h, g=g, f=f: f"{model.render_mor(h)};{model.render_mor(g)};{model.render_mor(f)}",
            model.compose(model.compose(h, g), f),
            model.compose(h, model.compose(g, f)),
        )

    # functoriality of tensor
    for x, y in bounded(objects, objects):
        expect(
            "tensor-identities",
            lambda x=x, y=y: f"{ro(x)},{ro(y)}",
            model.tensor_mor(model.identity(x), model.identity(y)),
            model.identity(model.tensor_obj(x, y)),
        )
    for (g, f), (g2, f2) in bounded(pairs, pairs):
        expect(
            "tensor-interchange",
            lambda g=g, f=f, g2=g2, f2=f2: (
                f"({model.render_mor(g)}o{model.render_mor(f)})x({model.render_mor(g2)}o{model.render_mor(f2)})"
            ),
            model.tensor_mor(model.compose(g, f), model.compose(g2, f2)),
            model.compose(model.tensor_mor(g, g2), model.tensor_mor(f, f2)),
        )

    # structural families: endpoints, invertibility, naturality
    unit = model.unit_obj
    for x in objects:
        lun, lun_inv = model.lunitor(x), model.lunitor_inv(x)
        run, run_inv = model.runitor(x), model.runitor_inv(x)
        report.count()
        if not (model.obj_eq(lun.dom, model.tensor_obj(unit, x)) and model.obj_eq(lun.cod, x)):
            fail("lunitor-endpoints", ro(x), lun, "expected unit(x)x -> x")
        report.count()
        if not (model.obj_eq(run.dom, model.tensor_obj(x, unit)) and model.obj_eq(run.cod, x)):
            fail("runitor-endpoints", ro(x), run, "expected x(x)unit -> x")
        label = lambda x=x: ro(x)
        expect("lunitor-inverse", label, model.compose(lun, lun_inv), model.identity(x))
        expect("lunitor-inverse'", label, model.compose(lun_inv, lun), model.identity(lun.dom))
        expect("runitor-inverse", label, model.compose(run, run_inv), model.identity(x))
        expect("runitor-inverse'", label, model.compose(run_inv, run), model.identity(run.dom))
    expect("unitors-at-unit", ro(unit), model.lunitor(unit), model.runitor(unit))

    obj_triples = list(bounded(objects, objects, objects))
    for x, y, z in obj_triples:
        a, a_inv = model.associator(x, y, z), model.associator_inv(x, y, z)
        left = model.tensor_obj(model.tensor_obj(x, y), z)
        right = model.tensor_obj(x, model.tensor_obj(y, z))
        label = lambda x=x, y=y, z=z: f"{ro(x)},{ro(y)},{ro(z)}"
        report.count()
        if not (model.obj_eq(a.dom, left) and model.obj_eq(a.cod, right)):
            fail("associator-endpoints", label, a, "expected (xy)z -> x(yz)")
        expect("associator-inverse", label, model.compose(a, a_inv), model.identity(right))
        expect("associator-inverse'", label, model.compose(a_inv, a), model.identity(left))

    for f in morphisms:
        label = lambda f=f: model.render_mor(f)
        expect(
            "lunitor-natural",
            label,
            model.compose(model.lunitor(f.cod), model.tensor_mor(model.identity(unit), f)),
            model.compose(f, model.lunitor(f.dom)),
        )
        expect(
            "runitor-natural",
            label,
            model.compose(model.runitor(f.cod), model.tensor_mor(f, model.identity(unit))),
            model.compose(f, model.runitor(f.dom)),
        )
    for f, g, h in bounded(morphisms, morphisms, morphisms):
        lhs = model.compose(
            model.associator(f.cod, g.cod, h.cod),
            model.tensor_mor(model.tensor_mor(f, g), h),
        )
        rhs = model.compose(
            model.tensor_mor(f, model.tensor_mor(g, h)),
            model.associator(f.dom, g.dom, h.dom),
        )
        expect(
            "associator-natural",
            lambda f=f, g=g, h=h: f"{model.render_mor(f)};{model.render_mor(g)};{model.render_mor(h)}",
            lhs,
            rhs,
        )

    # pentagon and triangle
    for x, y, z, m in bounded(objects, objects, objects, objects):
        report.count()
        if not check_pentagon(model, x, y, z, m):
            fail("pentagon", f"{ro(x)},{ro(y)},{ro(z)},{ro(m)}", "left route", "right route")

    for x, y in bounded(objects, objects):
        report.count()
        if not check_triangle(model, x, y):
            fail("triangle", f"{ro(x)},{ro(y)}", "via associator", "runitor x id")

    # a strict flag must mean identity constraints
    if model.is_strict:
        for x, y, z in obj_triples:
            expect(
                "strict-associator-identity",
                lambda x=x, y=y, z=z: f"{ro(x)},{ro(y)},{ro(z)}",
                model.associator(x, y, z),
                model.identity(model.tensor_obj(model.tensor_obj(x, y), z)),
            )
        for x in objects:
            expect("strict-lunitor-identity", ro(x), model.lunitor(x), model.identity(x))
            expect("strict-runitor-identity", ro(x), model.runitor(x), model.identity(x))

    return report
