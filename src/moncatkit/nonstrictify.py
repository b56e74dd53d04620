"""Non-strictification, and the construction core it shares with strictification.

Both constructions take as objects finite sequences of ambient objects with
a bracketing, and transport arrows along the bracketed product ``Par``.  A
``QObject`` carries its bracketing as a shape; a ``StrObject`` is always
bracketed as the left comb, so ``C^str`` is ``C_q`` on left combs.  How an
object folds and how two objects ``join`` differ; everything else is
written once here, the tensor included: the base tensor conjugated by the
structural arrow from the pair of the two shapes to the shape of the join
(``theta`` for sequences, nothing or a unitor for shaped sequences).  That
arrow, like ``theta``, ``rho`` and ``coherence``, comes from one engine,
``comb_factors``.  Pairing shapes is only associative up to ``assoc_q``, so
``C_q`` is non-strict even over a strict base.  Each construction owns its
object syntax (``parse_obj``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from operator import add
from typing import Callable, Sequence

from .core import (
    CategoryModel,
    CompositionError,
    Factor,
    MonFunctorData,
    Morphism,
    NatTransData,
    interpret_factor,
    invert_factors,
    strict_functor,
)
from .terms import (
    UNIT,
    Leaf,
    MagmaTerm,
    collapse,
    forget_parens,
    is_shape,
    leaf_count,
    left_comb,
    mag,
    parse_generated_term,
    parse_term,
    render_term,
    shapes_with_leaves,
)


@dataclass(frozen=True)
class StrObject:
    """A finite sequence of ambient objects, bracketed as the left comb; equality is entrywise."""

    seq: tuple

    def __len__(self):
        return len(self.seq)

    def __iter__(self):
        return iter(self.seq)

    @classmethod
    def comb(cls, entries: tuple) -> "StrObject":
        return cls(entries)

    @property
    def shape(self) -> MagmaTerm:
        return left_comb(len(self.seq))

    def join(self, other: "StrObject") -> "StrObject":
        """Concatenation, bracketed as the left comb again."""
        return StrObject(self.seq + other.seq)

    def map_entries(self, fn) -> "StrObject":
        return StrObject(tuple(map(fn, self.seq)))

    def fold(self, node, leaf=None):
        """Fold the nonempty entries as the left comb, one entry at a time from the left."""
        entries = iter(self.seq)
        acc = next(entries)
        if leaf is not None:
            acc = leaf(acc)
        for x in entries:
            acc = node(acc, x if leaf is None else leaf(x))
        return acc


EMPTY_SEQ = StrObject(())


# Shared left combs: the embeddings build one-entry objects by the hundred
# thousand, and building left_comb(1) or left_comb(2) afresh costs ten to
# twenty times a cache hit; without the cache `check --suite adjunction-q`
# takes about 10% more CPU time (Python 3.11, 2-core VM).
_left_comb = lru_cache(maxsize=64)(left_comb)


@dataclass(frozen=True)
class QObject:
    """A sequence of ambient objects shaped by a parenthesization tree."""

    seq: tuple
    shape: MagmaTerm

    def __post_init__(self):
        if not isinstance(self.shape, MagmaTerm) or not is_shape(self.shape):
            raise ValueError("the shape component must be a bullet term")
        if leaf_count(self.shape) != len(self.seq):
            raise ValueError(
                f"shape with {leaf_count(self.shape)} leaves does not fit {len(self.seq)} entries"
            )

    @classmethod
    def comb(cls, entries: tuple) -> "QObject":
        """The entries on the left comb: the shaped twin of ``StrObject(entries)``."""
        return cls(entries, _left_comb(len(entries)))

    def join(self, other: "QObject") -> "QObject":
        """Concatenation, shaped by the pair of the two shapes."""
        return QObject(self.seq + other.seq, mag(self.shape, other.shape))

    def map_entries(self, fn) -> "QObject":
        return QObject(tuple(map(fn, self.seq)), self.shape)

    def fold(self, node, leaf=None):
        """Fold the nonempty entries along the shape: split at the top pair, fold both halves."""
        seq = self.seq

        def go(shape: MagmaTerm, offset: int):
            if isinstance(shape, Leaf):
                return (seq[offset] if leaf is None else leaf(seq[offset])), offset + 1
            left, offset = go(shape.left, offset)
            right, offset = go(shape.right, offset)
            return node(left, right), offset

        return go(self.shape, 0)[0]


EMPTY_Q = QObject((), UNIT)


def _as_obj(o):
    """Objects of either construction; a bare tuple of entries is a strict sequence."""
    return o if isinstance(o, (StrObject, QObject)) else StrObject(tuple(o))


def par_q(model: CategoryModel, o):
    """Tensor of the entries, parenthesized like the object; the unit object when empty."""
    return o.fold(model.tensor_obj) if o.seq else model.unit_obj


star_q_objects = QObject.join


# -- the structural arrow between two bracketings ----------------------------------


def comb_factors(model: CategoryModel, shape: MagmaTerm, entries: tuple) -> list[Factor]:
    """Structural factors from the entries bracketed by ``shape`` to their left comb.

    At each pair both halves go to their combs first (the left one padded on
    the right by the right half's product, the right one padded on the left
    by the left comb), then one ``a_inv`` per right-half entry after the
    first, last entry first, moves the right comb onto the left one.  Each
    subtree passes up its product along the shape and the products of its
    comb's prefixes, so no product is folded twice.
    """
    tensor = model.tensor_obj
    factors: list[Factor] = []

    def go(node: MagmaTerm, offset: int):
        if isinstance(node, Leaf):
            return entries[offset], [entries[offset]]
        start = len(factors)
        left, combs = go(node.left, offset)
        middle, offset = len(factors), offset + len(combs)
        right, right_combs = go(node.right, offset)
        done, rest = combs[-1], entries[offset : offset + len(right_combs)]
        factors[start:middle] = [factor.wrap_right(right) for factor in factors[start:middle]]
        factors[middle:] = [factor.wrap_left(done) for factor in factors[middle:]]
        wraps: tuple = ()
        for j in range(len(rest) - 1, 0, -1):
            factors.append(Factor("a_inv", (done, right_combs[j - 1], rest[j]), wraps))
            wraps = (("R", rest[j]),) + wraps
        for x in rest:
            combs.append(tensor(combs[-1], x))
        return tensor(left, right), combs

    if len(entries) > 1:
        go(shape, 0)
    return factors


def shape_factors(model: CategoryModel, entries: tuple, source: MagmaTerm, target: MagmaTerm) -> list[Factor]:
    """The structural arrow between two bracketings of the same entries, through their left comb."""
    if source == target:
        return []
    return comb_factors(model, source, entries) + invert_factors(comb_factors(model, target, entries))


def join_factors(model: CategoryModel, o, p) -> list[Factor]:
    """Structural factors Par(o) (x) Par(p) -> Par(o.join(p)); a unitor when a side is empty."""
    o, p = _as_obj(o), _as_obj(p)
    if not o.seq:
        return [Factor("l", (par_q(model, p),))]
    if not p.seq:
        return [Factor("r", (par_q(model, o),))]
    joined = o.join(p)
    return shape_factors(model, joined.seq, mag(o.shape, p.shape), joined.shape)


def star_arrows(model: CategoryModel, f: Morphism, g: Morphism) -> Morphism:
    """Tensor of arrows in either construction: the base tensor conjugated by the join arrows."""
    payload = model.tensor_mor(f.payload, g.payload)
    for factor in join_factors(model, f.dom, g.dom):
        payload = model.compose(payload, interpret_factor(model, factor.inverted()))
    for factor in join_factors(model, f.cod, g.cod):
        payload = model.compose(interpret_factor(model, factor), payload)
    return Morphism(f.dom.join(g.dom), f.cod.join(g.cod), payload)


star_q_arrows = star_arrows


def assoc_q(model: CategoryModel, o: QObject, p: QObject, q: QObject) -> Morphism:
    """Associativity arrow; its endpoints differ as objects for nonempty factors.

    With an empty factor both bracketings are the same object and the
    component reduces to the identity (the ambient component conjugated by
    unitors collapses, by the standard unit coherence lemmas).
    """
    dom = star_q_objects(star_q_objects(o, p), q)
    cod = star_q_objects(o, star_q_objects(p, q))
    if not (o.seq and p.seq and q.seq):
        return Morphism(dom, cod, model.identity(par_q(model, dom)))
    payload = model.associator(par_q(model, o), par_q(model, p), par_q(model, q))
    return Morphism(dom, cod, payload)


def assoc_q_inv(model: CategoryModel, o: QObject, p: QObject, q: QObject) -> Morphism:
    dom = star_q_objects(o, star_q_objects(p, q))
    cod = star_q_objects(star_q_objects(o, p), q)
    if not (o.seq and p.seq and q.seq):
        return Morphism(dom, cod, model.identity(par_q(model, dom)))
    payload = model.associator_inv(par_q(model, o), par_q(model, p), par_q(model, q))
    return Morphism(dom, cod, payload)


def qobjs_over(objects: Sequence, max_leaves: int) -> list[QObject]:
    """Shaped sequences over the given objects, entries assigned cyclically.

    All assignments are enumerated up to two leaves; beyond that each shape
    is filled once, cycling through the object list, which keeps universes
    small but still exercises every shape.
    """
    out = [EMPTY_Q]
    objects = list(objects)
    for n in range(1, max_leaves + 1):
        for shape in shapes_with_leaves(n):
            if n <= 2:
                for combo in product(objects, repeat=n):
                    out.append(QObject(combo, shape))
            else:
                combo = tuple(objects[i % len(objects)] for i in range(n))
                out.append(QObject(combo, shape))
    return out


# -- transported categories ------------------------------------------------------


class TransportedModel:
    """A category whose arrows are base arrows between the images of ``par``.

    Subclasses pair this mixin with ``CategoryModel`` and supply the object
    type and the monoidal structure; ``par`` folds the object.  A mixin, so
    that bench/tracer.py times each method once, under the concrete class.
    All four transported categories have identity unitors; the two
    constructions extend it as ``Construction``, the two realisations as
    ``Realisation``.
    """

    obj_type: type
    obj_kind: str
    suffix: str

    def __init__(self, base: CategoryModel):
        self.base = base
        self.name = f"{base.name}{self.suffix}"

    def _check_obj(self, o):
        if not isinstance(o, self.obj_type):
            raise CompositionError(f"{self.name}: objects are {self.obj_kind}, got {o!r}")
        return o

    def par(self, o):
        return par_q(self.base, self._check_obj(o))

    def hom(self, o, p):
        base_hom = self.base.hom(self.par(o), self.par(p))
        if base_hom is None:
            return None
        return [Morphism(o, p, payload) for payload in base_hom]

    def identity(self, o):
        return Morphism(o, o, self.base.identity(self.par(o)))

    def compose(self, g, f):
        self._check_composable(g, f)
        return Morphism(f.dom, g.cod, self.base.compose(g.payload, f.payload))

    def mor_eq(self, f, g):
        return f.dom == g.dom and f.cod == g.cod and self.base.mor_eq(f.payload, g.payload)

    lunitor = lunitor_inv = runitor = runitor_inv = identity

    def render_mor(self, f):
        return f"{self.render_obj(f.dom)}=>{self.render_obj(f.cod)}[{self.base.render_mor(f.payload)}]"


class Construction(TransportedModel):
    """``C^str`` or ``C_q``: the tensor, and the embedding with its coherence arrows.

    Subclasses also set ``tag`` (law reports), ``induced_suffix``,
    ``lift_suffix`` and ``embed_name`` (names of what the construction
    builds) and ``objects_over`` (small universes of objects).
    """

    @classmethod
    def embed(cls, x):
        """The one-entry object of a base object."""
        return cls.obj_type.comb((x,))

    @classmethod
    def embed_arrow(cls, f: Morphism) -> Morphism:
        """A base arrow between one-entry objects."""
        return Morphism(cls.embed(f.dom), cls.embed(f.cod), f)

    @classmethod
    def eta(cls, model: CategoryModel, x, y) -> Morphism:
        """embed(x) * embed(y) -> embed(x (x) y): the embedding's gamma, an identity payload."""
        return delta_q(model, cls.obj_type.comb((x, y)))

    @classmethod
    def unit_u(cls, model: CategoryModel) -> Morphism:
        """The empty object -> embed(I): the embedding's unit arrow."""
        return delta_q(model, cls.obj_type.comb(()))

    def tensor_obj(self, o, p):
        return self._check_obj(o).join(self._check_obj(p))

    def tensor_mor(self, f, g):
        return star_arrows(self.base, f, g)


class NonStrictifiedModel(Construction, CategoryModel):
    """Shaped sequences over a base model; never strict for nonempty shapes."""

    is_strict = False
    obj_type, obj_kind, suffix = QObject, "shaped sequences", "_q"
    tag, induced_suffix, lift_suffix, embed_name = "q", "_q", "^q", "j"
    objects_over = staticmethod(qobjs_over)

    @property
    def unit_obj(self) -> QObject:
        return EMPTY_Q

    def associator(self, o, p, q):
        return assoc_q(self.base, o, p, q)

    def associator_inv(self, o, p, q):
        return assoc_q_inv(self.base, o, p, q)

    def render_obj(self, o):
        if not o.seq:
            return "(;1)"
        entries = ",".join(self.base.render_obj(x) for x in o.seq)
        return f"({entries};{render_term(o.shape)})"

    def parse_obj(self, text):
        """A term over base object ids: its leaves are the entries, its bracketing the shape."""
        term = parse_term(text)
        return QObject(tuple(self.base.parse_obj(label) for label in forget_parens(term)), collapse(term))


def construction(cls: type, base: CategoryModel):
    """The construction ``cls`` over a model, built once and kept on the model.

    A global weak-keyed table would keep every model alive: its value, the
    construction, refers to the model.
    """
    built = vars(base).setdefault("_constructions", {})
    model = built.get(cls)
    if model is None:
        model = built[cls] = cls(base)
    return model


def q_model(base: CategoryModel) -> NonStrictifiedModel:
    """The shaped-sequence category of a model (one shared instance per model)."""
    return construction(NonStrictifiedModel, base)


# -- the canonical embedding ----------------------------------------------------


embed_j = NonStrictifiedModel.embed
embed_j_mor = NonStrictifiedModel.embed_arrow
eta_q = NonStrictifiedModel.eta
unit_uq = NonStrictifiedModel.unit_u


def delta_q(model: CategoryModel, o) -> Morphism:
    """The arrow from an object to the one-entry object of its product.

    Every coherence arrow of the embedding is one of these: ``eta`` at a
    two-entry object and the unit arrow at the empty one.
    """
    o = _as_obj(o)
    par = par_q(model, o)
    return Morphism(o, type(o).comb((par,)), model.identity(par))


def delta_q_inv(model: CategoryModel, o) -> Morphism:
    arrow = delta_q(model, o)
    return Morphism(arrow.cod, arrow.dom, arrow.payload)


def embedding(cls: type, model: CategoryModel) -> MonFunctorData:
    """The embedding into the construction ``cls`` as a strong monoidal functor."""
    obj = cls.obj_type
    return MonFunctorData(
        source=model,
        target=construction(cls, model),
        obj_map=cls.embed,
        mor_map=cls.embed_arrow,
        gamma=lambda x, y: delta_q(model, obj.comb((x, y))),
        gamma_inv=lambda x, y: delta_q_inv(model, obj.comb((x, y))),
        u=delta_q(model, obj.comb(())),
        u_inv=delta_q_inv(model, obj.comb(())),
        strength="strong",
        name=f"{cls.embed_name}[{model.name}]",
    )


def embed_j_functor(model: CategoryModel) -> MonFunctorData:
    return embedding(NonStrictifiedModel, model)


# -- universal property -----------------------------------------------------------


def image_fold_q(functor: MonFunctorData, o):
    """Target product of the entrywise images, parenthesized like the object."""
    o = _as_obj(o)
    d = functor.target
    return o.fold(d.tensor_obj, functor.obj_map) if o.seq else d.unit_obj


def beta_q(functor: MonFunctorData, o) -> Morphism:
    """Comparison arrow from the folded image to the image of the product.

    Unit coherence at the empty object, identity at one entry, then one
    gamma step per bracket of the fold.
    """
    o = _as_obj(o)
    if not o.seq:
        return functor.u
    c, d = functor.source, functor.target

    def node(left, right):
        (x, f), (y, g) = left, right
        return c.tensor_obj(x, y), d.compose(functor.gamma(x, y), d.tensor_mor(f, g))

    return o.fold(node, lambda x: (x, d.identity(functor.obj_map(x))))[1]


def beta_q_inv(functor: MonFunctorData, o) -> Morphism:
    if not functor.is_strong:
        raise ValueError(f"{functor.name}: beta is invertible only for strong functors")
    o = _as_obj(o)
    if not o.seq:
        return functor.u_inv
    c, d = functor.source, functor.target

    def node(left, right):
        (x, f), (y, g) = left, right
        return c.tensor_obj(x, y), d.compose(d.tensor_mor(f, g), functor.gamma_inv(x, y))

    return o.fold(node, lambda x: (x, d.identity(functor.obj_map(x))))[1]


def _transport_arrow(functor: MonFunctorData, f: Morphism) -> Morphism:
    """beta-conjugate of the image of an arrow's payload."""
    d = functor.target
    lo = beta_q(functor, f.dom)
    hi = beta_q_inv(functor, f.cod)
    return d.compose(hi, d.compose(functor.mor_map(f.payload), lo))


def _fold_components(alpha: NatTransData, o) -> Morphism:
    """The components at the entries, tensored like the object."""
    o = _as_obj(o)
    d = alpha.dom.target
    return o.fold(d.tensor_mor, alpha.component) if o.seq else d.identity(d.unit_obj)


def lift(cls: type, functor: MonFunctorData, allow_any_target: bool = False) -> MonFunctorData:
    """The unique strict monoidal extension of a strong functor along the embedding.

    The target should be as strict as the construction ``cls``; the flag
    check can be overridden since the construction itself never uses it.
    """
    if not functor.is_strong:
        raise ValueError(f"{functor.name}: only strong functors lift")
    d = functor.target
    if d.is_strict != cls.is_strict and not allow_any_target:
        state = "strict" if d.is_strict else "not strict"
        raise ValueError(f"{functor.name}: target {d.name} is {state}")
    return strict_functor(
        construction(cls, functor.source),
        d,
        lambda o: image_fold_q(functor, o),
        lambda f: _transport_arrow(functor, f),
        f"{functor.name}{cls.lift_suffix}",
    )


def lift_nat(cls: type, alpha: NatTransData, allow_any_target: bool = False) -> NatTransData:
    """Lift of a monoidal transformation: components folded like the object."""
    return NatTransData(
        dom=lift(cls, alpha.dom, allow_any_target),
        cod=lift(cls, alpha.cod, allow_any_target),
        component=lambda o: _fold_components(alpha, o),
        name=f"{alpha.name}{cls.lift_suffix}",
    )


def lift_nonstrict(functor: MonFunctorData, allow_strict_target: bool = False) -> MonFunctorData:
    """The unique strict monoidal extension along the shaped embedding, into a non-strict target."""
    return lift(NonStrictifiedModel, functor, allow_strict_target)


def lift_nat_nonstrict(alpha: NatTransData, allow_strict_target: bool = False) -> NatTransData:
    return lift_nat(NonStrictifiedModel, alpha, allow_strict_target)


# -- the 2-functors -----------------------------------------------------------------


def induced_functor(cls: type, functor: MonFunctorData) -> MonFunctorData:
    """Entrywise image with the bracketing kept; arrows transported through beta."""
    suffix = cls.induced_suffix
    if not functor.is_strong:
        raise ValueError(f"{functor.name}: only strong functors induce {functor.name}{suffix}")

    def obj_map(o):
        return o.map_entries(functor.obj_map)

    def mor_map(f: Morphism) -> Morphism:
        return Morphism(obj_map(f.dom), obj_map(f.cod), _transport_arrow(functor, f))

    return strict_functor(
        construction(cls, functor.source),
        construction(cls, functor.target),
        obj_map,
        mor_map,
        f"{functor.name}{suffix}",
    )


def induced_nat(cls: type, alpha: NatTransData) -> NatTransData:
    """Components tensored like each object."""
    f_ind = induced_functor(cls, alpha.dom)
    g_ind = induced_functor(cls, alpha.cod)

    def component(o) -> Morphism:
        return Morphism(f_ind.obj_map(o), g_ind.obj_map(o), _fold_components(alpha, o))

    return NatTransData(dom=f_ind, cod=g_ind, component=component, name=f"{alpha.name}{cls.induced_suffix}")


def q_functor(functor: MonFunctorData) -> MonFunctorData:
    return induced_functor(NonStrictifiedModel, functor)


def q_nat(alpha: NatTransData) -> NatTransData:
    return induced_nat(NonStrictifiedModel, alpha)


# -- realisation for categories with free-monoid objects --------------------------------


def free_generators(model: CategoryModel, letter, product, kind: str) -> tuple:
    """The generators of a model whose tensor is the free ``product`` of its letters."""
    generators = getattr(model, "generators", None)
    if not generators:
        raise ValueError(f"{model.name}: realisation needs a model with {kind} objects")
    x = letter(generators[0])
    if model.tensor_obj(x, x) != product(x, x):
        raise ValueError(f"{model.name}: tensor is not the free {kind} product")
    return tuple(generators)


def seq_q(term: MagmaTerm) -> QObject:
    """Shaped sequence of one-letter words spelled by a term."""
    return QObject(tuple((x,) for x in forget_parens(term)), collapse(term))


class Realisation(TransportedModel):
    """A free model whose objects ``spell`` objects of a construction over the base.

    Arrows, and their tensor, are the construction's at the spelled objects.
    """

    spell: Callable
    free: tuple  # (letter, product, kind) for free_generators

    def __init__(self, base: CategoryModel):
        self.generators = free_generators(base, *self.free)
        super().__init__(base)

    def par(self, v):
        return par_q(self.base, self.spell(self._check_obj(v)))

    def tensor_mor(self, f, g):
        spell = self.spell
        lifted = star_arrows(
            self.base,
            Morphism(spell(f.dom), spell(f.cod), f.payload),
            Morphism(spell(g.dom), spell(g.cod), g.payload),
        )
        return Morphism(self.tensor_obj(f.dom, g.dom), self.tensor_obj(f.cod, g.cod), lifted.payload)


def sequencing(realised: Realisation, target, name: str) -> MonFunctorData:
    """Sequencing as a strict monoidal functor from a realisation into its construction."""
    spell = realised.spell
    return strict_functor(
        realised,
        target,
        spell,
        lambda f: Morphism(spell(f.dom), spell(f.cod), f.payload),
        name,
    )


class RealisedTermCategory(Realisation, CategoryModel):
    """Free-magma objects over a word-object model, homs through shaped sequencing."""

    is_strict = False
    obj_type, obj_kind, suffix = MagmaTerm, "magma terms", "~terms"
    spell, free = staticmethod(seq_q), (lambda x: (x,), add, "word")

    @property
    def unit_obj(self) -> MagmaTerm:
        return UNIT

    def tensor_obj(self, v, w):
        return mag(self._check_obj(v), self._check_obj(w))

    def associator(self, u, v, w):
        lifted = assoc_q(self.base, seq_q(u), seq_q(v), seq_q(w))
        return Morphism(mag(mag(u, v), w), mag(u, mag(v, w)), lifted.payload)

    def associator_inv(self, u, v, w):
        lifted = assoc_q_inv(self.base, seq_q(u), seq_q(v), seq_q(w))
        return Morphism(mag(u, mag(v, w)), mag(mag(u, v), w), lifted.payload)

    def render_obj(self, v):
        return render_term(v)

    def parse_obj(self, text):
        return parse_generated_term(self, text)


realise_tilde_q = RealisedTermCategory


def seq_term_functor(model: CategoryModel) -> MonFunctorData:
    """Shaped sequencing as a strict monoidal functor from the term realisation."""
    return sequencing(RealisedTermCategory(model), q_model(model), f"SeqQ[{model.name}]")
