"""Strictification: the sequence category, its coherence arrows and lifts.

Objects here are finite sequences of ambient objects; an arrow between two
sequences is exactly an ambient arrow between their left-nested products.
A sequence is a shaped sequence on the left comb, so everything but the
tensor is the construction core in ``nonstrictify.py``, and the names here
are its strict instances.  Concatenation makes the result a strict monoidal
category; the coherence arrow ``theta`` mediates between the product of two
parenthesizations and the parenthesization of the concatenation.
"""

from __future__ import annotations

from typing import Sequence

from .core import (
    CategoryModel,
    CompositionError,
    Factor,
    MonFunctorData,
    Morphism,
    NatTransData,
    compose_factors,
)
from .nonstrictify import (
    EMPTY_SEQ,
    Construction,
    StrObject,
    TransportedModel,
    _as_obj,
    construction,
    embedding,
    free_generators,
    induced_functor,
    induced_nat,
    lift,
    lift_nat,
    par_q,
    sequencing,
)
from .nonstrictify import beta_q as beta
from .nonstrictify import beta_q_inv as beta_inv
from .nonstrictify import delta_q as delta
from .nonstrictify import delta_q_inv as delta_inv
from .nonstrictify import image_fold_q as image_fold
from .terms import Leaf, MagmaTerm, Word, forget_parens, leaf_count, mag, parse_word, render_word


def par_seq(model: CategoryModel, s) -> object:
    """Left-nested tensor of the entries; the unit object for the empty sequence."""
    return par_q(model, _as_obj(s))


def star_objects(s, t) -> StrObject:
    return StrObject(_as_obj(s).seq + _as_obj(t).seq)


def seqs_over(objects: Sequence, max_len: int) -> list[StrObject]:
    """All sequences over the given objects up to the length bound."""
    out = [EMPTY_SEQ]
    layer: list[tuple] = [()]
    for _ in range(max_len):
        layer = [prefix + (x,) for prefix in layer for x in objects]
        out.extend(StrObject(entry) for entry in layer)
    return out


# -- the coherence arrow theta -------------------------------------------------


def theta_factors(model: CategoryModel, s, t) -> list[Factor]:
    """Structural factor list for Par(s) (x) Par(t) -> Par(s*t).

    Recursion peels the last entry of the second sequence; the base cases
    are the left unitor (empty first argument), the right unitor (empty
    second argument) and the identity (one entry on the right).
    """
    s, t = _as_obj(s), _as_obj(t)
    if not s.seq:
        return [Factor("l", (par_seq(model, t),))]
    if not t.seq:
        return [Factor("r", (par_seq(model, s),))]
    if len(t) == 1:
        return []
    front, last = StrObject(t.seq[:-1]), t.seq[-1]
    inner = theta_factors(model, s, front)
    step = Factor("a_inv", (par_seq(model, s), par_seq(model, front), last))
    return [step] + [factor.wrap_right(last) for factor in inner]


def theta(model: CategoryModel, s, t) -> Morphism:
    dom = model.tensor_obj(par_seq(model, s), par_seq(model, t))
    return compose_factors(model, theta_factors(model, s, t), dom)


def theta_inv(model: CategoryModel, s, t) -> Morphism:
    dom = par_seq(model, star_objects(s, t))
    factors = [factor.inverted() for factor in reversed(theta_factors(model, s, t))]
    return compose_factors(model, factors, dom)


def star_arrows(model: CategoryModel, f: Morphism, g: Morphism) -> Morphism:
    """Concatenation of sequence arrows, via conjugation by theta."""
    s1, t1 = f.dom, g.dom
    s2, t2 = f.cod, g.cod
    payload = model.compose(
        theta(model, s2, t2),
        model.compose(model.tensor_mor(f.payload, g.payload), theta_inv(model, s1, t1)),
    )
    return Morphism(star_objects(s1, t1), star_objects(s2, t2), payload)


# -- the strict sequence category ------------------------------------------------


class StrictifiedModel(Construction, CategoryModel):
    """Sequences of base objects with hom-sets transported along Par."""

    is_strict = True
    obj_type, obj_kind, suffix = StrObject, "sequences", "^seq"
    tag, induced_suffix, lift_suffix, embed_name = "str", "^str", "^", "i"
    objects_over = staticmethod(seqs_over)

    @property
    def unit_obj(self):
        return EMPTY_SEQ

    def tensor_obj(self, s, t):
        return star_objects(self._check_obj(s), self._check_obj(t))

    def tensor_mor(self, f, g):
        return star_arrows(self.base, f, g)

    def render_obj(self, s):
        if not s.seq:
            return "()"
        return "(" + ",".join(self.base.render_obj(x) for x in s.seq) + ")"

    def parse_obj(self, text):
        """Base objects separated by commas; "", "1" and "()" are the empty sequence."""
        text = text.strip()
        if text in ("", "()", "1"):
            return EMPTY_SEQ
        return StrObject(tuple(self.base.parse_obj(part.strip()) for part in text.split(",")))


def str_model(base: CategoryModel) -> StrictifiedModel:
    """The sequence category of a model (one shared instance per model)."""
    return construction(StrictifiedModel, base)


# -- the canonical embedding and its coherence data -------------------------------


embed_i = StrictifiedModel.embed
embed_i_mor = StrictifiedModel.embed_arrow
eta = StrictifiedModel.eta
unit_u = StrictifiedModel.unit_u


def embed_functor(model: CategoryModel) -> MonFunctorData:
    """The embedding as a strong monoidal functor into the sequence category."""
    return embedding(StrictifiedModel, model)


# -- universal property and the strictification 2-functor ---------------------------


def lift_strict(functor: MonFunctorData, allow_nonstrict_target: bool = False) -> MonFunctorData:
    """The unique strict monoidal extension of a strong functor along the embedding."""
    return lift(StrictifiedModel, functor, allow_nonstrict_target)


def lift_nat_strict(alpha: NatTransData, allow_nonstrict_target: bool = False) -> NatTransData:
    """Lift of a monoidal transformation: entrywise components, folded."""
    return lift_nat(StrictifiedModel, alpha, allow_nonstrict_target)


def str_functor(functor: MonFunctorData) -> MonFunctorData:
    """Entrywise image on sequences; arrows transported through beta."""
    return induced_functor(StrictifiedModel, functor)


def str_nat(alpha: NatTransData) -> NatTransData:
    """Strictified transformation: the left-nested product of the components."""
    return induced_nat(StrictifiedModel, alpha)


# -- realisation for categories with free-magma objects ---------------------------------


def seq_word(word: Word) -> StrObject:
    """The sequence of one-leaf terms spelled by a word."""
    return StrObject(tuple(Leaf(x) for x in word))


def rho_factors(model: CategoryModel, term: MagmaTerm) -> list[Factor]:
    """Structural factors taking a term to the product of its left-nested word.

    Identity on the unit and on single generators; otherwise recurse into
    both halves and finish with a theta step on the underlying sequences.
    """
    if leaf_count(term) <= 1:
        return []
    left, right = term.left, term.right
    left_done = par_seq(model, seq_word(forget_parens(left)))
    factors = [factor.wrap_right(right) for factor in rho_factors(model, left)]
    factors += [factor.wrap_left(left_done) for factor in rho_factors(model, right)]
    factors += theta_factors(model, seq_word(forget_parens(left)), seq_word(forget_parens(right)))
    return factors


def rho(model: CategoryModel, term: MagmaTerm) -> Morphism:
    return compose_factors(model, rho_factors(model, term), term)


def coherence_factors(model: CategoryModel, source: MagmaTerm, target: MagmaTerm) -> list[Factor]:
    """A structural factor list source -> target, through the left-nested normal form."""
    if forget_parens(source) != forget_parens(target):
        raise CompositionError(
            "no structural arrow: the terms spell different words "
            f"({','.join(forget_parens(source)) or '1'} vs {','.join(forget_parens(target)) or '1'})"
        )
    if source == target:
        return []
    down = rho_factors(model, source)
    up = [factor.inverted() for factor in reversed(rho_factors(model, target))]
    return down + up


class RealisedWordCategory(TransportedModel, CategoryModel):
    """Free-monoid objects over a magma-object model, homs through sequencing."""

    is_strict = True
    obj_type, obj_kind, suffix = tuple, "words", "~words"

    def __init__(self, base: CategoryModel):
        self.generators = free_generators(base, Leaf, mag, "magma-term")
        super().__init__(base)

    def par(self, w):
        return par_seq(self.base, seq_word(self._check_obj(w)))

    @property
    def unit_obj(self) -> Word:
        return ()

    def tensor_obj(self, v, w):
        return self._check_obj(v) + self._check_obj(w)

    def tensor_mor(self, f, g):
        lifted = star_arrows(
            self.base,
            Morphism(seq_word(f.dom), seq_word(f.cod), f.payload),
            Morphism(seq_word(g.dom), seq_word(g.cod), g.payload),
        )
        return Morphism(f.dom + g.dom, f.cod + g.cod, lifted.payload)

    def render_obj(self, w):
        return render_word(w)

    def parse_obj(self, text):
        return parse_word(self, text)


realise_tilde_str = RealisedWordCategory


def seq_word_functor(model: CategoryModel) -> MonFunctorData:
    """Sequencing as a strict monoidal functor from the word realisation."""
    return sequencing(RealisedWordCategory(model), str_model(model), seq_word, f"Seq[{model.name}]")
