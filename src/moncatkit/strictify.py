"""Strictification: the sequence category, its coherence arrows and lifts.

Objects here are finite sequences of ambient objects; an arrow between two
sequences is exactly an ambient arrow between their left-nested products.
A sequence is a shaped sequence on the left comb, so everything, the tensor
included, is the construction core in ``nonstrictify.py``, and the names
here are its strict instances.  Concatenation makes the result a strict
monoidal category; the coherence arrow ``theta`` mediates between the
product of two parenthesizations and the parenthesization of the
concatenation.  It, ``rho`` and ``coherence`` are instances of the core's
one structural-arrow engine.
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
    invert_factors,
)
from .nonstrictify import (
    EMPTY_SEQ,
    Construction,
    Realisation,
    StrObject,
    _as_obj,
    comb_factors,
    construction,
    embedding,
    induced_functor,
    induced_nat,
    join_factors,
    lift,
    lift_nat,
    par_q,
    sequencing,
    shape_factors,
    star_arrows,
)
from .nonstrictify import beta_q as beta
from .nonstrictify import beta_q_inv as beta_inv
from .nonstrictify import delta_q as delta
from .nonstrictify import delta_q_inv as delta_inv
from .nonstrictify import image_fold_q as image_fold
from .terms import Leaf, MagmaTerm, Word, forget_parens, mag, parse_entries, parse_word, render_word


def par_seq(model: CategoryModel, s) -> object:
    """Left-nested tensor of the entries; the unit object for the empty sequence."""
    return par_q(model, _as_obj(s))


def star_objects(s, t) -> StrObject:
    return _as_obj(s).join(_as_obj(t))


def seqs_over(objects: Sequence, max_len: int) -> list[StrObject]:
    """All sequences over the given objects up to the length bound."""
    out = [EMPTY_SEQ]
    layer: list[tuple] = [()]
    for _ in range(max_len):
        layer = [prefix + (x,) for prefix in layer for x in objects]
        out.extend(StrObject(entry) for entry in layer)
    return out


# -- the coherence arrow theta -------------------------------------------------


# Par(s) (x) Par(t) -> Par(s*t): a unitor when a side is empty, else the arrow
# from the pair of the two left combs to the left comb of the concatenation.
theta_factors = join_factors


def theta(model: CategoryModel, s, t) -> Morphism:
    dom = model.tensor_obj(par_seq(model, s), par_seq(model, t))
    return compose_factors(model, theta_factors(model, s, t), dom)


def theta_inv(model: CategoryModel, s, t) -> Morphism:
    dom = par_seq(model, star_objects(s, t))
    return compose_factors(model, invert_factors(theta_factors(model, s, t)), dom)


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

    def render_obj(self, s):
        if not s.seq:
            return "()"
        return "(" + ",".join(self.base.render_obj(x) for x in s.seq) + ")"

    def parse_obj(self, text):
        """Base objects separated by commas; "", "1" and "()" are the empty sequence."""
        if text.strip() in ("", "()", "1"):
            return EMPTY_SEQ
        return StrObject(parse_entries(self.base.parse_obj, text))


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
    """Structural factors taking a term to the product of its left-nested word."""
    return comb_factors(model, term, seq_word(forget_parens(term)).seq)


def rho(model: CategoryModel, term: MagmaTerm) -> Morphism:
    return compose_factors(model, rho_factors(model, term), term)


def coherence_factors(model: CategoryModel, source: MagmaTerm, target: MagmaTerm) -> list[Factor]:
    """A structural factor list source -> target, through the left-nested normal form."""
    word = forget_parens(source)
    if word != forget_parens(target):
        raise CompositionError(
            "no structural arrow: the terms spell different words "
            f"({','.join(word) or '1'} vs {','.join(forget_parens(target)) or '1'})"
        )
    return shape_factors(model, seq_word(word).seq, source, target)


class RealisedWordCategory(Realisation, CategoryModel):
    """Free-monoid objects over a magma-object model, homs through sequencing."""

    is_strict = True
    obj_type, obj_kind, suffix = tuple, "words", "~words"
    spell, free = staticmethod(seq_word), (Leaf, mag, "magma-term")

    @property
    def unit_obj(self) -> Word:
        return ()

    def tensor_obj(self, v, w):
        return self._check_obj(v) + self._check_obj(w)

    def render_obj(self, w):
        return render_word(w)

    def parse_obj(self, text):
        return parse_word(self, text)


realise_tilde_str = RealisedWordCategory


def seq_word_functor(model: CategoryModel) -> MonFunctorData:
    """Sequencing as a strict monoidal functor from the word realisation."""
    return sequencing(RealisedWordCategory(model), str_model(model), f"Seq[{model.name}]")
