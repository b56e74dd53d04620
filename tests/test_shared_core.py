"""The strict construction is the shaped one on the left comb.

On ``QObject(s, left_comb(len(s)))`` every piece of the sequence category
agrees with its shaped counterpart; the shared construction core rests on
this.
"""

import gc
import weakref

import pytest

from moncatkit.models import MatrixModCategory
from moncatkit.nonstrictify import (
    QObject,
    beta_q,
    beta_q_inv,
    embed_j_functor,
    image_fold_q,
    lift_nat_nonstrict,
    par_q,
    q_model,
    q_nat,
    realise_tilde_q,
)
from moncatkit.strictify import (
    beta,
    beta_inv,
    embed_functor,
    image_fold,
    lift_nat_strict,
    par_seq,
    realise_tilde_str,
    seqs_over,
    str_model,
    str_nat,
)
from moncatkit.terms import left_comb

MAX_LEN = 4


def on_left_comb(s):
    return QObject(s.seq, left_comb(len(s)))


@pytest.mark.parametrize("name", ["Fm", "Fm2", "Ftw", "F1", "F0"])
def test_functor_data_agree_on_left_combs(fx, name):
    functor = fx.functors[name]
    c, d = functor.source, functor.target
    seqs = seqs_over(fx.objects_for(c), MAX_LEN)
    for s in seqs:
        q = on_left_comb(s)
        assert c.obj_eq(par_seq(c, s), par_q(c, q))
        assert d.obj_eq(image_fold(functor, s), image_fold_q(functor, q))
        assert d.mor_eq(beta(functor, s), beta_q(functor, q))
        assert d.mor_eq(beta_inv(functor, s), beta_q_inv(functor, q))
    assert len(seqs) > 1


@pytest.mark.parametrize("name", ["alpha", "beta", "mu"])
def test_transformation_components_agree_on_left_combs(fx, name):
    alpha = fx.nats[name]
    d = alpha.dom.target
    lifted, lifted_q = lift_nat_strict(alpha, True), lift_nat_nonstrict(alpha, True)
    induced, induced_q = str_nat(alpha), q_nat(alpha)
    for s in seqs_over(fx.objects_for(alpha.dom.source), MAX_LEN):
        q = on_left_comb(s)
        assert d.mor_eq(lifted.component(s), lifted_q.component(q))
        strict, shaped = induced.component(s), induced_q.component(q)
        assert on_left_comb(strict.dom) == shaped.dom
        assert on_left_comb(strict.cod) == shaped.cod
        assert d.mor_eq(strict.payload, shaped.payload)


def test_left_comb_is_the_strict_bracketing(thin):
    b = thin.generators[0]
    for s in seqs_over([thin.parse_obj(b)], MAX_LEN):
        assert par_seq(thin, s) == par_q(thin, on_left_comb(s))


def test_constructions_are_shared_and_die_with_their_model():
    model = MatrixModCategory(modulus=7)
    assert str_model(model) is str_model(model)
    assert q_model(model) is q_model(model)
    assert str_model(model) is not q_model(model)
    ref = weakref.ref(model)
    del model
    gc.collect()
    assert ref() is None


def test_embeddings_agree_on_left_combs(ns2):
    strict, shaped = embed_functor(ns2), embed_j_functor(ns2)
    for x in ("A", "I"):
        assert on_left_comb(strict.obj_map(x)) == shaped.obj_map(x)
        for y in ("A", "I"):
            s_eta, q_eta = strict.gamma(x, y), shaped.gamma(x, y)
            assert (on_left_comb(s_eta.dom), on_left_comb(s_eta.cod)) == (q_eta.dom, q_eta.cod)
            assert ns2.mor_eq(s_eta.payload, q_eta.payload)
    assert on_left_comb(strict.u.dom) == shaped.u.dom


def test_only_the_constructions_embed_arrows(thin3, words3):
    assert hasattr(str_model(thin3), "embed_arrow") and hasattr(q_model(words3), "embed_arrow")
    assert not hasattr(realise_tilde_str(thin3), "embed_arrow")
    assert not hasattr(realise_tilde_q(words3), "embed_arrow")
