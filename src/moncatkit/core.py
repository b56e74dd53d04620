"""Monoidal-category oracle interface, functor/transformation data and law checkers.

A ``CategoryModel`` supplies decidable morphism equality together with
composition, tensor and the three structural isomorphism families.  All
checkers below are pure: they take explicit object/arrow tuples and report
a boolean, so exhaustive and sampled drivers can share them.  Every driver
that needs all arrows between some objects gets them from ``arrows_over``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence


class ModelError(Exception):
    """Raised when a model operation is applied outside its domain."""


class CompositionError(ModelError):
    """compose(g, f) requires cod(f) = dom(g)."""


@dataclass(frozen=True, eq=False)
class Morphism:
    """An arrow of some model.  Equality is always the owning model's mor_eq."""

    dom: Any
    cod: Any
    payload: Any

    def __repr__(self):
        return f"Morphism({self.dom!r} -> {self.cod!r}; {self.payload!r})"


class CategoryModel:
    """Oracle for one monoidal category.

    Implementations must be immutable after construction.  ``objects`` and
    ``morphisms`` return finite enumerations when available and ``None``
    otherwise; sampled drivers then supply their own universes.
    """

    name: str = "category"
    is_strict: bool = False

    # -- category structure -------------------------------------------------

    def objects(self) -> Optional[list]:
        return None

    def morphisms(self) -> Optional[list[Morphism]]:
        objs = self.objects()
        return None if objs is None else arrows_over(self, objs)

    def hom(self, x, y) -> Optional[list[Morphism]]:
        return None

    def obj_eq(self, x, y) -> bool:
        return x == y

    def identity(self, x) -> Morphism:
        raise NotImplementedError

    def compose(self, g: Morphism, f: Morphism) -> Morphism:
        raise NotImplementedError

    def mor_eq(self, f: Morphism, g: Morphism) -> bool:
        return (
            self.obj_eq(f.dom, g.dom)
            and self.obj_eq(f.cod, g.cod)
            and f.payload == g.payload
        )

    def _check_composable(self, g: Morphism, f: Morphism):
        if not self.obj_eq(f.cod, g.dom):
            raise CompositionError(
                f"cannot compose: cod {self.render_obj(f.cod)} != dom {self.render_obj(g.dom)}"
            )

    # -- monoidal structure --------------------------------------------------

    @property
    def unit_obj(self):
        raise NotImplementedError

    def tensor_obj(self, x, y):
        raise NotImplementedError

    def tensor_mor(self, f: Morphism, g: Morphism) -> Morphism:
        raise NotImplementedError

    def associator(self, x, y, z) -> Morphism:
        if self.is_strict:
            return self.identity(self.tensor_obj(self.tensor_obj(x, y), z))
        raise NotImplementedError

    def associator_inv(self, x, y, z) -> Morphism:
        if self.is_strict:
            return self.identity(self.tensor_obj(self.tensor_obj(x, y), z))
        raise NotImplementedError

    def lunitor(self, x) -> Morphism:
        if self.is_strict:
            return self.identity(x)
        raise NotImplementedError

    def lunitor_inv(self, x) -> Morphism:
        if self.is_strict:
            return self.identity(x)
        raise NotImplementedError

    def runitor(self, x) -> Morphism:
        if self.is_strict:
            return self.identity(x)
        raise NotImplementedError

    def runitor_inv(self, x) -> Morphism:
        if self.is_strict:
            return self.identity(x)
        raise NotImplementedError

    # -- presentation ----------------------------------------------------------

    def render_obj(self, x) -> str:
        return str(x)

    def parse_obj(self, text: str):
        raise NotImplementedError(f"{self.name} has no object syntax")

    def render_mor(self, f: Morphism) -> str:
        return f"{self.render_obj(f.dom)} -> {self.render_obj(f.cod)} [{f.payload}]"


def arrows_over(model: CategoryModel, objects) -> Optional[list[Morphism]]:
    """Every arrow between the given objects, hom-set by hom-set.

    None as soon as one hom-set is not enumerable.
    """
    out = []
    for x in objects:
        for y in objects:
            hom = model.hom(x, y)
            if hom is None:
                return None
            out.extend(hom)
    return out


@dataclass
class MonFunctorData:
    """A (lax/strong/strict) monoidal functor presented by callables.

    ``gamma(x, y)`` is the coherence arrow F(x) (x) F(y) -> F(x tensor y) in the
    target and ``u`` the unit coherence arrow.  Inverses are stored, not
    searched for, and are required whenever the functor claims to be strong.
    """

    source: CategoryModel
    target: CategoryModel
    obj_map: Callable[[Any], Any]
    mor_map: Callable[[Morphism], Morphism]
    gamma: Callable[[Any, Any], Morphism]
    u: Morphism
    gamma_inv: Optional[Callable[[Any, Any], Morphism]] = None
    u_inv: Optional[Morphism] = None
    strength: str = "strong"  # lax | strong | strict
    name: str = "F"

    def __post_init__(self):
        if self.strength not in ("lax", "strong", "strict"):
            raise ValueError(f"unknown strength {self.strength!r}")
        if self.is_strong and (self.gamma_inv is None or self.u_inv is None):
            raise ValueError(f"{self.name}: strong functors must carry explicit inverses")

    @property
    def is_strong(self) -> bool:
        return self.strength in ("strong", "strict")


@dataclass
class NatTransData:
    """A family of target arrows F(x) -> G(x), one per source object."""

    dom: MonFunctorData
    cod: MonFunctorData
    component: Callable[[Any], Morphism]
    name: str = "alpha"

    def __post_init__(self):
        if self.dom.source is not self.cod.source or self.dom.target is not self.cod.target:
            raise ValueError(f"{self.name}: endpoints must be parallel functors")


def strict_functor(
    source: CategoryModel, target: CategoryModel, obj_map: Callable, mor_map: Callable, name: str
) -> MonFunctorData:
    """A strict monoidal functor: identity coherence arrows throughout."""

    def gamma(x, y):
        return target.identity(target.tensor_obj(obj_map(x), obj_map(y)))

    unit = target.identity(target.unit_obj)
    return MonFunctorData(
        source=source,
        target=target,
        obj_map=obj_map,
        mor_map=mor_map,
        gamma=gamma,
        gamma_inv=gamma,
        u=unit,
        u_inv=unit,
        strength="strict",
        name=name,
    )


def identity_functor(model: CategoryModel, name: str = "Id") -> MonFunctorData:
    return strict_functor(model, model, lambda x: x, lambda f: f, name)


def identity_nat(functor: MonFunctorData, name: str = "id") -> NatTransData:
    tgt = functor.target
    return NatTransData(
        dom=functor,
        cod=functor,
        component=lambda x: tgt.identity(functor.obj_map(x)),
        name=name,
    )


def compose_functors(f2: MonFunctorData, f1: MonFunctorData, name: str = "") -> MonFunctorData:
    """Composite monoidal functor, with the composed coherence data."""
    if f1.target is not f2.source:
        raise ValueError("compose_functors: target of the first is not source of the second")
    tgt = f2.target

    def gamma(x, y):
        inner = f2.mor_map(f1.gamma(x, y))
        outer = f2.gamma(f1.obj_map(x), f1.obj_map(y))
        return tgt.compose(inner, outer)

    gamma_inv = None
    u_inv = None
    if f1.is_strong and f2.is_strong:
        def gamma_inv(x, y):
            inner = f2.mor_map(f1.gamma_inv(x, y))
            outer = f2.gamma_inv(f1.obj_map(x), f1.obj_map(y))
            return tgt.compose(outer, inner)

        u_inv = tgt.compose(f2.u_inv, f2.mor_map(f1.u_inv))

    if f1.strength == "strict" and f2.strength == "strict":
        strength = "strict"
    elif f1.is_strong and f2.is_strong:
        strength = "strong"
    else:
        strength = "lax"

    return MonFunctorData(
        source=f1.source,
        target=tgt,
        obj_map=lambda x: f2.obj_map(f1.obj_map(x)),
        mor_map=lambda f: f2.mor_map(f1.mor_map(f)),
        gamma=gamma,
        gamma_inv=gamma_inv,
        u=tgt.compose(f2.mor_map(f1.u), f2.u),
        u_inv=u_inv,
        strength=strength,
        name=name or f"{f2.name}.{f1.name}",
    )


def compose_nats(beta: NatTransData, alpha: NatTransData, name: str = "") -> NatTransData:
    """Vertical composition: (beta . alpha)_x = beta_x after alpha_x.

    The middle functors are only checked to be parallel; generated functor
    data cannot be compared by identity.
    """
    if alpha.cod.source is not beta.dom.source or alpha.cod.target is not beta.dom.target:
        raise ValueError("compose_nats: transformations are not stackable")
    tgt = alpha.dom.target
    return NatTransData(
        dom=alpha.dom,
        cod=beta.cod,
        component=lambda x: tgt.compose(beta.component(x), alpha.component(x)),
        name=name or f"{beta.name}.{alpha.name}",
    )


def hcompose_nats(a2: NatTransData, a1: NatTransData, name: str = "") -> NatTransData:
    """Horizontal composition (a2 * a1)_x = G2(a1_x) after (a2)_{F1 x}."""
    if a1.dom.target is not a2.dom.source:
        raise ValueError("hcompose_nats: middle categories do not match")
    tgt = a2.dom.target
    f1, g2 = a1.dom, a2.cod
    return NatTransData(
        dom=compose_functors(a2.dom, a1.dom),
        cod=compose_functors(a2.cod, a1.cod),
        component=lambda x: tgt.compose(
            g2.mor_map(a1.component(x)), a2.component(f1.obj_map(x))
        ),
        name=name or f"{a2.name}*{a1.name}",
    )


def whisker_right(alpha: NatTransData, functor: MonFunctorData, name: str = "") -> NatTransData:
    """alpha whiskered by a functor into its source: components at F-images."""
    if functor.target is not alpha.dom.source:
        raise ValueError("whisker_right: functor does not land in the source")
    return NatTransData(
        dom=compose_functors(alpha.dom, functor),
        cod=compose_functors(alpha.cod, functor),
        component=lambda x: alpha.component(functor.obj_map(x)),
        name=name or f"{alpha.name}|{functor.name}",
    )


def whisker_left(functor: MonFunctorData, alpha: NatTransData, name: str = "") -> NatTransData:
    """alpha pushed forward along a functor out of its target."""
    if alpha.dom.target is not functor.source:
        raise ValueError("whisker_left: functor does not start at the target")
    return NatTransData(
        dom=compose_functors(functor, alpha.dom),
        cod=compose_functors(functor, alpha.cod),
        component=lambda x: functor.mor_map(alpha.component(x)),
        name=name or f"{functor.name}|{alpha.name}",
    )


# -- axiom checkers -------------------------------------------------------------


def check_pentagon(c: CategoryModel, x, y, z, m) -> bool:
    """Both composites ((x y) z) m -> x (y (z m)) agree."""
    short = c.compose(c.associator(x, y, c.tensor_obj(z, m)), c.associator(c.tensor_obj(x, y), z, m))
    long = c.compose(
        c.tensor_mor(c.identity(x), c.associator(y, z, m)),
        c.compose(
            c.associator(x, c.tensor_obj(y, z), m),
            c.tensor_mor(c.associator(x, y, z), c.identity(m)),
        ),
    )
    return c.mor_eq(short, long)


def check_triangle(c: CategoryModel, x, y) -> bool:
    """(id_x tensor lunitor) after the associator equals runitor tensor id_y."""
    via_assoc = c.compose(c.tensor_mor(c.identity(x), c.lunitor(y)), c.associator(x, c.unit_obj, y))
    direct = c.tensor_mor(c.runitor(x), c.identity(y))
    return c.mor_eq(via_assoc, direct)


def check_hexagon(functor: MonFunctorData, x, y, z) -> bool:
    """Coherence of gamma against both associators."""
    c, d = functor.source, functor.target
    fo, fm, gamma = functor.obj_map, functor.mor_map, functor.gamma
    fx, fy, fz = fo(x), fo(y), fo(z)
    top = d.compose(
        gamma(x, c.tensor_obj(y, z)),
        d.compose(d.tensor_mor(d.identity(fx), gamma(y, z)), d.associator(fx, fy, fz)),
    )
    bottom = d.compose(
        fm(c.associator(x, y, z)),
        d.compose(gamma(c.tensor_obj(x, y), z), d.tensor_mor(gamma(x, y), d.identity(fz))),
    )
    return d.mor_eq(top, bottom)


def check_unit_squares(functor: MonFunctorData, x) -> bool:
    """Both unit-coherence squares for gamma and u commute at x."""
    c, d = functor.source, functor.target
    fx = functor.obj_map(x)
    left = d.mor_eq(
        d.compose(
            functor.mor_map(c.lunitor(x)),
            d.compose(functor.gamma(c.unit_obj, x), d.tensor_mor(functor.u, d.identity(fx))),
        ),
        d.lunitor(fx),
    )
    right = d.mor_eq(
        d.compose(
            functor.mor_map(c.runitor(x)),
            d.compose(functor.gamma(x, c.unit_obj), d.tensor_mor(d.identity(fx), functor.u)),
        ),
        d.runitor(fx),
    )
    return left and right


def check_naturality(alpha: NatTransData, f: Morphism) -> bool:
    """G(f) after alpha at the domain equals alpha at the codomain after F(f)."""
    d = alpha.dom.target
    lhs = d.compose(alpha.cod.mor_map(f), alpha.component(f.dom))
    rhs = d.compose(alpha.component(f.cod), alpha.dom.mor_map(f))
    return d.mor_eq(lhs, rhs)


def check_monoidal_nat(alpha: NatTransData, x, y) -> bool:
    """Unit triangle and tensor square of a monoidal transformation at (x, y)."""
    c = alpha.dom.source
    d = alpha.dom.target
    f, g = alpha.dom, alpha.cod
    unit_ok = d.mor_eq(d.compose(alpha.component(c.unit_obj), f.u), g.u)
    square_lhs = d.compose(alpha.component(c.tensor_obj(x, y)), f.gamma(x, y))
    square_rhs = d.compose(
        g.gamma(x, y), d.tensor_mor(alpha.component(x), alpha.component(y))
    )
    return unit_ok and d.mor_eq(square_lhs, square_rhs)


# -- coherence traces -------------------------------------------------------------

# kind -> (inverse kind, rendered symbol, the model's method)
_FACTOR_KINDS = {
    "a": ("a_inv", "a", "associator"),
    "a_inv": ("a", "a⁻¹", "associator_inv"),
    "l": ("l_inv", "ℓ", "lunitor"),
    "l_inv": ("l", "ℓ⁻¹", "lunitor_inv"),
    "r": ("r_inv", "r", "runitor"),
    "r_inv": ("r", "r⁻¹", "runitor_inv"),
}


@dataclass(frozen=True)
class Factor:
    """One structural component, tensored with identities.

    ``wraps`` lists identity paddings applied innermost-first, so the record
    reproduces exactly the arrow the recursion that emitted it built.
    """

    kind: str  # a | a_inv | l | l_inv | r | r_inv
    args: tuple
    wraps: tuple = ()

    def wrap_left(self, obj) -> "Factor":
        return Factor(self.kind, self.args, self.wraps + (("L", obj),))

    def wrap_right(self, obj) -> "Factor":
        return Factor(self.kind, self.args, self.wraps + (("R", obj),))

    def inverted(self) -> "Factor":
        return Factor(_FACTOR_KINDS[self.kind][0], self.args, self.wraps)


def interpret_factor(model: CategoryModel, factor: Factor) -> Morphism:
    try:
        method = _FACTOR_KINDS[factor.kind][2]
    except KeyError:
        raise ValueError(f"unknown factor kind {factor.kind!r}") from None
    arrow = getattr(model, method)(*factor.args)
    for side, obj in factor.wraps:
        if side == "L":
            arrow = model.tensor_mor(model.identity(obj), arrow)
        else:
            arrow = model.tensor_mor(arrow, model.identity(obj))
    return arrow


def render_factor(model: CategoryModel, factor: Factor) -> str:
    text = f"{_FACTOR_KINDS[factor.kind][1]}({', '.join(model.render_obj(x) for x in factor.args)})"
    for side, obj in factor.wraps:
        pad = f"id({model.render_obj(obj)})"
        text = f"({pad} ⊗ {text})" if side == "L" else f"({text} ⊗ {pad})"
    return text


def compose_factors(model: CategoryModel, factors: Sequence[Factor], dom) -> Morphism:
    """Evaluate a factor list (first factor applied first) starting at dom."""
    arrow = model.identity(dom)
    for factor in factors:
        arrow = model.compose(interpret_factor(model, factor), arrow)
    return arrow
