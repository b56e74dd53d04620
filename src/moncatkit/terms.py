"""Free (unital) magma terms, parenthesization shapes and flat words.

A term is a binary tree over generator labels, with a single adjoined
unit that never occurs below a pair node.  Shapes are terms over the
one-generator alphabet {BULLET} and record nothing but parenthesization.
Words are flat tuples of labels.

Terms are immutable values, compared by structure.  Each one carries its
word, built with the term, so reading a term's word, leaf count or
shape-ness walks no tree.  The module keeps no global state: nothing is
interned or cached between calls.

The object syntax of every model whose objects are words or terms over
named generators is written here once: ``parse_word``/``render_word`` and
``parse_generated_term``, which both reject labels outside the model's
``generators``.
"""

from __future__ import annotations

from functools import reduce
from typing import Iterator

from .core import CompositionError

BULLET = "•"

Word = tuple[str, ...]


class TermSyntaxError(ValueError):
    """Malformed term text; carries the offending character position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class MagmaTerm:
    """Element of the free unital magma over string generators."""

    __slots__ = ("_hash", "_word")

    _hash: int
    _word: Word

    def leaf_count(self) -> int:
        return len(self._word)

    def __mul__(self, other: "MagmaTerm") -> "MagmaTerm":
        return mag(self, other)

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"term({render_term(self)!r})"


class _UnitTerm(MagmaTerm):
    __slots__ = ()

    def __init__(self):
        self._hash = hash(("mag-unit",))
        self._word = ()

    def __eq__(self, other):
        return isinstance(other, _UnitTerm)

    __hash__ = MagmaTerm.__hash__


UNIT: MagmaTerm = _UnitTerm()


class Leaf(MagmaTerm):
    __slots__ = ("label",)

    def __init__(self, label: str):
        if not label or label == "1":
            raise ValueError(f"invalid generator label: {label!r}")
        self.label = label
        self._word = (label,)
        self._hash = hash(("mag-leaf", label))

    def __eq__(self, other):
        return self is other or (isinstance(other, Leaf) and self.label == other.label)

    __hash__ = MagmaTerm.__hash__


class Pair(MagmaTerm):
    __slots__ = ("left", "right")

    def __init__(self, left: MagmaTerm, right: MagmaTerm):
        if isinstance(left, _UnitTerm) or isinstance(right, _UnitTerm):
            raise ValueError("the unit term cannot occur below a pair node")
        self.left = left
        self.right = right
        self._word = left._word + right._word
        self._hash = hash(("mag-pair", left._hash, right._hash))

    def __eq__(self, other):
        if self is other:
            return True
        return (
            isinstance(other, Pair)
            and self._hash == other._hash
            and self.left == other.left
            and self.right == other.right
        )

    __hash__ = MagmaTerm.__hash__


def mag(a: MagmaTerm, b: MagmaTerm) -> MagmaTerm:
    """Unital magma product: the unit absorbs, everything else pairs up."""
    if isinstance(a, _UnitTerm):
        return b
    if isinstance(b, _UnitTerm):
        return a
    return Pair(a, b)


def leaf_count(t: MagmaTerm) -> int:
    return len(t._word)


def forget_parens(t: MagmaTerm) -> Word:
    """In-order word of leaf labels; the unit maps to the empty word."""
    return t._word


def collapse(t: MagmaTerm) -> MagmaTerm:
    """Relabel every leaf to the bullet, keeping the tree shape."""
    if isinstance(t, Leaf):
        return Leaf(BULLET)
    if isinstance(t, Pair):
        return Pair(collapse(t.left), collapse(t.right))
    return UNIT


def is_shape(t: MagmaTerm) -> bool:
    return t._word.count(BULLET) == len(t._word)


def left_comb(n: int) -> MagmaTerm:
    """Fully left-nested shape with n bullets; 0 gives the unit."""
    if n < 0:
        raise ValueError("leaf count must be nonnegative")
    if n == 0:
        return UNIT
    return reduce(Pair, (Leaf(BULLET) for _ in range(n - 1)), Leaf(BULLET))


def split(t: MagmaTerm) -> tuple[MagmaTerm, MagmaTerm]:
    """The unique decomposition t = t1 t2 of a term with more than one leaf."""
    if not isinstance(t, Pair):
        raise ValueError(f"term {render_term(t)} has no binary decomposition")
    return t.left, t.right


def attach_labels(shape: MagmaTerm, labels: Word) -> MagmaTerm:
    """Rebuild a labeled term from a shape and exactly matching labels."""
    if leaf_count(shape) != len(labels):
        raise ValueError(
            f"shape has {leaf_count(shape)} leaves but {len(labels)} labels were given"
        )

    def go(node: MagmaTerm, offset: int) -> tuple[MagmaTerm, int]:
        if isinstance(node, Leaf):
            return Leaf(labels[offset]), offset + 1
        if isinstance(node, Pair):
            left, offset = go(node.left, offset)
            right, offset = go(node.right, offset)
            return Pair(left, right), offset
        return UNIT, offset

    term, _ = go(shape, 0)
    return term


def render_term(t: MagmaTerm) -> str:
    """Canonical text: unit is "1", leaves are bare, pairs are parenthesized."""
    if isinstance(t, Leaf):
        return t.label
    if isinstance(t, Pair):
        return f"({render_term(t.left)} {render_term(t.right)})"
    return "1"


def _tokenize(text: str) -> list[tuple[str, int]]:
    tokens: list[tuple[str, int]] = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
        elif c in "()":
            tokens.append((c, i))
            i += 1
        elif c == BULLET:
            # bullets are single-character tokens so shapes can be written densely
            tokens.append((BULLET, i))
            i += 1
        else:
            j = i
            while j < n and not text[j].isspace() and text[j] not in "()" and text[j] != BULLET:
                j += 1
            tokens.append((text[i:j], i))
            i = j
    return tokens


def parse_term(text: str) -> MagmaTerm:
    """Parse the grammar  term := "1" | ident | "(" term term ")"."""
    tokens = _tokenize(text)
    pos = 0

    def parse() -> MagmaTerm:
        nonlocal pos
        if pos >= len(tokens):
            raise TermSyntaxError("unexpected end of input", len(text))
        tok, at = tokens[pos]
        pos += 1
        if tok == "(":
            left = parse()
            right = parse()
            if pos >= len(tokens) or tokens[pos][0] != ")":
                where = tokens[pos][1] if pos < len(tokens) else len(text)
                raise TermSyntaxError("expected ')'", where)
            pos += 1
            try:
                return Pair(left, right)
            except ValueError as exc:
                raise TermSyntaxError(str(exc), at) from exc
        if tok == ")":
            raise TermSyntaxError("unexpected ')'", at)
        if tok == "1":
            return UNIT
        return Leaf(tok)

    term = parse()
    if pos != len(tokens):
        raise TermSyntaxError("trailing input after term", tokens[pos][1])
    return term


def _known_generators(owner, word: Word) -> Word:
    """The word, if each label is one of ``owner.generators``; else a ``CompositionError``."""
    bad = [lab for lab in word if lab not in owner.generators]
    if bad:
        raise CompositionError(f"{owner.name}: unknown generators {sorted(set(bad))}")
    return word


def parse_generated_term(owner, text: str) -> MagmaTerm:
    """A term whose leaves are generators of ``owner`` (a model)."""
    term = parse_term(text)
    _known_generators(owner, term._word)
    return term


def parse_word(owner, text: str) -> Word:
    """Word syntax: generators of ``owner`` separated by commas, "1" for the empty word."""
    return () if text == "1" else _known_generators(owner, tuple(text.split(",")))


def render_word(w: Word) -> str:
    return ",".join(w) if w else "1"


def shapes_with_leaves(n: int) -> list[MagmaTerm]:
    """All shapes with exactly n bullets, in canonical (rendered-text) order."""
    if n < 0:
        raise ValueError("leaf count must be nonnegative")
    if n == 0:
        return [UNIT]
    table: list[list[MagmaTerm]] = [[], [Leaf(BULLET)]]
    for k in range(2, n + 1):
        table.append(
            [Pair(a, b) for i in range(1, k) for a in table[i] for b in table[k - i]]
        )
    return sorted(table[n], key=render_term)


def enumerate_shapes(max_leaves: int, include_unit: bool = True) -> Iterator[MagmaTerm]:
    """Shapes by leaf count, then lexicographically on rendered text."""
    start = 0 if include_unit else 1
    for n in range(start, max_leaves + 1):
        yield from shapes_with_leaves(n)
