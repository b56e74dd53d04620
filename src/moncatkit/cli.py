"""Command-line front end: validate models, trace coherence arrows, run law suites.

Exit codes: 0 all checks passed, 1 a law failed, 2 usage or input errors.
JSON output is byte-identical across runs for fixed inputs and seed.
Objects on the command line are parsed by the constructions' own
``parse_obj``, and models and their universes come from ``models.py``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .core import CategoryModel, CompositionError, compose_factors, render_factor
from .fixtures import FIXTURE_ENV, builtin_fixtures, fixture_dir
from .laws import LawReport, run_2functor_suite, run_adjunction_suite_q, run_adjunction_suite_str
from .models import (
    BUILTIN_MODELS,
    CategorySpecError,
    FreeThinModel,
    default_universe,
    load_category,
    validate_category,
)
from .nonstrictify import EMPTY_Q, QObject, par_q, q_model
from .strictify import coherence_factors, par_seq, star_objects, str_model, theta_factors
from .terms import TermSyntaxError, forget_parens, leaf_count, parse_term, render_term


class UsageError(Exception):
    pass


def _resolve_model(spec: str, fixtures: str | None) -> CategoryModel:
    """A builtin model name, a shipped fixture name, or a path to a spec file."""
    if spec in BUILTIN_MODELS:
        return BUILTIN_MODELS[spec]()
    path = Path(spec)
    if path.suffix == ".json" or path.exists():
        return load_category(path)
    candidate = fixture_dir(fixtures) / f"{spec}.json"
    if candidate.exists():
        return load_category(candidate, name=spec)
    raise CategorySpecError("parse", f"no such model or spec file: {spec}")


def _emit(payload: dict, fmt: str, text_lines: list[str]):
    if fmt == "json":
        print(json.dumps(payload, indent=2, sort_keys=True, ensure_ascii=True))
    else:
        for line in text_lines:
            print(line)


def _report_exit(report: LawReport, fmt: str) -> int:
    if fmt == "json":
        print(report.to_json())
    else:
        print(report.to_text())
    return 0 if report.ok else 1


def cmd_validate(args) -> int:
    model = _resolve_model(args.model, args.fixtures)
    objects, morphisms = default_universe(model, args.max_leaves, args.seed)
    report = validate_category(model, objects=objects, morphisms=morphisms, seed=args.seed)
    return _report_exit(report, args.format)


def _parse_arg(parse, text: str):
    """``parse(text)``, with malformed text or a foreign object reported as a usage error."""
    try:
        return parse(text)
    except TermSyntaxError as exc:
        raise UsageError(f"bad term {text!r}: {exc}") from exc
    except CompositionError as exc:
        raise UsageError(str(exc)) from exc


def cmd_coherence(args) -> int:
    if args.model:
        model = _resolve_model(args.model, args.fixtures)
        if not isinstance(model, FreeThinModel):
            raise UsageError("coherence traces need a free-magma model (e.g. thin, thin3)")
        source = _parse_arg(model.parse_obj, args.source)
        target = _parse_arg(model.parse_obj, args.target)
    else:
        source = _parse_arg(parse_term, args.source)
        target = _parse_arg(parse_term, args.target)
        labels = sorted(set(forget_parens(source)) | set(forget_parens(target)))
        model = FreeThinModel(generators=tuple(labels) or ("•",), name="thin")
    if leaf_count(source) != leaf_count(target):
        print(
            f"error: leaf counts differ ({leaf_count(source)} vs {leaf_count(target)})",
            file=sys.stderr,
        )
        return 1
    try:
        factors = coherence_factors(model, source, target)
    except CompositionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    composite = compose_factors(model, factors, source)
    verified = model.mor_eq(composite, model.the(source, target))
    rendered = [render_factor(model, f) for f in factors]
    payload = {
        "command": "coherence",
        "source": render_term(source),
        "target": render_term(target),
        "factors": rendered,
        "dom": render_term(composite.dom),
        "cod": render_term(composite.cod),
        "verified": verified,
    }
    lines = [f"coherence {render_term(source)} -> {render_term(target)}"]
    if not rendered:
        lines.append("  (identity: empty trace)")
    for k, text in enumerate(rendered, 1):
        lines.append(f"  {k}. {text}")
    lines.append(f"  endpoints: {render_term(composite.dom)} -> {render_term(composite.cod)}")
    lines.append(f"  verified against the unique thin arrow: {verified}")
    _emit(payload, args.format, lines)
    return 0 if verified else 1


def cmd_strictify(args) -> int:
    model = _resolve_model(args.model, args.fixtures)
    seqs = str_model(model)
    left = _parse_arg(seqs.parse_obj, args.left)
    right = _parse_arg(seqs.parse_obj, args.right)
    joined = star_objects(left, right)
    factors = theta_factors(model, left, right)
    dom = model.tensor_obj(par_seq(model, left), par_seq(model, right))
    composite = compose_factors(model, factors, dom)
    rendered = [render_factor(model, f) for f in factors]
    payload = {
        "command": "strictify",
        "model": model.name,
        "left": seqs.render_obj(left),
        "right": seqs.render_obj(right),
        "concatenation": seqs.render_obj(joined),
        "unit_correspondence": {"empty_sequence": "()", "parenthesization": model.render_obj(model.unit_obj)},
        "par_left": model.render_obj(par_seq(model, left)),
        "par_right": model.render_obj(par_seq(model, right)),
        "par_concatenation": model.render_obj(par_seq(model, joined)),
        "theta_factors": rendered,
        "theta_dom": model.render_obj(composite.dom),
        "theta_cod": model.render_obj(composite.cod),
    }
    lines = [
        f"sequence category over {model.name}",
        f"  unit: () corresponds to {model.render_obj(model.unit_obj)}",
        f"  left  {seqs.render_obj(left)}  parenthesizes to {payload['par_left']}",
        f"  right {seqs.render_obj(right)}  parenthesizes to {payload['par_right']}",
        f"  concatenation {seqs.render_obj(joined)}  parenthesizes to {payload['par_concatenation']}",
        f"  theta: {payload['theta_dom']} -> {payload['theta_cod']}",
    ]
    if not rendered:
        lines.append("    (identity: empty trace)")
    for k, text in enumerate(rendered, 1):
        lines.append(f"    {k}. {text}")
    _emit(payload, args.format, lines)
    return 0


def cmd_nonstrictify(args) -> int:
    model = _resolve_model(args.model, args.fixtures)
    shaped = q_model(model)
    operands = [_parse_arg(shaped.parse_obj, text) for text in args.terms]

    def show(o: QObject) -> str:
        if not o.seq:
            return "((), 1)"
        entries = ",".join(model.render_obj(x) for x in o.seq)
        return f"(({entries}), {render_term(o.shape)})"

    payload: dict = {
        "command": "nonstrictify",
        "model": model.name,
        "unit_correspondence": {"empty_object": show(EMPTY_Q), "parenthesization": model.render_obj(model.unit_obj)},
        "operands": [
            {"object": show(o), "parenthesization": model.render_obj(par_q(model, o))} for o in operands
        ],
    }
    lines = [
        f"shaped-sequence category over {model.name}",
        f"  unit: {show(EMPTY_Q)} corresponds to {model.render_obj(model.unit_obj)}",
    ]
    for entry in payload["operands"]:
        lines.append(f"  {entry['object']}  parenthesizes to {entry['parenthesization']}")
    if len(operands) == 3:
        arrow = shaped.associator(*operands)
        payload["associator"] = {
            "dom": show(arrow.dom),
            "cod": show(arrow.cod),
            "endpoints_equal": arrow.dom == arrow.cod,
            "payload": model.render_mor(arrow.payload),
        }
        lines.append(f"  associator dom: {show(arrow.dom)}")
        lines.append(f"  associator cod: {show(arrow.cod)}")
        lines.append(f"  endpoints equal as objects: {arrow.dom == arrow.cod}")
        lines.append(f"  ambient component: {model.render_mor(arrow.payload)}")
    _emit(payload, args.format, lines)
    return 0


def cmd_check(args) -> int:
    fixtures = builtin_fixtures(args.fixtures, seed=args.seed)
    if args.suite == "axioms":
        merged = LawReport(law="axioms", seed=args.seed)
        if args.model:
            models = [_resolve_model(args.model, args.fixtures)]
        else:
            models = list(fixtures.models.values())
        for model in models:
            objects, morphisms = default_universe(model, args.max_leaves, args.seed)
            report = validate_category(model, objects=objects, morphisms=morphisms, seed=args.seed)
            merged.universe_size += report.universe_size
            for failure in report.failures:
                merged.record_failure(f"{model.name}:{failure.law}", failure.instance, failure.lhs, failure.rhs)
        return _report_exit(merged, args.format)
    if args.suite == "2functor":
        report = run_2functor_suite(fixtures, seed=args.seed, max_len=args.max_seq_len)
    elif args.suite == "adjunction-str":
        report = run_adjunction_suite_str(fixtures, seed=args.seed, max_len=args.max_seq_len)
    elif args.suite == "adjunction-q":
        report = run_adjunction_suite_q(fixtures, seed=args.seed, max_leaves=args.max_leaves)
    else:  # pragma: no cover - argparse restricts choices
        raise UsageError(f"unknown suite {args.suite!r}")
    return _report_exit(report, args.format)


def bound(text: str) -> int:
    """A universe bound: an integer of at least 0."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="moncat",
        description="Sequence and shaped-sequence categories over finite monoidal models, "
        "with exhaustive coherence-law checking.",
    )
    parser.add_argument("--fixtures", help=f"fixture directory (default: ${FIXTURE_ENV} or packaged)")
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument("--seed", type=int, default=0, help="sampling seed, echoed in reports")
    parser.add_argument("--max-leaves", type=bound, default=5, help="leaf bound for term universes")
    parser.add_argument("--max-seq-len", type=bound, default=2, help="length bound for sequence universes")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check the category and monoidal axioms of a model")
    p.add_argument("model")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("coherence", help="structural arrow between two parenthesizations")
    p.add_argument("source")
    p.add_argument("target")
    p.add_argument("--model", help="free-magma model to trace in (default: inferred thin model)")
    p.set_defaults(func=cmd_coherence)

    p = sub.add_parser("strictify", help="sequence-category dump: products and theta traces")
    p.add_argument("model")
    p.add_argument("--left", default="", help="comma-separated object ids")
    p.add_argument("--right", default="", help="comma-separated object ids")
    p.set_defaults(func=cmd_strictify)

    p = sub.add_parser("nonstrictify", help="shaped-sequence dump: products and associator endpoints")
    p.add_argument("model")
    p.add_argument("terms", nargs="+", help="parenthesized terms over object ids (3 terms: associator)")
    p.set_defaults(func=cmd_nonstrictify)

    p = sub.add_parser("check", help="run a law suite over the shipped fixtures")
    p.add_argument("model", nargs="?", help="only for --suite axioms: restrict to one model")
    p.add_argument(
        "--suite",
        required=True,
        choices=("axioms", "2functor", "adjunction-str", "adjunction-q"),
    )
    p.set_defaults(func=cmd_check)

    return parser


# Built once per process, at import, so that a long-lived caller neither
# rebuilds it per call nor keeps it among the allocations of its first call.
_PARSER = build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (CategorySpecError, UsageError, TermSyntaxError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CompositionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
