"""Batch command line: validation, harnesses, DSL evaluation, colimits.

Exit codes: 0 all checks pass, 1 check failures reported, 2 input or usage
error.  The harness commands (thin, hcl, theorem25, eval, replay) first run
the axiom suite, and the colimit commands (coeq, pushout) run it on every
model they read once their morphism files pass; a model that fails it is an
input error.  Output is
deterministic byte-for-byte for fixed inputs, seed and budgets;
``--format structured`` prints the same data as JSON, and ``--json-out``
writes it alongside the text.
"""
from __future__ import annotations

import argparse
import json
import sys
from contextlib import nullcontext

from . import colimits, core, models, modelio, pastings, shells, thin
from .divergence import describe
from .errors import CubalError, MalformedModel
from .morphisms import validate_morphism
from .reports import Report


def non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("seed must be non-negative")
    return value


def positive_int(text: str) -> int:
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load_model(path: str) -> core.DoubleGC:
    return modelio.parse_model(_read(path))


def _lawful(model: core.DoubleGC) -> core.DoubleGC:
    """A model for a harness or colimit command; one that fails the axiom suite is an input error."""
    rep = core.validate(model)
    if not rep.ok:
        family, witness = rep.violations[0]
        raise MalformedModel(" ".join(["model fails the axiom suite:", family, *witness]))
    return model


def _load_morphism(path: str, source: core.DoubleGC, target: core.DoubleGC):
    """Load a morphism file for coeq or pushout.

    A map that is not total on the source, names an element outside either
    model, or fails the preservation suite is an input error.
    """
    f = modelio.parse_morphism(_read(path), source, target)
    for section, sources, targets, table in zip(
        modelio.MAP_SECTIONS, source.cells(), target.cells(), f.maps()
    ):
        for x in sorted(sources):
            if x not in table:
                raise MalformedModel(f"{path}: {section} has no entry for {x!r}")
        for x, y in sorted(table.items()):
            if x not in sources or y not in targets:
                raise MalformedModel(f"{path}: {section} entry {x} -> {y} is off the models")
    rep = validate_morphism(f)
    if not rep.ok:
        family, witness = rep.violations[0]
        raise MalformedModel(" ".join([f"{path}: morphism fails", family, *witness]))
    return f


def _emit(report: Report, args) -> int:
    payload = report.to_json_dict()
    # the sidecar is opened first, so a path that cannot be written fails
    # before any report output
    with open(args.json_out, "w", encoding="utf-8") if args.json_out else nullcontext() as fh:
        if args.format == "structured":
            print(json.dumps(payload, sort_keys=True, indent=2))
        else:
            print(report.to_text())
        if fh is not None:
            json.dump(payload, fh, sort_keys=True, indent=2)
            fh.write("\n")
    return 0 if report.ok else 1


def _cmd_validate(args) -> int:
    return _emit(core.validate(_load_model(args.model)), args)


def _cmd_thin(args) -> int:
    model = _lawful(_load_model(args.model))
    ts = thin.thin_set(model)
    rep = thin.check_thin_axioms(model, ts)
    rep.note(f"thin squares: {len(ts.members)} of {len(model.squares)}")
    return _emit(rep, args)


def _sampling(args) -> dict:
    """Harness keywords for ``--exhaustive``/``--samples``; with neither, the harness chooses."""
    if args.exhaustive:
        return {"exhaustive": True}
    if args.samples is None:
        return {}
    return {"exhaustive": False, "samples": args.samples}


_CUBE_HARNESSES = {"hcl": shells.hcl_agreement, "theorem25": shells.theorem25_harness}


def _cmd_cubes(args) -> int:
    """``hcl`` or ``theorem25``: the subcommand's name picks the harness."""
    model = _lawful(_load_model(args.model))
    harness = _CUBE_HARNESSES[args.command]
    return _emit(harness(model, seed=args.seed, **_sampling(args)), args)


def _cmd_script(args) -> int:
    """``eval`` or ``replay``: the subcommand's name is the script mode."""
    model = _lawful(_load_model(args.model))
    rep, outputs = pastings.run_script(model, _read(args.script), mode=args.command)
    for i, values in enumerate(outputs):
        rep.note(f"chain {i}: " + " = ".join(values))
    return _emit(rep, args)


def _emit_quotient(result: colimits.QuotientResult, title: str, args) -> int:
    """The quotient report, the ``-o`` model file, then the report output."""
    rep = Report(title=title)
    rep.tick("status-finite")
    if result.status != "finite":
        rep.fail("status-finite", result.status)
    rep.note(f"status: {result.status}")
    if result.divergence is not None:
        rep.note(describe(result.divergence))
    rep.note(f"generators added: {result.generators_added}")
    if result.object is not None:
        rep.note(
            "result size: {objects} objects, {edges} edges, {squares} squares".format(
                **result.object.stats()
            )
        )
        vrep = core.validate(result.object)
        rep.tick("result-validates")
        if not vrep.ok:
            rep.fail("result-validates", *(v[0] for v in vrep.violations[:3]))
    if args.out and result.object is not None:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(modelio.write_model(result.object, header=f"{title} output"))
    return _emit(rep, args)


def _cmd_coeq(args) -> int:
    model_a = _load_model(args.source)
    model_b = _load_model(args.target)
    fa = _load_morphism(args.morph_a, model_a, model_b)
    fb = _load_morphism(args.morph_b, model_a, model_b)
    for model in (model_a, model_b):
        _lawful(model)
    result = colimits.coequalise(fa, fb, budget=args.budget)
    return _emit_quotient(result, "coequaliser", args)


def _cmd_pushout(args) -> int:
    model_a = _load_model(args.apex)
    model_b = _load_model(args.left)
    model_c = _load_model(args.right)
    f = _load_morphism(args.morph_f, model_a, model_b)
    g = _load_morphism(args.morph_g, model_a, model_c)
    for model in (model_a, model_b, model_c):
        _lawful(model)
    result, _, _ = colimits.pushout(f, g, budget=args.budget)
    return _emit_quotient(result, "pushout", args)


def _cmd_vk(args) -> int:
    cat = models.parse_category(args.groupoid)
    cover = [part.split(",") for part in args.cover]
    rep, _ = colimits.vk_harness(cat, cover, budget=args.budget)
    return _emit(rep, args)


def _cmd_gen(args) -> int:
    model = models.parse_generator(args.generator)
    text = modelio.write_model(model, header=f"generated: {args.generator}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cubal",
        description="verification and computation engine for double groupoids with connections",
    )
    parser.add_argument("--format", choices=("text", "structured"), default="text")
    parser.add_argument("--json-out", metavar="FILE", default=None)
    parser.add_argument("--seed", type=non_negative_int, default=0)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="run the axiom suite on a model file")
    p.add_argument("model")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("thin", help="thin structure axioms T0-T3")
    p.add_argument("model")
    p.set_defaults(func=_cmd_thin)

    for name, about in (
        ("hcl", "HCL versus HCL' agreement over cubes"),
        ("theorem25", "composites of commutative cubes stay commutative"),
    ):
        p = sub.add_parser(name, help=about)
        p.add_argument("model")
        p.add_argument("--exhaustive", action="store_true")
        p.add_argument("--samples", type=positive_int, default=None)
        p.set_defaults(func=_cmd_cubes)

    for name, about in (
        ("eval", "evaluate the chains of a script file"),
        ("replay", "assert step equality along script chains"),
    ):
        p = sub.add_parser(name, help=about)
        p.add_argument("model")
        p.add_argument("script")
        p.set_defaults(func=_cmd_script)

    p = sub.add_parser("coeq", help="coequalise a parallel pair of morphism files")
    p.add_argument("source")
    p.add_argument("target")
    p.add_argument("morph_a")
    p.add_argument("morph_b")
    p.add_argument("--budget", type=positive_int, default=colimits.DEFAULT_BUDGET)
    p.add_argument("-o", "--out", default=None)
    p.set_defaults(func=_cmd_coeq)

    p = sub.add_parser("pushout", help="pushout of two morphisms out of a shared apex")
    p.add_argument("apex")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("morph_f")
    p.add_argument("morph_g")
    p.add_argument("--budget", type=positive_int, default=colimits.DEFAULT_BUDGET)
    p.add_argument("-o", "--out", default=None)
    p.set_defaults(func=_cmd_pushout)

    p = sub.add_parser("vk", help="finite van Kampen harness over an object cover")
    p.add_argument("groupoid", help="category generator, e.g. 'indiscrete(4)'")
    p.add_argument("--cover", action="append", required=True, metavar="o1,o2,...")
    p.add_argument("--budget", type=positive_int, default=colimits.DEFAULT_BUDGET)
    p.set_defaults(func=_cmd_vk)

    p = sub.add_parser("gen", help="write a generated model, e.g. 'box(z2)'")
    p.add_argument("generator")
    p.add_argument("-o", "--out", default=None)
    p.set_defaults(func=_cmd_gen)

    return parser


def run(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (OSError, ValueError, CubalError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))
