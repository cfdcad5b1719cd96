"""Batch command line: validation, harnesses, DSL evaluation, colimits.

Exit codes: 0 all checks pass, 1 check failures reported, 2 input or usage
error.  Output is deterministic byte-for-byte for fixed inputs, seed and
budgets; ``--format structured`` prints the same data as JSON, and
``--json-out`` writes it alongside the text.
"""
from __future__ import annotations

import argparse
import json
import sys

from . import colimits, core, models, modelio, pastings, shells, thin
from .errors import CubalError, DslError, MalformedModel
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


def _load_model(path: str) -> core.DoubleGC:
    with open(path, "r", encoding="utf-8") as fh:
        return modelio.parse_model(fh.read())


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _emit(report: Report, args, extra: dict | None = None) -> int:
    payload = report.to_json_dict()
    if extra:
        payload.update(extra)
    if args.format == "structured":
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        print(report.to_text())
        for key, value in sorted((extra or {}).items()):
            print(f"{key}: {value}")
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, sort_keys=True, indent=2)
            fh.write("\n")
    return 0 if report.ok else 1


def _cmd_validate(args) -> int:
    model = _load_model(args.model)
    return _emit(core.validate(model), args)


def _cmd_thin(args) -> int:
    model = _load_model(args.model)
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


def _cmd_hcl(args) -> int:
    model = _load_model(args.model)
    return _emit(shells.hcl_agreement(model, seed=args.seed, **_sampling(args)), args)


def _cmd_theorem25(args) -> int:
    model = _load_model(args.model)
    return _emit(shells.theorem25_harness(model, seed=args.seed, **_sampling(args)), args)


def _cmd_eval(args) -> int:
    model = _load_model(args.model)
    rep, outputs = pastings.run_script(model, _read(args.script), mode="eval")
    for i, values in enumerate(outputs):
        rep.note(f"chain {i}: " + " = ".join(values))
    return _emit(rep, args)


def _cmd_replay(args) -> int:
    model = _load_model(args.model)
    rep, outputs = pastings.run_script(model, _read(args.script), mode="replay")
    for i, values in enumerate(outputs):
        rep.note(f"chain {i}: " + " = ".join(values))
    return _emit(rep, args)


def _quotient_report(result: colimits.QuotientResult, title: str) -> Report:
    rep = Report(title=title)
    rep.tick("status-finite")
    if result.status != "finite":
        rep.fail("status-finite", result.status, count=False)
    rep.note(f"status: {result.status}")
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
            rep.fail("result-validates", *(v[0] for v in vrep.violations[:3]), count=False)
    return rep


def _cmd_coeq(args) -> int:
    model_a = _load_model(args.source)
    model_b = _load_model(args.target)
    fa = modelio.parse_morphism(_read(args.morph_a), model_a, model_b)
    fb = modelio.parse_morphism(_read(args.morph_b), model_a, model_b)
    result = colimits.coequalise(fa, fb, budget=args.budget)
    rep = _quotient_report(result, "coequaliser")
    if args.out and result.object is not None:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(modelio.write_model(result.object, header="coequaliser output"))
    return _emit(rep, args)


def _cmd_pushout(args) -> int:
    model_a = _load_model(args.apex)
    model_b = _load_model(args.left)
    model_c = _load_model(args.right)
    f = modelio.parse_morphism(_read(args.morph_f), model_a, model_b)
    g = modelio.parse_morphism(_read(args.morph_g), model_a, model_c)
    result, _, _ = colimits.pushout(f, g, budget=args.budget)
    rep = _quotient_report(result, "pushout")
    if args.out and result.object is not None:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(modelio.write_model(result.object, header="pushout output"))
    return _emit(rep, args)


def _cmd_vk(args) -> int:
    cat = models.parse_category(args.groupoid)
    cover = [part.split(",") for part in args.cover]
    rep, result = colimits.vk_harness(cat, cover, budget=args.budget)
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

    p = sub.add_parser("hcl", help="HCL versus HCL' agreement over cubes")
    p.add_argument("model")
    p.add_argument("--exhaustive", action="store_true")
    p.add_argument("--samples", type=positive_int, default=None)
    p.set_defaults(func=_cmd_hcl)

    p = sub.add_parser("theorem25", help="composites of commutative cubes stay commutative")
    p.add_argument("model")
    p.add_argument("--exhaustive", action="store_true")
    p.add_argument("--samples", type=positive_int, default=None)
    p.set_defaults(func=_cmd_theorem25)

    p = sub.add_parser("eval", help="evaluate the chains of a script file")
    p.add_argument("model")
    p.add_argument("script")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("replay", help="assert step equality along script chains")
    p.add_argument("model")
    p.add_argument("script")
    p.set_defaults(func=_cmd_replay)

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
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (MalformedModel, DslError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CubalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))
