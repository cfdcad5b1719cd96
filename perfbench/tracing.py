"""Spans and work counters recorded from outside the package.

``Tracer.install`` replaces each public function named in ``WRAPPED`` by a
timing wrapper in every ``cubal`` module namespace that holds it (so
``pastings.solve``, ``colimits.iso_check`` and ``validate_morphism`` as
``colimits`` imports it are all caught), and ``CubeIndex`` methods on the
class.  ``uninstall`` puts the originals back; ``installed`` does both
around a block.  Spans stay in memory; a span
is ``(name, start, end, parent span, job)``.  A span's self time is its
duration minus the durations of its children, which nest inside it because
the run is single-threaded.  A traced run reports the per-layer metrics of
its traced set-up plus one traced batch.
"""
from __future__ import annotations

import bisect
import contextlib
import functools
import gzip
import itertools
import json
import sys
import time
from collections import Counter

# (module, function): the span name is "<module>.<function>".
WRAPPED = (
    ("models", "square_model"), ("models", "shift_model"), ("models", "full_sub_double"),
    ("modelio", "parse_model"), ("modelio", "write_model"), ("modelio", "parse_morphism"),
    ("core", "validate"),
    ("thin", "thin_set"), ("thin", "check_thin_axioms"),
    ("shells", "theorem25_harness"), ("shells", "hcl_agreement"),
    ("shells", "is_commutative"), ("shells", "compose_cubes"),
    ("pastings", "parse"), ("pastings", "solve"), ("pastings", "evaluate"),
    ("pastings", "typecheck"), ("pastings", "replay"), ("pastings", "replay_pinned"),
    ("pastings", "run_script"),
    ("colimits", "coequalise"), ("colimits", "iso_check"), ("colimits", "vk_sequence"),
    ("colimits", "coproduct"),
    ("morphisms", "validate_morphism"),
    ("cli", "run"),
)
CLI_COMMANDS = ("validate", "thin", "hcl", "theorem25", "eval", "replay", "coeq")

_BUILDERS = ("models.square_model", "models.shift_model", "models.full_sub_double")
_REPLAY = ("pastings.replay", "pastings.replay_pinned", "pastings.run_script")

# (metric, unit, how): "self" sums self time of the spans, "calls" counts them,
# "count" reads a counter, "ratio" divides two counters.
LAYER_METRICS = (
    ("models.build_s", "s", "self", _BUILDERS),
    ("models.build_calls", "count", "calls", _BUILDERS),
    ("modelio.parse_s", "s", "self", ("modelio.parse_model",)),
    ("modelio.parse_bytes", "bytes", "count", "modelio.parse_bytes"),
    ("modelio.write_s", "s", "self", ("modelio.write_model",)),
    ("modelio.parse_morphism_s", "s", "self", ("modelio.parse_morphism",)),
    ("core.validate_s", "s", "self", ("core.validate",)),
    ("core.validate_calls", "count", "calls", ("core.validate",)),
    ("core.validate_checks", "count", "count", "core.validate_checks"),
    ("thin.thin_set_s", "s", "self", ("thin.thin_set",)),
    ("thin.thin_set_calls", "count", "calls", ("thin.thin_set",)),
    ("thin.axioms_s", "s", "self", ("thin.check_thin_axioms",)),
    ("shells.theorem25_s", "s", "self", ("shells.theorem25_harness",)),
    ("shells.hcl_s", "s", "self", ("shells.hcl_agreement",)),
    ("shells.random_cube_calls", "count", "calls", ("shells.random_cube",)),
    ("shells.random_cube_yield", "ratio", "ratio", ("shells.random_cube_hits", "shells.random_cube")),
    ("shells.is_commutative_calls", "count", "calls", ("shells.is_commutative",)),
    ("shells.is_commutative_s", "s", "self", ("shells.is_commutative",)),
    ("shells.compose_cubes_s", "s", "self", ("shells.compose_cubes",)),
    ("shells.cubes_enumerated", "count", "count", "shells.cubes_enumerated"),
    ("pastings.replay_s", "s", "self", _REPLAY),
    ("pastings.parse_calls", "count", "calls", ("pastings.parse",)),
    ("pastings.parse_distinct_share", "ratio", "ratio", ("pastings.parse_distinct", "pastings.parse")),
    ("pastings.parse_s", "s", "self", ("pastings.parse",)),
    ("pastings.solve_calls", "count", "calls", ("pastings.solve",)),
    ("pastings.solve_s", "s", "self", ("pastings.solve",)),
    ("pastings.evaluate_s", "s", "self", ("pastings.evaluate",)),
    ("pastings.typecheck_calls", "count", "calls", ("pastings.typecheck",)),
    ("colimits.coequalise_s", "s", "self", ("colimits.coequalise",)),
    ("colimits.generators_added", "count", "count", "colimits.generators_added"),
    ("colimits.fresh_per_answer", "ratio", "ratio", ("colimits.answer_fresh", "colimits.answer_elements")),
    ("colimits.budget_exceeded", "count", "count", "colimits.budget_exceeded"),
    ("colimits.iso_check_s", "s", "self", ("colimits.iso_check",)),
    ("colimits.iso_check_calls", "count", "calls", ("colimits.iso_check",)),
    ("colimits.vk_sequence_s", "s", "self", ("colimits.vk_sequence",)),
    ("colimits.coproduct_s", "s", "self", ("colimits.coproduct",)),
    ("morphisms.validate_morphism_s", "s", "self", ("morphisms.validate_morphism",)),
    *((f"cli.{c}_s", "s", "self", (f"cli.{c}",)) for c in CLI_COMMANDS),
)


def _parse_model_bytes(counts, args, kwargs, result):
    text = args[0] if args else kwargs["text"]
    counts["modelio.parse_bytes"] += len(text.encode("utf-8"))


def _validate_checks(counts, args, kwargs, result):
    counts["core.validate_checks"] += sum(result.checked_count.values())


def _random_cube_hits(counts, args, kwargs, result):
    counts["shells.random_cube_hits"] += result is not None


def _coequalise_outcome(counts, args, kwargs, result):
    counts["colimits.generators_added"] += result.generators_added
    if result.status == "finite":
        counts["colimits.answer_fresh"] += result.generators_added
        counts["colimits.answer_elements"] += sum(result.object.stats().values())
    else:
        counts["colimits.budget_exceeded"] += 1


HOOKS = {
    "modelio.parse_model": _parse_model_bytes,
    "core.validate": _validate_checks,
    "shells.random_cube": _random_cube_hits,
    "colimits.coequalise": _coequalise_outcome,
}


def _cli_name(args, kwargs) -> str:
    argv = args[0] if args else kwargs["argv"]
    return "cli." + next((a for a in argv if a in CLI_COMMANDS), "other")


class Tracer:
    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index, job index)
        self.jobs: list[tuple[str, str]] = []  # (phase, job name)
        self.counts: dict[str, Counter] = {}  # phase -> counters
        self.parsed: dict[str, set] = {}  # phase -> distinct DSL texts
        self._stack: list[int] = []
        self._job = -1
        self._phase = ""
        self._restore: list = []

    # -- recording ---------------------------------------------------------------

    def begin_job(self, phase: str, name: str) -> None:
        self.jobs.append((phase, name))
        self._job = len(self.jobs) - 1
        self._phase = phase
        self.counts.setdefault(phase, Counter())
        self.parsed.setdefault(phase, set())

    def _call(self, name, fn, args, kwargs):
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(index)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self._job)

    def _wrap(self, name: str, fn):
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = _cli_name(args, kwargs) if name == "cli.run" else name
            if span == "pastings.parse":
                self.parsed[self._phase].add(args[0] if args else kwargs["text"])
            result = self._call(span, fn, args, kwargs)
            if hook is not None:
                hook(self.counts[self._phase], args, kwargs, result)
            return result

        return traced

    def _counting_cubes(self, fn):
        @functools.wraps(fn)
        def cubes(*args, **kwargs):
            counts = self.counts[self._phase]
            for cube in fn(*args, **kwargs):
                counts["shells.cubes_enumerated"] += 1
                yield cube

        return cubes

    # -- installing ----------------------------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "cubal" or n.startswith("cubal.")]
        for mod_name, attr in WRAPPED:
            original = getattr(sys.modules[f"cubal.{mod_name}"], attr)
            wrapper = self._wrap(f"{mod_name}.{attr}", original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, key, original))
                        setattr(mod, key, wrapper)
        index = sys.modules["cubal.shells"].CubeIndex
        for attr, wrapper in (
            ("random_cube", self._wrap("shells.random_cube", index.random_cube)),
            ("cubes", self._counting_cubes(index.cubes)),
        ):
            self._restore.append((index, attr, getattr(index, attr)))
            setattr(index, attr, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- reading -------------------------------------------------------------------

    def layer_metrics(self, phases: set[str], kernel_runs=()) -> dict[str, float | int]:
        """Every metric of LAYER_METRICS over the spans and counters of ``phases``.

        ``kernel_runs`` are the (start, end) intervals of reference-kernel runs
        that interrupted the spans; their time is left out of every span.
        """
        starts = [s for s, _ in kernel_runs]
        prefix = list(itertools.accumulate((e - s for s, e in kernel_runs), initial=0.0))
        busy = []
        in_phase = []
        for name, start, end, _, job in self.spans:
            lo, hi = bisect.bisect_left(starts, start), bisect.bisect_left(starts, end)
            busy.append(end - start - (prefix[hi] - prefix[lo]))
            in_phase.append(self.jobs[job][0] in phases)
        children = [0.0] * len(self.spans)
        for i, span in enumerate(self.spans):
            if in_phase[i] and span[3] >= 0:
                children[span[3]] += busy[i]
        self_time: Counter = Counter()
        calls: Counter = Counter()
        for i, span in enumerate(self.spans):
            if in_phase[i]:
                self_time[span[0]] += busy[i] - children[i]
                calls[span[0]] += 1
        counts = Counter(calls)  # span names and counter names never coincide
        for phase in phases:
            counts.update(self.counts[phase])
        counts["pastings.parse_distinct"] = len(set().union(*(self.parsed[p] for p in phases)))
        out: dict[str, float | int] = {}
        for metric, _, how, source in LAYER_METRICS:
            if how == "self":
                out[metric] = sum(self_time[s] for s in source)
            elif how == "calls":
                out[metric] = sum(calls[s] for s in source)
            elif how == "count":
                out[metric] = counts[source]
            else:
                num, den = counts[source[0]], counts[source[1]]
                out[metric] = num / den if den else 0.0
        return out

    def span_count(self, phases: set[str]) -> int:
        return sum(1 for s in self.spans if self.jobs[s[4]][0] in phases)

    def write(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for i, (name, start, end, parent, job) in enumerate(self.spans):
                phase, job_name = self.jobs[job]
                fh.write(json.dumps([i, name, start, end, parent, phase, job_name]) + "\n")
