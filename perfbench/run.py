"""Time-to-verdict benchmark for cubal, one workload per invocation.

    python3 perfbench/run.py --workload verify|replay|glue --seed N --seconds S --trace 0|1

Run from a checkout; ``cubal`` is imported from ``src/`` (nothing needs
installing).  Each invocation starts a few set-up-only processes and one main
process for the workload, so ``setup_s`` and ``peak_rss_mb`` belong to that
workload.  Every verdict is checked against its known answer, and every
batch's exact work counters must repeat.

Times are given at reference speed (see ``speed.py``): the wall time scaled by
a fixed pure-Python kernel run beside the work, which cancels the host's
changes of speed.  The raw wall times are printed and recorded beside them as
``*_wall_s``.

Output: ``name value unit (note)`` lines, then, as the last line of stdout,
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics of a traced
run with ``--trace 1``.  A full record of the run, with provenance and
per-job times, goes to ``.perfbench-out/<workload>-seed<N>-trace<T>.json``;
a traced run writes its spans there too.  Exit code: 0 when every verdict
was right, 1 when not, 2 when the run could not be made.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
OUT_DIR = ROOT / ".perfbench-out"
SETUP_PROBES = 4
TIME_LIMIT_S = 170

sys.path.insert(0, str(HERE))

import speed  # noqa: E402
from tracing import LAYER_METRICS  # noqa: E402

WORKLOADS = ("verify", "replay", "glue")
END_TO_END = ("batch_s", "setup_s", "peak_rss_mb")


class RunFailed(Exception):
    pass


def git_revision() -> str | None:
    """The checked-out commit, read from .git without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def spawn(args, mode: str, deadline: float) -> dict:
    """Run one worker process; adds its set-up time at reference speed."""
    kernel_before = min(speed.kernel_s() for _ in range(2))
    started = time.monotonic()
    cmd = [
        sys.executable, str(WORKER),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--mode", mode,
        "--started", repr(started), "--out-dir", str(OUT_DIR),
    ]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True, timeout=deadline - started)
    except subprocess.TimeoutExpired as exc:
        raise RunFailed(f"{mode} process passed the {TIME_LIMIT_S} s limit") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RunFailed(f"{mode} process exited {proc.returncode}: {proc.stderr[-2000:]}")
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    res["setup_ref_s"] = speed.at_reference(res["setup_s"], [kernel_before, res["setup_kernel_s"]])
    return res


def verdict_times(batches: list[dict]) -> dict:
    """Per-job percentiles within each batch, then the median over batches.

    The median needs at least 20 jobs; the tail is the highest percentile with
    at least 10 jobs beyond it.
    """
    n = len(batches[0]["job_ref_s"])
    out = {}
    if n >= 20:
        out["verdict_p50_s"] = (statistics.median(
            statistics.median(b["job_ref_s"]) for b in batches), "p50")
    if n >= 11:
        out["verdict_tail_s"] = (statistics.median(
            sorted(b["job_ref_s"])[n - 11] for b in batches), f"p{100 * (n - 10) / n:.1f}")
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    deadline = time.monotonic() + TIME_LIMIT_S
    provenance = {
        "git_revision": git_revision(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_at_start": os.getloadavg(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }
    if not (ROOT / "src" / "cubal" / "__init__.py").is_file():
        print(f"error: no cubal sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    speed.kernel_s()  # the first run in a process pays for warming up
    try:
        setups = [spawn(args, "setup", deadline) for _ in range(SETUP_PROBES)]
        res = spawn(args, "trace" if args.trace else "run", deadline)
    except RunFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    setups.append(res)

    batches = res["batches"]
    timed = batches[:1] if args.trace else batches  # a traced run is U, T, T
    n_jobs = len(res["jobs"])
    attempted = sum(len(b["job_wall_s"]) for b in batches)
    failed = sum(len(b["failures"]) for b in batches)
    problems = [f"{job}: {why}" for b in batches for job, why in b["failures"].items()]
    if any(b["counts"] != batches[0]["counts"] for b in batches):
        problems.append("work counters differ between batches of one run")
    provenance.update(jobs=n_jobs, batches=len(batches), attempted=attempted)

    def median_of(key, rows):
        return statistics.median(r[key] for r in rows)

    lines = {
        "batch_s": (median_of("ref_s", timed), "s",
                    f"median of {len(timed)} untraced batches of {n_jobs} jobs, reference speed"),
        "batch_wall_s": (median_of("wall_s", timed), "s", "the same, wall clock"),
        "setup_s": (median_of("setup_ref_s", setups), "s",
                    f"median of {len(setups)} set-ups, reference speed"),
        "setup_wall_s": (median_of("setup_s", setups), "s", "the same, wall clock"),
    }
    for name, (value, pct) in verdict_times(timed).items():
        lines[name] = (value, "s", f"{pct} of {n_jobs} jobs, median of {len(timed)} batches")
    lines["peak_rss_mb"] = (res["peak_rss_mb"], "MB", "ru_maxrss of the main process after one batch")
    lines["failed_share"] = (failed / attempted, "ratio", f"{failed} of {attempted} jobs")

    if args.trace:
        first, second = res["layers"]
        units = {m: u for m, u, _, _ in LAYER_METRICS}
        for m, unit in units.items():
            if unit != "s" and first[m] != second[m]:
                problems.append(f"{m} differs between two traced batches: {first[m]} != {second[m]}")
        if res["spans"][1] != res["spans"][2]:
            problems.append("span counts differ between two traced batches")
        layers = {
            m: ((first[m] + second[m]) / 2 if unit == "s" else first[m], unit)
            for m, unit in units.items()
        }
        layers["trace.overhead_s"] = (median_of("ref_s", batches[1:]) - lines["batch_s"][0], "s")
        layers["trace.spans"] = (res["spans"][1], "count")
        metrics = {m: {"value": v, "unit": u} for m, (v, u) in layers.items()}
    else:
        metrics = {m: {"value": lines[m][0], "unit": lines[m][1]} for m in END_TO_END}

    correct = not problems
    record = {
        "provenance": provenance,
        "correct": correct,
        "problems": problems,
        "lines": {m: {"value": v, "unit": u, "note": note} for m, (v, u, note) in lines.items()},
        "metrics": metrics,
        "setups": [{k: s[k] for k in ("setup_s", "setup_kernel_s", "setup_ref_s")} for s in setups],
        "jobs": res["jobs"],
        "batches": batches,
        "spans_file": res.get("spans_file"),
    }
    record_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print("# " + " ".join(f"{k}={v}" for k, v in provenance.items()))
    for problem in problems:
        print(f"# problem: {problem}")
    for name, (value, unit, note) in lines.items():
        print(f"{name} {value:.6g} {unit}  ({note})")
    if args.trace:
        for name, (value, unit) in layers.items():
            print(f"{name} {value:.6g} {unit}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
