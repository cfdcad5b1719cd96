"""One workload in one process: set up, then run batches of jobs and report their timings.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \
        --mode setup|run|trace --started T --out-dir DIR

``--started`` is the parent's ``time.monotonic()`` just before it started this
process (the clock is system-wide), so ``setup_s`` covers interpreter start,
import and building the inputs.  ``setup`` mode stops there.  ``run`` mode
starts the whole batch of jobs again until ``--seconds`` have passed; peak RSS
is read after the first batch, so it does not depend on how many batches fit.
``trace`` mode runs one untraced batch, then sets up again and runs two
batches under the tracer; per-layer times are scaled to reference speed by
their batch's factor.  The last line of stdout is one JSON object.
"""
from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def run_batch(jobs, tracer=None, phase="") -> dict:
    """Run every job once, in order; a job that raises or answers wrongly is a failure.

    Job times leave out the reference kernel runs that interrupted them.
    """
    failures, counts, intervals = {}, {}, []
    with speed.Sampler() as sampler:
        for job in jobs:
            if tracer is not None:
                tracer.begin_job(phase, job.name)
            start = time.perf_counter()
            try:
                counts[job.name] = job.run()
            except workloads.WrongVerdict as exc:
                failures[job.name] = f"wrong verdict: {exc}"
            except Exception:  # a job that raises is a failed job; keep running the rest
                failures[job.name] = "raised: " + traceback.format_exc(limit=3)
            intervals.append((start, time.perf_counter()))
    wall, ref = zip(*(sampler.measure(*iv) for iv in intervals))
    return {
        "wall_s": sum(wall),
        "ref_s": sum(ref),
        "job_wall_s": wall,
        "job_ref_s": ref,
        "kernel_runs": sampler.runs,
        "failures": failures,
        "counts": counts,
    }


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.SETUP))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", required=True, choices=("setup", "run", "trace"))
    ap.add_argument("--started", type=float, required=True)
    ap.add_argument("--out-dir", required=True)
    args = ap.parse_args()

    setup = workloads.SETUP[args.workload]
    jobs = setup(args.seed)
    out = {
        "setup_s": time.monotonic() - args.started,
        "setup_kernel_s": min(speed.kernel_s() for _ in range(2)),
        "jobs": [j.name for j in jobs],
    }
    if args.mode == "setup":
        print(json.dumps(out))
        return

    began = time.perf_counter()
    batches = [run_batch(jobs)]
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if args.mode == "run":
        while time.perf_counter() - began < args.seconds:
            batches.append(run_batch(jobs))
    else:
        tracer = tracing.Tracer()
        with tracer.installed():
            tracer.begin_job("setup", "setup")
            jobs = setup(args.seed)
            for phase in ("batch1", "batch2"):
                batches.append(run_batch(jobs, tracer, phase))
        out["layers"] = []
        for phase, batch in zip(("batch1", "batch2"), batches[1:]):
            layers = tracer.layer_metrics({"setup", phase}, batch["kernel_runs"])
            factor = batch["ref_s"] / batch["wall_s"]
            out["layers"].append({
                m: layers[m] * factor if unit == "s" else layers[m]
                for m, unit, _, _ in tracing.LAYER_METRICS
            })
        out["spans"] = [tracer.span_count({p}) for p in ("setup", "batch1", "batch2")]
        spans_path = Path(args.out_dir) / f"{args.workload}-seed{args.seed}.spans.jsonl.gz"
        tracer.write(spans_path)
        out["spans_file"] = str(spans_path)
    out["batches"] = batches
    print(json.dumps(out))


if __name__ == "__main__":
    main()
