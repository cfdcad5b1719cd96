"""Every benchmark job runs and returns its known verdict.

``perfbench/workloads.py`` builds each workload's jobs from a seed; a job
raises ``WrongVerdict`` when a call into ``cubal`` answers otherwise.  The
file is read, never edited, so a change that breaks a call the benchmark
makes fails here.
"""
import importlib.util
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", ["verify", "replay", "glue"])
def test_every_job_of_the_workload_runs(workload):
    setup = _workloads().SETUP
    assert sorted(setup) == ["glue", "replay", "verify"]
    jobs = setup[workload](0)
    assert jobs
    for job in jobs:
        counters = job.run()
        assert isinstance(counters, dict) and counters, job.name
