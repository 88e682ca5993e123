"""Tests of the benchmark itself, each workload at a tiny size.

They check that every metric prints by name with its unit, that job lists
follow the seed, that traced and untraced runs give the same outputs, and
that a job which raises is counted as failed instead of stopping the run.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import frobmat.biased as biased  # noqa: E402
import frobmat.gaingraph as gaingraph  # noqa: E402
import frobmat.groups as groups  # noqa: E402
import frobmat.lifts as lifts  # noqa: E402
import frobmat.recovery as recovery  # noqa: E402
import run as bench  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_cli(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_metric_prints_with_its_unit(workload, trace):
    proc = run_cli("--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    *lines, last = proc.stdout.splitlines()
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    if not trace:
        wanted["failed_frac"] = "ratio"
    printed = {line.split()[0]: line.split()[2] for line in lines if len(line.split()) > 2}
    for name, unit in wanted.items():
        assert printed.get(name) == unit, name


def _fingerprint(jobs):
    return [(job.key, job.inputs) for job in jobs]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_decides_the_job_list(workload):
    first = _fingerprint(workloads.build(workload, 5))
    assert first == _fingerprint(workloads.build(workload, 5))
    assert first != _fingerprint(workloads.build(workload, 6))


@pytest.mark.parametrize("workload,count", [("catalog", 4), ("structure", 6), ("converse", 1)])
def test_traced_outputs_match_untraced(workload, count):
    plain = workloads.build(workload, 8)[:count]
    expected = [job.canon(job.run()) for job in plain]
    again = workloads.build(workload, 8)[:count]
    with Tracer() as tracer:
        traced = [job.canon(job.run()) for job in again]
    assert traced == expected
    assert len(tracer.start) > 0
    reference = json.loads((BENCH / "reference.json").read_text())[workload]
    assert [reference[job.key] for job in plain] == [workloads.digest(t) for t in expected]


def test_tracer_rebinds_every_binding_site_and_restores_them():
    original = biased.scan_components
    with Tracer() as tracer:
        sites = tracer.binding_sites()
        assert lifts.scan_components is not original
        assert lifts.scan_components is biased.scan_components
    for site in ("frobmat.lifts.scan_components", "frobmat.lifts.frame_circuits",
                 "frobmat.cli.frame_circuits", "frobmat.biased.scan_components"):
        assert site in sites
    assert lifts.scan_components is original
    assert "rank" in vars(lifts.LiftedMatroid) and not hasattr(lifts.LiftedMatroid.rank, "__wrapped__")


def test_raising_job_counts_as_failed():
    # recover_partition on K_5 over D10 enumerates every cycle and raises
    # LimitExceeded; the harness must count it and keep going
    group = groups.make_dihedral(10)
    part = groups.frobenius_partitions(group)[2]
    oracle = lifts.LiftedMatroid(
        lifts.FrobeniusContext(group, part, validate=False),
        gaingraph.complete_gain_graph(group, 5),
    )
    failing = workloads.Job(
        "D10:p2", lambda: recovery.recover_partition(group, part.kernel, 5, oracle), repr
    )
    fine = workloads.build("catalog", 1)[0]
    loop = bench.run_jobs([failing, fine], 60)
    assert len(loop.latencies) == 2 and loop.errors[0].startswith("LimitExceeded")
    reference = json.loads((BENCH / "reference.json").read_text())["catalog"]
    failed = bench.check([failing, fine], loop, reference)
    assert list(failed) == [0]
    result = bench.finish({}, 2, failed)
    assert result["failed"] == 1 and not result["correct"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_cli("--workload", "catalog", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
