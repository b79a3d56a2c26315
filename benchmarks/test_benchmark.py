"""Self-tests of the benchmark; run with ``python -m pytest benchmarks``.

They live outside ``tests/`` so the library's own suite does not run them.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(workload, trace, cwd=ROOT, seconds=1):
    return subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload,
         "--seed", "7", "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170, check=False)


def last_json(done):
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    return result["metrics"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_reports_every_end_to_end_metric(workload):
    metrics = last_json(run_bench(workload, trace=0))
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in metrics.items()} == want
    assert all(v["value"] > 0 for v in metrics.values())


def test_declared_command_measures_for_run_seconds():
    assert run.parse_args([]).seconds == SPEC["run_seconds"]


def test_traced_run_counts_repeat_exactly():
    metrics = last_json(run_bench("sweep_small", trace=1))
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in metrics.items()} == want
    value = {k: v["value"] for k, v in metrics.items()}
    # per sweep_small trial: 6 IIC and 6 RMF cells over 250 panels
    assert value["equalizers.iic_local_step.calls"] == 1500
    assert value["numerics.svd.calls"] == 3000
    assert value["numerics.hermitian_eig.calls"] == 1500
    assert value["numerics.logdet2_hpd.calls"] == 3018
    assert value["chain.chain_scalars"] == 6 * 249 * 20 ** 2
    assert value["capacity.channel_capacity.useful_ratio"] == 1 / 12
    assert value["cli.main.calls"] == 0
    assert 95.0 <= value["trace.self_sum_pct"] <= 100.0 + 1e-9


def warmup_outputs(workload, tracer=None):
    """Outputs of the warm-up items, CSV text included, maybe traced."""
    outputs = []
    for item in workload.warmup_group():
        if tracer is not None:
            tracer.begin_unit()
            tracer.install()
        try:
            outputs.append(workload.run_item(item))
            if isinstance(workload, workloads.SweepWorkload):
                outputs.append(workload.csv_path.read_text(encoding="utf-8"))
        finally:
            if tracer is not None:
                tracer.uninstall()
    return outputs


@pytest.mark.parametrize("name", WORKLOADS)
def test_tracing_changes_no_output(name, tmp_path):
    workload = workloads.make_workloads(tmp_path)[name]
    plain = warmup_outputs(workload)
    tracer = tracing.Tracer()
    assert warmup_outputs(workload, tracer) == plain
    assert tracer.spans and tracer.trials >= 1


@pytest.mark.parametrize("name", WORKLOADS)
def test_reference_check_catches_a_1e6_bit_change(name, tmp_path):
    workload = workloads.make_workloads(tmp_path)[name]
    item = workload.warmup_group()[-1]
    ref = workload.split_reference(workloads.load_reference()[name])[-1]
    out = workload.run_item(item)
    assert workload.check_item(item, out, ref) == []
    perturbed = json.loads(json.dumps(ref))
    if isinstance(workload, workloads.SweepWorkload):
        perturbed[0]["mean_sum_rate_bits"] += 1e-6
    else:
        perturbed["sum_rate_bits"] += 1e-6
    assert workload.check_item(item, out, perturbed)


def test_refuses_a_checkout_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench("sweep_small", trace=0, cwd=tmp_path)
    assert done.returncode != 0
    assert not done.stdout.strip()
