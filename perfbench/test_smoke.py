"""Smoke test of the benchmark itself, on tiny workloads.

    python3 -m pytest perfbench/test_smoke.py -q

Checks that every declared metric is emitted with its unit, that the output
checks reject a corrupted `pairs.csv`, and that the benchmark refuses to run
without the program's sources. It is not part of the repository's test
suite, which it would slow down.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import inputs
import run
import tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(ROOT / "src"))  # the office check builds its clouds with trk


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_declared_metrics_match_the_code():
    declared = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert declared == run.END_TO_END_UNITS
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert declared == tracer.PER_LAYER_UNITS
    assert [w["name"] for w in SPEC["workloads"]] == list(inputs.WORKLOADS)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_tiny_run_emits_every_metric(workload, trace):
    proc = _bench("--workload", workload, "--seed", "5", "--seconds", "1",
                  "--trace", trace, "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    declared = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    assert "error_rate" in proc.stdout


def _tiny_outputs(workload: str, tmp_path: Path) -> tuple[inputs.Workload, Path]:
    spec = inputs.generate(workload, 5, tmp_path, "tiny")[-1]
    out_dir = tmp_path / "out"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run(
        [sys.executable, "-m", "trk.cli", "run", "--config", str(spec.config_path),
         "--out", str(out_dir)],
        cwd=tmp_path, env=env, check=True, capture_output=True, timeout=170,
    )
    return spec, out_dir


def _corrupt(out_dir: Path, how: str) -> None:
    path = out_dir / "pairs.csv"
    lines = path.read_text().splitlines()
    if how == "drop_row":
        lines.pop()
    else:
        cells = lines[1].split(",")
        risk = float(cells[3])
        cells[3] = "nan" if how == "nan_risk" else repr(risk * (1.0 + 1e-6))
        lines[1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


CORRUPTIONS = [(w, how) for w in inputs.WORKLOADS for how in ("drop_row", "nan_risk")] + [
    ("office", "perturb_input_risk"),
    ("gaussian_lab", "perturb_input_risk"),
]


@pytest.mark.parametrize("workload,how", CORRUPTIONS)
def test_checks_reject_corrupted_pairs(workload, how, tmp_path):
    spec, out_dir = _tiny_outputs(workload, tmp_path)
    office = checks.expected_office_input_risks(spec) if workload == "office" else None
    assert checks.check_run(spec, out_dir, 0, "", office) == []
    _corrupt(out_dir, how)
    assert checks.check_run(spec, out_dir, 0, "", office)


def test_checks_reject_failed_exit_and_traceback(tmp_path):
    spec, out_dir = _tiny_outputs("gaussian_lab", tmp_path)
    assert checks.check_run(spec, out_dir, 1, "")
    assert checks.check_run(spec, out_dir, 0, "Traceback (most recent call last):")


def test_instances_have_their_own_seeds_and_inputs(tmp_path):
    office = inputs.generate("office", 5, tmp_path)
    first = [w.config_path.read_text() for w in office]
    assert [w.config["seed"] for w in office] == [20, 21, 22, 23]
    assert len(set(first)) == len(office)
    for w in office:
        w.config_path.unlink()
    assert [w.config_path.read_text() for w in inputs.generate("office", 5, tmp_path)] == first
    (single,) = inputs.generate("gaussian_lab", 5, tmp_path / "c")
    assert single.config["seed"] == 5


def test_instance_mean_averages_each_instance_median():
    assert run._instance_mean([3.0, 10.0, 5.0, 20.0, 4.0], 2) == pytest.approx((4.0 + 15.0) / 2)
    assert run._instance_mean([1.0, 9.0, 2.0], 1) == 2.0


def test_first_differing_line():
    assert checks.first_differing_line("a\nb\n", "a\nb\n") is None
    assert checks.first_differing_line("a\nb\n", "a\nc\n") == 2
    assert checks.first_differing_line("a\n", "a\nb\n") == 2


def test_self_time_subtracts_the_union_of_children():
    spans = [
        ["parent", 0.0, 10.0, None, {}],
        ["child", 1.0, 3.0, 0, {}],
        ["child", 2.0, 5.0, 0, {}],
        ["grandchild", 2.0, 2.5, 2, {}],
    ]
    assert tracer.self_times(spans) == pytest.approx([6.0, 2.0, 2.5, 0.5])


def test_layer_metrics_of_a_toy_trace():
    spans = [
        ["cli.main", 0.0, 10.0, None, {}],
        ["pipeline.run", 1.0, 9.0, 0, {}],
        ["optimal_transport.wasserstein", 2.0, 5.0, 1, {"route": "lp", "dense_bytes": 320_000}],
        ["finetune.train_classifier", 5.0, 8.0, 1, {"epochs": 100}],
        ["finetune.cross_entropy_objective", 5.5, 7.5, 3, {}],
    ]
    m = tracer.layer_metrics(spans)
    assert set(m) == set(tracer.PER_LAYER_UNITS) - {"trace.overhead_s"}
    assert (m["optimal_transport.lp.calls"], m["optimal_transport.lp.self_s"]) == (1, 3.0)
    assert m["optimal_transport.cost_matrix_mb"] == pytest.approx(320_000 / 2**20)
    assert m["finetune.train_classifier.epoch_ms"] == pytest.approx(30.0)
    assert m["optimal_transport.share"] == m["finetune.share"] == pytest.approx(3.0 / 8.0)
    assert m["pipeline.share"] == pytest.approx(2.0 / 8.0)


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "office", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_a_run_whose_pairs_differ_from_the_first_counts_as_failed(tmp_path):
    specs = inputs.generate("gaussian_lab", 5, tmp_path, "tiny")
    session = run.Session(specs, tmp_path, dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    session.run(traced=False)
    session.reference_pairs[0] += "0,0,,0.0,0.0,0.0\n"
    session.run(traced=False)
    assert (session.attempted, session.failed) == (2, 1)
    assert "differs from the first run" in session.problems[0]


def test_child_times_are_scaled_by_the_host_probe(tmp_path):
    specs = inputs.generate("gaussian_lab", 5, tmp_path, "tiny")
    session = run.Session(specs, tmp_path, dict(os.environ))
    child = session.spawn([sys.executable, "-c", "import time; time.sleep(0.35)"], tmp_path / "nap")
    assert child.wall_s >= 0.35 and child.probe_s > 0
    assert child.scaled_s == pytest.approx(child.wall_s * run.PROBE_REF_S / child.probe_s)
    assert (session.walls, session.probes) == ([child.wall_s], [child.probe_s])
