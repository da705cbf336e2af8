#!/usr/bin/env python3
"""Benchmark of `trk run`: end-to-end and per-layer metrics on seeded workloads.

Run from the root of a checkout that holds `src/trk`:

    python3 perfbench/run.py --workload office --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one table

Untraced (`--trace 0`), it times `python -m trk.cli --version` (set-up) and
then runs `python -m trk.cli run --config ...` as one child process at a
time, closed loop, cycling through the workload's instances, until
`--seconds` are used and every instance ran. It reports the medians of
`run_s`, `pairs_per_s`, `setup_s` and `peak_rss_mb`; with several instances,
`run_s` is the mean of the instances' medians. While a child runs, this
process times a short CPU probe every 0.1 s, and each timing is the child's
wall time scaled to a host on which the probe takes `PROBE_REF_S`; the raw
wall times and probes are kept in the result record. Traced (`--trace 1`),
it alternates traced and untraced children and reports the per-layer
metrics of `tracer.py` and the tracing overhead. Every run's outputs are checked
(`checks.py`), and `pairs.csv` must be byte-identical across the runs of one
seed; a run that fails counts in `failed`, and `error_rate` is
failed / attempted.

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. A fuller record, with sample counts,
quartiles and the machine it ran on, goes to `.perfbench/results/`.
"""

from __future__ import annotations

import argparse
import compileall
import ctypes
import dataclasses
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"

import checks  # noqa: E402  (sibling modules of this script)
import inputs  # noqa: E402
import tracer  # noqa: E402

# Claims are made on DEFAULT_SEED and rechecked on HELD_OUT_SEED, which a
# change must not be tuned on.
DEFAULT_SEED = 0
HELD_OUT_SEED = 9173
SETUP_SAMPLES = 5
MIN_RUNS = 2
CHILD_TIMEOUT_S = 150.0
# The speed of a shared host drifts by up to 1.6x, for seconds to minutes
# at a time, and the VM has no hardware counters to count work instead. So
# while a child runs, a thread of this process times a short pure-Python
# loop every PROBE_INTERVAL_S (about 1 % of one CPU), and the child's wall
# time is scaled by PROBE_REF_S over the median of those probes. PROBE_REF_S
# is about the probe's time on an unloaded 2-vCPU x86-64 VM under CPython
# 3.11, so scaled times read close to that host's unloaded wall times.
PROBE_LOOPS = 20_000
PROBE_INTERVAL_S = 0.1
PROBE_REF_S = 0.0011
END_TO_END_UNITS = {"run_s": "s", "pairs_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MiB"}


class BenchError(RuntimeError):
    """The benchmark cannot measure this checkout."""


@dataclasses.dataclass(frozen=True)
class Child:
    """One finished child process.

    `probe_s` is the median host probe taken while it ran, and `scaled_s`
    its wall time scaled to a host on which the probe takes PROBE_REF_S.
    """

    wall_s: float
    returncode: int
    peak_rss_mb: float
    stdout: str
    stderr: str
    probe_s: float
    scaled_s: float


def host_probe() -> float:
    """Seconds of one fixed pure-Python loop of PROBE_LOOPS steps."""
    start = time.perf_counter()
    total = 0
    for i in range(PROBE_LOOPS):
        total += i * i
    return time.perf_counter() - start


def _probe_until(stop: threading.Event, samples: list[float]) -> None:
    while True:
        samples.append(host_probe())
        if stop.wait(PROBE_INTERVAL_S):
            return


def spawn(cmd: list[str], cwd: Path, env: dict, log_stem: Path) -> Child:
    """Run `cmd` to completion; time it from spawn to exit and read its own peak RSS.

    The child is reaped with `os.wait4`, so `ru_maxrss` is this child's
    alone, not the cumulative maximum over all children. The host is probed
    while it runs.
    """
    out_path, err_path = log_stem.with_suffix(".out"), log_stem.with_suffix(".err")
    samples: list[float] = []
    stop = threading.Event()
    prober = threading.Thread(target=_probe_until, args=(stop, samples))
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            cmd, cwd=cwd, env=env, stdin=subprocess.DEVNULL, stdout=out, stderr=err
        )
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        prober.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
            stop.set()
            timer.join()
            prober.join()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    probe = statistics.median(samples)
    return Child(
        wall,
        proc.returncode,
        usage.ru_maxrss / 1024.0,
        out_path.read_text(errors="replace"),
        err_path.read_text(errors="replace"),
        probe,
        wall * PROBE_REF_S / probe,
    )


class Session:
    """Runs and checks the `trk run` children of one workload and seed.

    `instances` are the workload's generated configs; a run names the one it
    uses, and `pairs.csv` must be byte-identical across the runs of each.
    """

    def __init__(self, instances: list[inputs.Workload], work_dir: Path, env: dict):
        self.instances = instances
        self.work_dir = work_dir
        self.env = env
        self.office_risks = [
            checks.expected_office_input_risks(w) if w.name == "office" else None
            for w in instances
        ]
        self.reference_pairs: list[str | None] = [None] * len(instances)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.probes: list[float] = []
        self.walls: list[float] = []

    def spawn(self, cmd: list[str], log_stem: Path) -> Child:
        """`spawn` in the work directory, keeping its raw wall time and probe."""
        child = spawn(cmd, self.work_dir, self.env, log_stem)
        self.walls.append(child.wall_s)
        self.probes.append(child.probe_s)
        return child

    def version(self) -> Child:
        """One `trk --version` child: interpreter start plus imports."""
        stem = self.work_dir / f"version{self.attempted}"
        child = self.spawn([sys.executable, "-m", "trk.cli", "--version"], stem)
        if child.returncode != 0 or not child.stdout.startswith("trk "):
            raise BenchError(f"`trk --version` failed: {child.stderr.strip()[-500:]}")
        return child

    def run(self, traced: bool, instance: int = 0) -> tuple[Child, dict | None]:
        """One `trk run` child of `instance`, checked; returns it with its spans when traced."""
        workload = self.instances[instance]
        index = self.attempted
        self.attempted += 1
        out_dir = self.work_dir / f"run{index}"
        trk_args = ["run", "--config", str(workload.config_path), "--out", str(out_dir)]
        spans_path = self.work_dir / f"spans{index}.json"
        if traced:
            run_id = f"{workload.name}-{workload.seed}-{instance}-{index}"
            cmd = [sys.executable, str(BENCH / "tracer.py"), "--spans", str(spans_path),
                   "--run-id", run_id, "--", *trk_args]
        else:
            cmd = [sys.executable, "-m", "trk.cli", *trk_args]
        child = self.spawn(cmd, self.work_dir / f"run{index}")
        problems = checks.check_run(
            workload, out_dir, child.returncode, child.stderr, self.office_risks[instance]
        )
        if not problems:
            pairs = (out_dir / "pairs.csv").read_text()
            if self.reference_pairs[instance] is None:
                self.reference_pairs[instance] = pairs
            line = checks.first_differing_line(self.reference_pairs[instance], pairs)
            if line is not None:
                problems.append(f"pairs.csv differs from the first run at line {line}")
        spans = None
        if traced and spans_path.exists():
            spans = json.loads(spans_path.read_text())
            spans_path.unlink()
        if problems:
            self.failed += 1
            self.problems.extend(f"run {index}: {p}" for p in problems)
        shutil.rmtree(out_dir, ignore_errors=True)
        return child, spans


def _quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def _sample(values: list[float], unit: str) -> dict:
    median = statistics.median_low if unit == "count" else statistics.median
    return {
        "value": median(values),
        "unit": unit,
        "samples": len(values),
        "quartiles": _quartiles(values),
        "all": values,
    }


def measure(name: str, seed: int, seconds: float, trace: bool, size: str) -> dict:
    """Measure one workload; returns the full result record."""
    work_root = STATE / "work"
    work_root.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env.pop("TRK_LOG", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    with tempfile.TemporaryDirectory(dir=work_root) as tmp:
        instances = inputs.generate(name, seed, Path(tmp), size)
        # Byte-compile once, as the first import would, so no timed child pays for it.
        compileall.compile_dir(SRC / "trk", quiet=1)
        session = Session(instances, Path(tmp), env)
        if trace:
            metrics = _traced_metrics(session, seconds)
        else:
            metrics = _untraced_metrics(session, seconds)
    return {
        "correct": session.failed == 0,
        "attempted": session.attempted,
        "failed": session.failed,
        "error_rate": session.failed / session.attempted,
        "metrics": metrics,
        "problems": session.problems,
        "raw_wall_s": session.walls,
        "probe_s": session.probes,
        "probe_ref_s": PROBE_REF_S,
        "provenance": provenance(name, seed, seconds, trace, size),
    }


def _untraced_metrics(session: Session, seconds: float) -> dict:
    # Set-up samples go between the first runs rather than all up front, so
    # that they see the same machine as the runs do. Runs cycle through the
    # instances, at least once each.
    count = len(session.instances)
    setup, runs = [], []
    start = time.perf_counter()
    while True:
        if len(setup) < SETUP_SAMPLES:
            setup.append(session.version())
        child, _ = session.run(traced=False, instance=len(runs) % count)
        runs.append(child)
        elapsed = time.perf_counter() - start
        median_wall = statistics.median(c.wall_s for c in runs)
        if len(runs) >= max(MIN_RUNS, count) and elapsed + median_wall > seconds:
            break
    setup.extend(session.version() for _ in range(SETUP_SAMPLES - len(setup)))
    run_s = _sample([c.scaled_s for c in runs], "s")
    run_s["value"] = _instance_mean([c.scaled_s for c in runs], count)
    rows = session.instances[0].expected_rows
    return {
        "run_s": run_s,
        "pairs_per_s": {**_sample([rows / c.scaled_s for c in runs], "1/s"),
                        "value": rows / run_s["value"]},
        "setup_s": _sample([c.scaled_s for c in setup], "s"),
        "peak_rss_mb": _sample([c.peak_rss_mb for c in runs], "MiB"),
    }


def _instance_mean(values: list[float], count: int) -> float:
    """Mean over instances of each instance's median; `values[i]` is of instance i % count.

    With one instance it is the plain median.
    """
    return statistics.fmean(statistics.median(values[j::count]) for j in range(count))


def _traced_metrics(session: Session, seconds: float) -> dict:
    # A traced child and an untraced one run on the same instance, so that
    # their difference is the tracing overhead alone.
    count = len(session.instances)
    traced_walls, plain_walls, per_run = [], [], []
    start = time.perf_counter()
    while True:
        instance = len(traced_walls) % count
        child, spans = session.run(traced=True, instance=instance)
        traced_walls.append(child.scaled_s)
        if spans is not None:
            per_run.append(tracer.layer_metrics(spans["spans"]))
        child, _ = session.run(traced=False, instance=instance)
        plain_walls.append(child.scaled_s)
        elapsed = time.perf_counter() - start
        pair_s = statistics.median(traced_walls) + statistics.median(plain_walls)
        if elapsed + pair_s > seconds:
            break
    if not per_run:
        raise BenchError("no traced run wrote its spans")
    metrics = {}
    for metric, unit in tracer.PER_LAYER_UNITS.items():
        if metric == "trace.overhead_s":
            overhead = statistics.median(t - p for t, p in zip(traced_walls, plain_walls))
            metrics[metric] = {"value": overhead, "unit": unit, "samples": len(traced_walls)}
        else:
            metrics[metric] = _sample([r[metric] for r in per_run], unit)
    return metrics


def provenance(name: str, seed: int, seconds: float, trace: bool, size: str) -> dict:
    """Machine, library versions and inputs behind a result."""
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = None
    return {
        "workload": name,
        "seed": seed,
        "size": size,
        "seconds": seconds,
        "trace": trace,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": _blas_threads(numpy),
        "git_commit": _git_commit(),
        "load": "closed loop, one trk child at a time",
    }


def _blas_threads(numpy) -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, if it is OpenBLAS."""
    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*.so*")):
        lib = ctypes.CDLL(str(path))
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit() -> str | None:
    """Commit of the checkout, read from `.git` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def contract_line(result: dict) -> str:
    """The last stdout line: correct, attempted, failed and each metric's value and unit."""
    return json.dumps(
        {
            "correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {
                k: {"value": v["value"], "unit": v["unit"]} for k, v in result["metrics"].items()
            },
        }
    )


def print_table(result: dict) -> None:
    p = result["provenance"]
    print(f"== {p['workload']}  seed={p['seed']}  size={p['size']}  trace={int(p['trace'])}  "
          f"nproc={p['nproc']}  {p['blas']} x{p['blas_threads']}  python {p['python']}  "
          f"numpy {p['numpy']}  scipy {p['scipy']}  commit {p['git_commit']}")
    for name, m in result["metrics"].items():
        print(f"  {name:42s} {m['value']:14.6g} {m['unit']:6s} (median of {m['samples']})")
    print(f"  {'error_rate':42s} {result['error_rate']:14.6g} {'ratio':6s} "
          f"({result['failed']} failed of {result['attempted']})")
    for problem in result["problems"]:
        print(f"  FAILED {problem}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark `trk run` on seeded workloads.")
    parser.add_argument("--workload", required=True, choices=[*inputs.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=inputs.SIZES, default="full",
                        help="'tiny' shrinks every workload for smoke tests")
    args = parser.parse_args(argv)
    if not (SRC / "trk" / "cli.py").is_file():
        print(f"perfbench: no trk sources at {SRC / 'trk'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    names = inputs.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            result = measure(name, args.seed, args.seconds, bool(args.trace), args.size)
            print_table(result)
            results_dir = STATE / "results"
            results_dir.mkdir(parents=True, exist_ok=True)
            record = results_dir / f"{name}-seed{args.seed}-trace{args.trace}.json"
            record.write_text(json.dumps(result, indent=2) + "\n")
            results[name] = result
    except BenchError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1
    if len(results) == 1:
        print(contract_line(results[names[0]]))
    else:
        merged = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
        print(contract_line(merged))
    return 0


if __name__ == "__main__":
    sys.exit(main())
