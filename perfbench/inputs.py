"""Seeded inputs for the benchmark workloads.

Every workload is one or more `trk run` configs (instances), plus the
dataset files they name, generated from the workload seed alone. The program
under test only ever sees these files. Floats are written with
`repr(float(x))`, so the same seed gives byte-identical inputs on every
machine.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

WORKLOADS = ("office", "empirical", "gaussian_lab")
SIZES = ("full", "tiny")

# `empirical`: datasets x rows per dataset, one feature column and 4 labels.
_EMPIRICAL_SHAPE = {"full": (4, 20_000), "tiny": (4, 200)}
_EMPIRICAL_LABELS = 4
# `gaussian_lab`: task dimension and number of task pairs.
_GAUSSIAN_SHAPE = {"full": (8, 2000), "tiny": (3, 20)}
# `office`: samples per domain; None keeps the mode's default (400).
_OFFICE_SAMPLES = {"full": None, "tiny": 24}
# Independently seeded instances per workload. The HiGHS time of one office
# study depends on its points (5.7-7.6 s over five seeds), so an office run
# times four studies and reports their mean.
INSTANCES = {"office": 4, "empirical": 1, "gaussian_lab": 1}


@dataclass(frozen=True)
class Workload:
    """Generated inputs of one instance of a workload.

    Attributes:
        name: workload name.
        seed: workload seed the inputs were generated from.
        instance: index of this instance; its config seed is
            `instance_seed(seed, instance, count)`.
        config_path: the `trk run` config.
        config: the same config as a dict.
        expected_rows: rows `pairs.csv` must hold.
        has_accuracy: whether every row must carry an accuracy.
    """

    name: str
    seed: int
    instance: int
    config_path: Path
    config: dict
    expected_rows: int
    has_accuracy: bool


def instance_seed(seed: int, instance: int, count: int) -> int:
    """Config seed of one instance, in the non-negative range numpy accepts.

    With one instance it is the workload seed itself; with `count` of them,
    distinct workload seeds get disjoint config seeds.
    """
    return (seed * count + instance) % 2**31


def generate(name: str, seed: int, work_dir: Path, size: str = "full") -> list[Workload]:
    """Write the configs (and data files) of every instance of workload `name`."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}, expected one of {WORKLOADS}")
    if size not in SIZES:
        raise ValueError(f"unknown size {size!r}, expected one of {SIZES}")
    count = INSTANCES[name]
    return [_generate_instance(name, seed, j, count, work_dir, size) for j in range(count)]


def _generate_instance(
    name: str, seed: int, instance: int, count: int, work_dir: Path, size: str
) -> Workload:
    work_dir.mkdir(parents=True, exist_ok=True)
    cseed = instance_seed(seed, instance, count)
    if name == "office":
        config: dict = {"mode": "synthetic_office", "seed": cseed}
        if _OFFICE_SAMPLES[size] is not None:
            config["synthetic_office"] = {"samples_per_domain": _OFFICE_SAMPLES[size]}
        n_domains = 3
        expected, has_accuracy = n_domains * (n_domains - 1), True
    elif name == "empirical":
        n_sets, rows = _EMPIRICAL_SHAPE[size]
        paths = _write_empirical_csvs(cseed, work_dir, n_sets, rows)
        config = {
            "mode": "empirical",
            "seed": cseed,
            "empirical": {"datasets": [str(p) for p in paths]},
        }
        expected, has_accuracy = n_sets * (n_sets - 1), True
    else:
        dim, n_pairs = _GAUSSIAN_SHAPE[size]
        config = {
            "mode": "gaussian_lab",
            "seed": cseed,
            "gaussian_lab": {"dim": dim, "n_pairs": n_pairs},
        }
        expected, has_accuracy = n_pairs, False
    config["out_dir"] = str(work_dir / "out")
    config_path = work_dir / f"{name}-{instance}.json"
    config_path.write_text(json.dumps(config, indent=2, sort_keys=True) + "\n")
    return Workload(name, seed, instance, config_path, config, expected, has_accuracy)


def _write_empirical_csvs(seed: int, work_dir: Path, n_sets: int, rows: int) -> list[Path]:
    """Dataset k: x0 ~ N(1.5 label + 0.3 k^2, (0.6 (1 + 0.2 k))^2), label uniform."""
    rng = np.random.default_rng(seed)
    paths = []
    for k in range(n_sets):
        labels = rng.integers(0, _EMPIRICAL_LABELS, size=rows)
        sigma = 0.6 * (1.0 + 0.2 * k)
        x0 = 1.5 * labels + 0.3 * k * k + rng.normal(scale=sigma, size=rows)
        lines = ["x0,label"]
        lines.extend(f"{float(x)!r},{int(y)}" for x, y in zip(x0, labels))
        path = work_dir / f"dataset_{k}.csv"
        path.write_text("\n".join(lines) + "\n")
        paths.append(path)
    return paths
