"""Output checks for one `trk run` of a benchmark workload.

A run passes when it exits 0 without a traceback and its `pairs.csv` holds
the expected rows with finite risks and accuracies in [0, 1]. On top of
that, `office` rows must match an independent exact W1 (assignment on the
Euclidean distance matrix, not the program's LP), and `gaussian_lab` rows
must satisfy the closed-form identities of the report. Byte identity of
`pairs.csv` across runs of one seed is checked by the caller.
"""

from __future__ import annotations

import csv
import io
import json
import math
from pathlib import Path

from scipy.optimize import linear_sum_assignment
from scipy.spatial.distance import cdist

from inputs import Workload

PAIRS_COLUMNS = ["source", "target", "accuracy", "input_risk", "output_risk", "transfer_risk"]

# HiGHS and the assignment solver agree to ~2e-10 relative on the office
# instances; a real routing or cost error is many orders larger.
OFFICE_W1_RTOL = 1e-8
# The gaussian_lab identities are exact sums and products of the reported
# floats, up to re-association.
IDENTITY_RTOL = 1e-12


def expected_office_input_risks(workload: Workload) -> dict[tuple[str, str], float]:
    """Exact W1 between target and source train clouds for every ordered pair.

    Needs `trk` importable: the clouds come from `make_synthetic_domains`,
    the distance from `linear_sum_assignment` on a `cdist` cost matrix.
    Equal-size uniform clouds make the optimal plan a permutation.
    """
    from trk.finetune import make_synthetic_domains

    domains = make_synthetic_domains(
        workload.config["seed"], **workload.config.get("synthetic_office", {})
    )
    risks = {}
    for source in domains:
        for target in domains:
            if source is target:
                continue
            cost = cdist(target.train.points, source.train.points)
            rows, cols = linear_sum_assignment(cost)
            risks[(source.name, target.name)] = float(cost[rows, cols].mean())
    return risks


def check_run(
    workload: Workload,
    out_dir: Path,
    returncode: int,
    stderr: str,
    office_risks: dict[tuple[str, str], float] | None = None,
) -> list[str]:
    """Problems found in one run's outputs; an empty list means it passed."""
    problems = []
    if returncode != 0:
        problems.append(f"exit code {returncode}")
    if "Traceback" in stderr:
        problems.append("traceback on stderr")
    try:
        pairs_text = (out_dir / "pairs.csv").read_text()
    except OSError as err:
        return problems + [f"pairs.csv unreadable: {err}"]
    problems.extend(check_pairs(workload, pairs_text))
    if problems:
        return problems
    rows = list(csv.DictReader(io.StringIO(pairs_text)))
    if workload.name == "office" and office_risks is not None:
        problems.extend(_check_office(rows, office_risks))
    if workload.name == "gaussian_lab":
        try:
            report = json.loads((out_dir / "report.json").read_text())
        except (OSError, ValueError) as err:
            return problems + [f"report.json unreadable: {err}"]
        problems.extend(_check_gaussian_lab(rows, report))
    return problems


def check_pairs(workload: Workload, pairs_text: str) -> list[str]:
    """Row count, header, finite risks and accuracy range of `pairs.csv`."""
    reader = csv.DictReader(io.StringIO(pairs_text))
    if reader.fieldnames != PAIRS_COLUMNS:
        return [f"pairs.csv header {reader.fieldnames} != {PAIRS_COLUMNS}"]
    rows = list(reader)
    problems = []
    if len(rows) != workload.expected_rows:
        problems.append(f"pairs.csv has {len(rows)} rows, expected {workload.expected_rows}")
    for line_no, row in enumerate(rows, start=2):
        try:
            risks = [float(row[c]) for c in ("input_risk", "output_risk", "transfer_risk")]
            accuracy = float(row["accuracy"]) if row["accuracy"] else None
        except (TypeError, ValueError):
            problems.append(f"pairs.csv line {line_no}: non-numeric cell")
            continue
        if not all(math.isfinite(r) and r >= 0.0 for r in risks):
            problems.append(f"pairs.csv line {line_no}: risk not finite and non-negative")
        if workload.has_accuracy and accuracy is None:
            problems.append(f"pairs.csv line {line_no}: accuracy missing")
        if accuracy is not None and not 0.0 <= accuracy <= 1.0:
            problems.append(f"pairs.csv line {line_no}: accuracy {accuracy} outside [0, 1]")
    return problems


def _check_office(rows: list[dict], expected: dict[tuple[str, str], float]) -> list[str]:
    problems = []
    seen = set()
    for row in rows:
        key = (row["source"], row["target"])
        seen.add(key)
        if key not in expected:
            problems.append(f"office: unexpected pair {key}")
            continue
        got, want = float(row["input_risk"]), expected[key]
        if not math.isclose(got, want, rel_tol=OFFICE_W1_RTOL):
            problems.append(f"office: input_risk {key} = {got!r}, exact W1 is {want!r}")
    missing = sorted(set(expected) - seen)
    if missing:
        problems.append(f"office: missing pairs {missing}")
    return problems


def _check_gaussian_lab(rows: list[dict], report: dict) -> list[str]:
    combiner = report["config"]["combiner"]
    report_rows = report["rows"]
    if len(report_rows) != len(rows):
        return [f"gaussian_lab: report has {len(report_rows)} rows, pairs.csv {len(rows)}"]
    problems = []
    for i, (row, full) in enumerate(zip(rows, report_rows)):
        e_in, e_out = float(row["input_risk"]), float(row["output_risk"])
        if (e_in, e_out) != (full["input_risk"], full["output_risk"]):
            problems.append(f"gaussian_lab row {i}: pairs.csv and report.json disagree")
        if not _close(e_out, full["w_variance"] + full["w_bias"]):
            problems.append(f"gaussian_lab row {i}: output_risk != w_variance + w_bias")
        if combiner["form"] == "linear":
            combined = e_out + combiner["weight"] * e_in
        else:
            combined = (
                combiner["input_coeff"] * e_in
                + combiner["output_coeff"] * e_out ** combiner["power"]
            )
        if not _close(float(row["transfer_risk"]), combined):
            problems.append(f"gaussian_lab row {i}: transfer_risk does not match the combiner")
    return problems


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=IDENTITY_RTOL)


def first_differing_line(a: str, b: str) -> int | None:
    """1-based line number where two texts first differ, or None if equal."""
    if a == b:
        return None
    for i, (x, y) in enumerate(zip(a.splitlines(), b.splitlines()), start=1):
        if x != y:
            return i
    return min(len(a.splitlines()), len(b.splitlines())) + 1

