"""Experiment orchestration: config parsing, dataset ingestion, reports.

A run is driven by a strict JSON config (a key the run would not read is
rejected, so typos and dead knobs fail loudly), produces a JSON report plus a flat CSV pair table, and is
deterministic given the seed: the pair table is byte-identical across runs.
Three modes share the report schema.  `empirical` ingests labeled feature
clouds and runs the transfer protocol over every ordered dataset pair (or
just combines externally supplied risk rows).  `gaussian_lab` draws random
task pairs and reports their closed-form risks, regret and residual.
`synthetic_office` generates drifting class-blob domains and reports the
accuracy/risk table with rank correlations.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import os
import time
import warnings
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .distributions import EmpiricalDistribution, _kl_moments, _w2_moments
from .finetune import (
    SyntheticDomain,
    TrainConfig,
    _fit_workers,
    _fork_workers,
    _run_forked,
    evaluate_risk_accuracy_pairs,
    make_synthetic_domains,
)
from .gaussian_lab import _MAX_DRIFT, _basic_cases, _random_pairs, _random_tasks
from .optimal_transport import OtConfig
from .transfer_core import PolynomialCombiner, combine

__all__ = [
    "PipelineConfig",
    "ingest_dataset",
    "run",
    "fit_combiner",
]

_MODES = ("empirical", "gaussian_lab", "synthetic_office")
_FIT_NOISE_TOL = 1e-12
_CSV_COLUMNS = ("source", "target", "accuracy", "input_risk", "output_risk", "transfer_risk")
# gaussian_lab runs its pairs in blocks whose arrays stay within this many
# bytes; a block holds at least one pair, however large `dim` is.
_BLOCK_BYTES = 2 * 2**20
# Float (dim + 1)^2 matrices a pair keeps alive at the peak of a block
# (9.9 under tracemalloc at dim 64 and at dim 150).
_PAIR_MATRICES = 10
# Pairs from which a gaussian_lab run computes its rows on two processes
# (`_gaussian_workers`).  A fork, pipe and reap of an empty child cost about
# 2 ms here.  Run in-process on a 2-CPU host, 15 alternating pairs per size,
# with each process drawing in buffer fills and rendering its own rows, two
# processes ran at a median 1.07-1.25x serial speed at dim 2 from 200 pairs
# and 1.36x at 500, and at 1.13-1.27x at dim 8 from 200 and 1.6x from 700.
# Dim 1 crosses later: 0.5-0.7x up to 400 pairs, 0.69x and 1.11x at 500 in
# two sweeps, 1.17x at 600 and 1.13-1.25x from 700.  No single count is
# better for all three, so the count stays where dims 1-2 crossed before.
_CONCURRENT_MIN_PAIRS = 500
# Largest `dim` a gaussian_lab run computes on two processes.  From 26 on,
# OpenBLAS runs the stacked `eigh` of `psd_sqrt` on a thread per CPU in
# each process, and the two pools contend for the cores: at 200 pairs two
# processes ran at a median 0.11-0.55x serial speed at dims 26-64, against
# 1.47-1.69x at dims 12-25, and 1.6-1.9x at dim 32 under
# OPENBLAS_NUM_THREADS=1.
_CONCURRENT_MAX_DIM = 25
# Bytes of dataset files, in all, from which an empirical run reads them on
# two processes (`_ingest_workers`).  On 2 and 4 perfbench-style CSVs (one
# feature, 2-CPU host, `_empirical_domains` in-process, 31-41 alternating
# serial/two-process pairs per size) two processes ran at a median
# 0.24-0.73x serial speed up to 411 KB, where the fork, pipe and reap cost
# 3-4 ms, 0.94-1.19x from 415 KB to 1 MB, and 1.11-1.43x from 1.2 to 2.5 MB.
_CONCURRENT_MIN_BYTES = 1_200_000
# The closed forms of a gaussian_lab row besides its risks.
_GAUSSIAN_TERMS = ("kl_variance", "kl_bias", "w_variance", "w_bias", "regret", "residual")

# The config schema: one table per section, key -> (type, default).  A tuple
# type lists the legal values; a dict type is a nested section.  A run reads
# the tables its mode and choices select (`_tables`), rejects every other key
# by its path, and echoes what it parsed.
_ROOT = {
    "mode": (_MODES, None),
    "out_dir": (str, "trk_run"),
    "input_risk_rescale": (float, 1.0),
}
_SEED = {"seed": (int, 0)}  # a risk table (--override-risks) draws nothing
_FORMS = {
    "linear": {"weight": (float, 1.0)},
    "polynomial2": {
        "input_coeff": (float, 1.0), "output_coeff": (float, 1.0), "power": (float, 2.0),
    },
}
_COMBINER = {"form": (tuple(_FORMS), "polynomial2")}
# gaussian_lab's closed forms measure both risks by W_2 or by KL.
_KIND = {"kind": (("wasserstein", "kl"), "wasserstein")}
# The sampled modes solve W_p between clouds, and train.  Both methods read
# Sinkhorn's regularization and budget; only 'auto' reads the support cap of
# its exact routes.
_SINKHORN = {"sinkhorn_epsilon": (float, None), "sinkhorn_max_iter": (int, 2000)}
_SOLVERS = {"auto": {"lp_max_support": (int, 400), **_SINKHORN}, "sinkhorn": _SINKHORN}
_SOLVER = {"p": (float, 1.0), "method": (tuple(_SOLVERS), "auto")}
# The output map's descent.  The classifier heads have no knob: each is its
# regularized loss's unique minimizer.
_RISK_TRAIN = {"epochs": (int, 10), "learning_rate": (float, 0.5)}
_MODE_TABLES = {
    "empirical": {
        "datasets": (list, []),
        "format": (("csv", "json", None), None),
        "label_column": (str, "label"),
    },
    "gaussian_lab": {"dim": (int, 2), "n_pairs": (int, 6), "identical_tasks": (bool, False)},
    "synthetic_office": {
        "n_domains": (int, 3), "classes": (int, 3), "samples_per_domain": (int, 400),
        "rotation": (float, 0.15), "shift": (float, 1.4), "spread": (float, 0.0),
    },
}
_DRIFT = {"drift": (float, 0.25)}  # an identical task pair has no drift

# Besides the mode, what selects a run's tables, with the values it takes.
# Each is read before the tables.  A refusal names a flag by itself and any
# other choice by its value.
_CHOICES = {
    "--override-risks": (False, True),
    "combiner.form": tuple(_FORMS),
    "divergence.method": tuple(_SOLVERS),
    "identical_tasks": (False, True),
}


def _tables(mode: str, override: bool, form: str, method: str, identical: bool) -> dict[str, dict]:
    """Section path ("" for the root) -> table, for one run's choices."""
    sections = {"combiner": {**_COMBINER, **_FORMS[form]}}
    if mode == "gaussian_lab":
        sections |= {"divergence": _KIND, mode: _MODE_TABLES[mode] | ({} if identical else _DRIFT)}
    elif not override:  # the risk table replaces the datasets, the training and the solves
        sections |= {
            "divergence": {**_SOLVER, **_SOLVERS[method]},
            "risk_train": _RISK_TRAIN, mode: _MODE_TABLES[mode],
        }
    root = _ROOT | ({} if override else _SEED)
    return {"": {**root, **dict.fromkeys(sections, (dict, {}))}, **sections}


def _key_paths(tables: dict[str, dict]) -> set[str]:
    return {f"{path}.{key}" if path else key for path, table in tables.items() for key in table}


# Every key path some run reads.
_KNOWN = set().union(
    *(_key_paths(_tables(*choices)) for choices in itertools.product(_MODES, *_CHOICES.values()))
)


def _unread_by(full: str, choices: dict) -> str:
    """What leaves `full` unread: the first choice whose other value reads it, else the mode."""
    for name, values in _CHOICES.items():
        if any(full in _key_paths(_tables(*{**choices, name: v}.values())) for v in values):
            return name if isinstance(choices[name], bool) else choices[name]
    return choices["mode"]


def _reject_unknown(mapping: dict, allowed, path: str, choices: dict | None = None) -> None:
    """Reject keys outside `allowed`; one some other run reads names what leaves it unread."""
    unknown = sorted(set(mapping) - set(allowed))
    if unknown:
        full = f"{path}.{unknown[0]}" if path else unknown[0]
        if choices is not None and full in _KNOWN:
            raise ValueError(f"{full} does not apply to {_unread_by(full, choices)}")
        raise ValueError(f"unknown config key {full!r}")


_KIND_NAMES = {bool: "true or false", str: "a string", list: "a list of strings"}


def _value(spec: dict, key: str, kind, default, path: str = ""):
    """`spec[key]` (or `default` when absent) read as `kind`, else a ValueError.

    A tuple kind lists the legal values, and a dict kind is a JSON object.
    Numbers must be finite JSON numbers and never booleans; an int may be
    written as an integral float (2.0) but not as 2.5.  A list is a list of
    strings.  Otherwise None passes only where it is the default.  Errors
    name the key path.
    """
    value = spec.get(key, default)
    full = f"{path}.{key}" if path else key
    if isinstance(kind, tuple):
        if value in kind:
            return value
        raise ValueError(f"{full} must be one of {kind}, got {value!r}")
    if kind is dict:
        if isinstance(value, dict):
            return value
        raise ValueError(f"{full} must be a JSON object")
    if value is None and default is None:
        return None
    if kind is float or kind is int:
        number = _json_number(value, full)
        if kind is float:
            return number
        if not number.is_integer():
            raise ValueError(f"{full} must be an integer, got {value!r}")
        return int(value)
    if not isinstance(value, kind) or (
        kind is list and not all(isinstance(item, str) for item in value)
    ):
        raise ValueError(f"{full} must be {_KIND_NAMES[kind]}, got {value!r}")
    return list(value) if kind is list else value  # never hand out the table's default


def _read(spec: dict, path: str, table: dict, choices: dict) -> dict:
    _reject_unknown(spec, table, path, choices)
    return {key: _value(spec, key, kind, default, path) for key, (kind, default) in table.items()}


def _parse(raw: dict, override_risks: str | Path | None) -> dict:
    """`raw` read against the tables its run's choices select: the root, sections nested."""
    mode = _value(raw, "mode", *_ROOT["mode"])
    override = override_risks is not None
    if override and mode != "empirical":
        raise ValueError(f"--override-risks applies only to empirical mode, got {mode}")
    form = _value(_value(raw, "combiner", dict, {}), "form", *_COMBINER["form"], "combiner")
    method, identical = "auto", False  # a run without a solver reads no method
    if mode == "gaussian_lab":
        section = _value(raw, mode, dict, {})
        identical = _value(section, "identical_tasks", *_MODE_TABLES[mode]["identical_tasks"], mode)
    elif not override:
        divergence = _value(raw, "divergence", dict, {})
        method = _value(divergence, "method", *_SOLVER["method"], "divergence")
    choices = dict(zip(("mode", *_CHOICES), (mode, override, form, method, identical)))
    tables = _tables(*choices.values())
    config = _read(raw, "", tables.pop(""), choices)
    for path, table in tables.items():
        config[path] = _read(config[path], path, table, choices)
    return config


def _require(ok: bool, path: str, rule: str, value) -> None:
    if not ok:
        raise ValueError(f"{path} must be {rule}, got {value!r}")


def _build(cls, path: str, **fields):
    """`cls(**fields)`, with the section path in front of its range errors."""
    try:
        return cls(**fields)
    except ValueError as err:  # its messages open with the field name
        raise ValueError(f"{path}.{err}") from None


def _combiner(section: dict) -> PolynomialCombiner:
    """The combiner of a parsed `combiner` section; `linear` with weight w is (w, 1, 1)."""
    fields = {key: value for key, value in section.items() if key != "form"}
    if section["form"] == "linear":
        weight = fields["weight"]
        _require(weight >= 0.0, "combiner.weight", "a finite nonnegative real", weight)
        return PolynomialCombiner(weight, 1.0, 1.0)
    return _build(PolynomialCombiner, "combiner", **fields)


def _combiner_section(form: str, combiner: PolynomialCombiner) -> dict:
    """The `combiner` section of `form` that `_combiner` reads back as `combiner`."""
    if form == "linear":
        return {"form": form, "weight": combiner.input_coeff}
    return {"form": form, **asdict(combiner)}


def _check_mode_params(mode: str, params: dict) -> None:
    """Ranges the mode's generators would otherwise reject at run time."""
    if mode == "gaussian_lab":
        for key in ("dim", "n_pairs"):
            _require(params[key] >= 1, f"gaussian_lab.{key}", ">= 1", params[key])
        if "drift" in params:  # identical tasks read none
            drift = params["drift"]
            _require(drift >= 0.0, "gaussian_lab.drift", ">= 0", drift)
            _require(
                drift <= _MAX_DRIFT, "gaussian_lab.drift",
                f"at most {_MAX_DRIFT!r}, so that 2 * drift is finite", drift,
            )
    elif mode == "synthetic_office":
        for key in ("n_domains", "classes"):
            _require(params[key] >= 2, f"synthetic_office.{key}", ">= 2", params[key])
        least = 4 * params["classes"]
        _require(
            params["samples_per_domain"] >= least, "synthetic_office.samples_per_domain",
            f">= 4 * classes = {least}", params["samples_per_domain"],
        )
        # The last domain's blobs have width 0.45 * (1 + (n_domains - 1) * spread).
        last = params["n_domains"] - 1
        _require(
            1.0 + last * params["spread"] >= 0.0, "synthetic_office.spread",
            f">= -1 / (n_domains - 1) = {-1.0 / last!r}", params["spread"],
        )


@dataclass(frozen=True)
class PipelineConfig:
    """Parsed and validated run configuration."""

    mode: str
    seed: int | None  # None under override_risks
    out_dir: Path
    combiner: PolynomialCombiner
    divergence_kind: str | None  # gaussian_lab's closed-form metric; None elsewhere
    # None in gaussian_lab and under override_risks, which solve and train nothing.
    ot: OtConfig | None
    risk_train: TrainConfig | None
    input_risk_rescale: float
    mode_params: dict
    echo: dict
    override_risks: str | Path | None  # a risk table that replaces empirical's datasets

    @staticmethod
    def from_dict(raw: dict, override_risks: str | Path | None = None) -> "PipelineConfig":
        """`raw` parsed and validated.

        `override_risks` names a risk table that an empirical run combines
        instead of training; the sections such a run would not read are refused.
        """
        config = _parse(raw, override_risks)
        mode, seed, rescale = config["mode"], config.get("seed"), config["input_risk_rescale"]
        if seed is not None:  # None under --override-risks
            _require(seed >= 0, "seed", ">= 0", seed)
        _require(rescale > 0.0, "input_risk_rescale", "positive", rescale)
        params = config.get(mode, {})  # an override run reads no mode section
        _check_mode_params(mode, params)
        kind = ot = risk_train = None
        if mode == "gaussian_lab":
            kind = config["divergence"]["kind"]
        elif override_risks is None:
            ot = _build(OtConfig, "divergence", **config["divergence"])
            risk_train = _build(TrainConfig, "risk_train", seed=seed, **config["risk_train"])
        return PipelineConfig(
            mode=mode,
            seed=seed,
            out_dir=Path(config["out_dir"]),
            combiner=_combiner(config["combiner"]),
            divergence_kind=kind,
            ot=ot,
            risk_train=risk_train,
            input_risk_rescale=rescale,
            mode_params=params,
            echo=config,
            override_risks=override_risks,
        )

    @staticmethod
    def from_json(
        path: str | Path, overrides: dict | None = None, override_risks: str | Path | None = None
    ) -> "PipelineConfig":
        """The config in the JSON file `path`, with `overrides` over its top-level keys.

        A refusal of the file alone opens with `path`; one that only the
        overrides cause (`trk run --seed -1`) does not.
        """
        raw = _load_json(path)
        try:
            if not isinstance(raw, dict):
                raise ValueError("config root must be a JSON object")
            config = PipelineConfig.from_dict(raw, override_risks)
        except ValueError as err:
            raise ValueError(f"{path}: {err}") from None
        return PipelineConfig.from_dict(raw | overrides, override_risks) if overrides else config


def ingest_dataset(
    path: str | Path, format: str | None = None, label_column: str = "label"
) -> tuple[EmpiricalDistribution, np.ndarray]:
    """Load a labeled feature cloud from CSV (header row) or JSON.

    CSV files take uniform weights; the designated label column is split off
    and every other column is a feature.  JSON files are objects with
    "features" (list of rows), "labels", and optional per-row "weights",
    which may be unnormalized counts and are rescaled to sum to 1.
    Files are read as UTF-8.  Every value must be a finite number; a
    malformed one is reported with its file and its CSV line or JSON row.

    Returns:
        (distribution, labels) with one label per row, as floats.

    Raises:
        ValueError: on any input that is not such a dataset, naming the file.
    """
    path = Path(path)
    if format is None:
        format = path.suffix.lstrip(".").lower()
    if format == "csv":
        return _ingest_csv(path, label_column)
    if format == "json":
        return _ingest_json(path)
    raise ValueError(f"{path}: format must be 'csv' or 'json', got {format!r}")


@contextmanager
def _open_text(path: str | Path, newline: str | None = None):
    """`path` opened as UTF-8 text; bytes that do not decode fail naming the file."""
    with open(path, newline=newline, encoding="utf-8") as handle:
        try:
            yield handle
        except UnicodeDecodeError:
            raise ValueError(f"{path}: not UTF-8 text") from None


def _load_json(path: str | Path):
    """The JSON document in `path`; text that is not UTF-8 or not JSON fails naming the file.

    An object that repeats a key is refused, where `json.load` alone would
    keep its last value.
    """

    def unique_keys(pairs: list[tuple[str, object]]) -> dict:
        document: dict = {}
        for key, value in pairs:
            if key in document:
                raise ValueError(f"{path}: JSON object repeats key {key!r}")
            document[key] = value
        return document

    with _open_text(path) as handle:
        try:
            return json.load(handle, object_pairs_hook=unique_keys)
        except json.JSONDecodeError as err:
            raise ValueError(f"{path}: invalid JSON at line {err.lineno}") from None
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply") from None


def _ingest_csv(path: Path, label_column: str) -> tuple[EmpiricalDistribution, np.ndarray]:
    table = _plain_csv_table(path, label_column)
    if table is None:
        table = _csv_module_table(path, label_column)
    points, labels = table
    return EmpiricalDistribution.from_points(points), labels


def _plain_csv_table(path: Path, label_column: str) -> tuple[np.ndarray, np.ndarray] | None:
    """(points, labels) of a plain numeric CSV, or None for any other file.

    A plain file is UTF-8 and holds no quote, carriage return or NUL (which
    `csv.reader` refuses before Python 3.11), a header naming the label
    column once, no underscore below the header, no line longer in bytes
    than the csv field size limit, and at least one row, every one of the
    header's width and every cell a finite number.  Its bytes are checked
    and let go, and numpy's C reader (`np.loadtxt`) parses the rows from
    the file.  On such a file both readers split the same cells, and
    numpy converts each as `float()` does or refuses it, so the values are
    bit-equal to `_csv_module_table`'s.  What numpy reads and that reader
    refuses is declined here: a blank line, which numpy skips, by the row
    count (rows are the newlines after the header), and `inf`, `nan` or an
    overflow by the finiteness check.  Any other file is left to that
    reader, which reports what is wrong with it.
    """
    data = path.read_bytes()
    if b'"' in data or b"\r" in data or b"\0" in data:
        return None
    ends = np.flatnonzero(np.frombuffer(data, np.uint8) == ord("\n"))
    if not len(ends) or data.find(b"_", ends[0]) != -1:
        return None
    try:
        header = [name.strip() for name in data[: ends[0]].decode("utf-8").split(",")]
    except UnicodeDecodeError:
        return None
    lines = np.diff(ends, prepend=-1, append=len(data)) - 1
    rows = len(ends) - (data[-1] == ord("\n"))
    width = len(header)
    del data  # only the numbers stay alive while numpy parses
    if (
        header.count(label_column) != 1 or width < 2 or rows < 1
        or lines.max() > csv.field_size_limit()
    ):
        return None
    try:
        with warnings.catch_warnings():
            # A file of blank rows holds no data, which the row count declines.
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            values = np.loadtxt(
                path, delimiter=",", comments=None, quotechar=None, skiprows=1, ndmin=2,
                dtype=np.float64, encoding="utf-8",
            )
    except ValueError:  # a cell numpy cannot parse, a ragged row, or bytes that are not UTF-8
        return None
    if values.shape != (rows, width) or not np.isfinite(values).all():
        return None
    label_idx = header.index(label_column)
    return np.delete(values, label_idx, axis=1), values[:, label_idx].copy()


def _csv_module_table(path: Path, label_column: str) -> tuple[np.ndarray, np.ndarray]:
    """(points, labels) of a dataset CSV read by `csv.reader`; any fault fails naming its line."""
    with _open_text(path, newline="") as handle:
        reader = csv.reader(handle)
        lines = _csv_rows(path, reader)
        try:
            header = next(lines)
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        header = [name.strip() for name in header]
        if label_column not in header:
            raise ValueError(f"{path}: no {label_column!r} column in header {header}")
        if header.count(label_column) > 1:
            raise ValueError(f"{path}: header repeats column {label_column!r}")
        if len(header) < 2:
            raise ValueError(f"{path}: no feature columns besides {label_column!r}")
        label_idx = header.index(label_column)
        rows, labels = [], []
        for row in lines:
            line_no = reader.line_num
            if len(row) != len(header):
                raise ValueError(
                    f"{path}: line {line_no} has {len(row)} cells, expected {len(header)}"
                )
            parsed = [_csv_number(cell, path, line_no, name) for name, cell in zip(header, row)]
            labels.append(parsed.pop(label_idx))
            rows.append(parsed)
    if not rows:
        raise ValueError(f"{path}: no data rows")
    return np.asarray(rows), np.asarray(labels)


def _csv_rows(path: Path, reader):
    """The nonblank rows of a csv reader; a line it cannot split fails with file and line."""
    try:
        yield from filter(None, reader)  # a blank line is an empty row
    except csv.Error as err:  # e.g. a cell over the csv module's field size limit
        raise ValueError(f"{path}: line {reader.line_num}: {err}") from None


def _csv_number(cell: str | None, path: str | Path, line_no: int, column: str) -> float:
    """One CSV cell as a finite float, or a ValueError naming file, line and column.

    Python's float() also reads digit-group underscores ("1_0" is 10.0);
    a cell holding one is rejected as unparsable.
    """
    try:
        value = float(cell)
        if math.isfinite(value) and "_" not in cell:
            return value
    except (TypeError, ValueError):  # TypeError: a short risk-table row gives None
        pass
    where = f"{path}: line {line_no}, column {column!r}"
    cell = (cell or "").strip()
    if not cell:
        raise ValueError(f"{where}: missing value")
    if "_" not in cell:
        try:
            float(cell)
        except ValueError:
            pass
        else:
            raise ValueError(f"{where}: non-finite value {cell!r}")
    raise ValueError(f"{where}: could not parse {cell!r}")


def _read_risk_table(path: str | Path, needed: tuple[str, ...]) -> list[tuple]:
    """A risk table's rows as (record, input risk, output risk, accuracy or None).

    `needed` names the columns the caller requires; accuracy is read where
    present.  Header cells are stripped of surrounding whitespace, as the
    dataset readers strip them.  A header that repeats a column read here
    fails naming it.  A
    short row leaves its last columns blank, and a row longer than the
    header fails with its line.  Risks must be finite and nonnegative, as
    every combiner requires, and a nonblank accuracy finite; a bad cell
    fails with its file, line and column.
    """
    rows = []
    with _open_text(path, newline="") as handle:
        reader = csv.reader(handle)
        lines = _csv_rows(path, reader)
        header = [name.strip() for name in next(lines, [])]
        if not set(needed) <= set(header):
            raise ValueError(f"{path}: risk table needs columns {sorted(needed)}")
        for column in (*needed, "accuracy"):
            if header.count(column) > 1:
                raise ValueError(f"{path}: header repeats column {column!r}")
        for cells in lines:
            line_no = reader.line_num
            if len(cells) > len(header):
                raise ValueError(
                    f"{path}: line {line_no} has {len(cells)} cells, expected at most {len(header)}"
                )
            record = dict(itertools.zip_longest(header, cells))  # a short row's tail is None
            risks = []
            for column in ("input_risk", "output_risk"):
                risks.append(_csv_number(record[column], path, line_no, column))
                if risks[-1] < 0.0:
                    raise ValueError(
                        f"{path}: line {line_no}, column {column!r}: negative risk {risks[-1]!r}"
                    )
            accuracy = record.get("accuracy") or None
            if accuracy is not None:
                accuracy = _csv_number(accuracy, path, line_no, "accuracy")
            rows.append((record, *risks, accuracy))
    return rows


def _ingest_json(path: Path) -> tuple[EmpiricalDistribution, np.ndarray]:
    payload = _load_json(path)
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: top level must be an object")
    _reject_unknown(payload, {"features", "labels", "weights"}, str(path))
    features = payload.get("features")
    labels = payload.get("labels")
    weights = payload.get("weights")
    if not features or labels is None:
        raise ValueError(f"{path}: needs non-empty 'features' and 'labels'")
    for key, value in (("features", features), ("labels", labels), ("weights", weights)):
        if value is not None and not isinstance(value, list):
            raise ValueError(f"{path}: {key!r} must be a JSON array")
    rows = []
    for i, row in enumerate(features):
        if not isinstance(row, list) or not row:
            raise ValueError(f"{path}: features row {i} must be a non-empty array of numbers")
        if len(row) != len(features[0]):
            raise ValueError(
                f"{path}: features row {i} has {len(row)} values, expected {len(features[0])}"
            )
        rows.append([_json_number(x, f"{path}: features row {i}") for x in row])
    if len(labels) != len(features):
        raise ValueError(f"{path}: {len(labels)} labels for {len(features)} feature rows")
    labels = [_json_number(x, f"{path}: labels row {i}") for i, x in enumerate(labels)]
    if weights is None:
        dist = EmpiricalDistribution.from_points(np.asarray(rows))
    else:
        if len(weights) != len(features):
            raise ValueError(f"{path}: {len(weights)} weights for {len(features)} feature rows")
        w = np.asarray(
            [_json_number(x, f"{path}: weights row {i}") for i, x in enumerate(weights)]
        )
        with np.errstate(over="ignore"):  # an overflowing sum is refused below
            total = w.sum()
        if w.min() < 0.0 or not 0.0 < total < math.inf:
            raise ValueError(
                f"{path}: weights must be nonnegative, not all zero, with a finite sum"
            )
        dist = EmpiricalDistribution(np.asarray(rows), w / total)
    return dist, np.asarray(labels)


def _json_number(value, where: str) -> float:
    """A JSON value as a finite float, or a ValueError prefixed by `where`."""
    # bool is an int subclass, but `true` is not a number.
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{where} has a non-numeric value {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise ValueError(f"{where} has a non-finite value {value!r}")
    return number


def _ingest_labeled(path: str, cfg: PipelineConfig) -> tuple[EmpiricalDistribution, np.ndarray]:
    dist, raw_labels = ingest_dataset(
        path, cfg.mode_params["format"], cfg.mode_params["label_column"]
    )
    labels = np.rint(raw_labels).astype(int)
    # Exact equality: a label near an integer (3.00002) is not one, and a
    # value past the int64 range casts to a different number.
    if np.any(labels != raw_labels) or labels.min() < 0:
        raise ValueError(f"{path}: labels must be nonnegative integers for transfer runs")
    if dist.size < 4:
        raise ValueError(f"{path}: need at least 4 rows to split")
    return dist, labels


def _dataset_to_domain(
    path: str, dist: EmpiricalDistribution, labels: np.ndarray, classes: int, seed: int
) -> SyntheticDomain:
    rng = np.random.default_rng(seed)
    perm = rng.permutation(dist.size)
    half = dist.size // 2
    first, second = perm[:half], perm[half:]
    train_labels = labels[first]
    if train_labels.min() == train_labels.max():
        raise ValueError(
            f"{path}: the training half drawn at seed {seed} holds fewer than 2 classes"
        )

    def part(idx, name):
        weights = dist.weights[idx]
        total = weights.sum()
        if total == 0.0:  # ingestion admits zero weights, never negative ones
            raise ValueError(f"{path}: the {name} half drawn at seed {seed} has total weight 0")
        return EmpiricalDistribution(dist.points[idx], weights / total)

    return SyntheticDomain(
        name=Path(path).stem,
        train=part(first, "training"),
        train_labels=train_labels,
        held_out=part(second, "held-out"),
        held_out_labels=labels[second],
        classes=classes,
    )


def _row(
    cfg: PipelineConfig, source: str, target: str, accuracy: float | None,
    measured_input: float, e_out: float, **extra,
) -> dict:
    """One pair row; the only place a measured input risk is rescaled and combined."""
    e_in = cfg.input_risk_rescale * measured_input
    return {
        "source": source, "target": target, "accuracy": accuracy, "input_risk": e_in,
        "output_risk": e_out, "transfer_risk": combine(cfg.combiner, e_in, e_out), **extra,
    }


def _ingest_workers(paths: list[str]) -> int:
    """How many processes `_empirical_domains` reads the dataset files `paths` on.

    `_fork_workers()` from `_CONCURRENT_MIN_BYTES` bytes of files in all,
    sized before any is read; 1 below it, and where a file cannot be sized,
    so that its read names the first bad file in file order.
    """
    try:
        total = sum(os.stat(path).st_size for path in paths)
    except (OSError, ValueError):  # ValueError: a path holding NUL
        return 1
    return _fork_workers() if total >= _CONCURRENT_MIN_BYTES else 1


def _empirical_domains(cfg: PipelineConfig) -> list[SyntheticDomain]:
    """The datasets as domains, named by file stem; only the domains' copies outlive this call.

    `_run_forked` reads the files on `_ingest_workers(paths)` processes,
    each half in file order, so the first bad file in file order fails.
    """
    paths = cfg.mode_params["datasets"]
    if len(paths) < 2:
        raise ValueError("empirical mode needs at least 2 datasets (or an override table)")
    seen = {}
    for path in paths:  # a file's stem names its domain in the pair rows
        stem = Path(path).stem
        if stem in seen:
            raise ValueError(
                f"empirical.datasets {seen[stem]!r} and {path!r} share the file stem {stem!r}"
            )
        seen[stem] = path
    datasets = _run_forked(
        lambda block: [_ingest_labeled(paths[i], cfg) for i in block], range(len(paths)),
        _ingest_workers(paths),
        lambda block: "the process reading datasets " + ", ".join(paths[i] for i in block),
    )
    # Labels of 0 alone make one class, which every training half refuses.
    classes = max(int(labels.max()) for _, labels in datasets) + 1
    return [
        _dataset_to_domain(p, dist, labels, classes, cfg.seed)
        for p, (dist, labels) in zip(paths, datasets)
    ]


def _rows_from_override(cfg: PipelineConfig) -> list[dict]:
    """Combine externally supplied risk rows; no training happens here."""
    path = cfg.override_risks
    needed = ("source", "target", "input_risk", "output_risk")
    rows = [
        _row(cfg, record["source"], record["target"], accuracy, e_in, e_out)
        for record, e_in, e_out, accuracy in _read_risk_table(path, needed)
    ]
    if not rows:
        raise ValueError(f"{path}: override table has no rows")
    return rows


def _block_pairs(dim: int) -> int:
    """Pairs per gaussian_lab block: as many as _BLOCK_BYTES holds, and at least one."""
    return max(1, _BLOCK_BYTES // (_PAIR_MATRICES * 8 * (dim + 1) ** 2))


def _gaussian_workers(params: dict) -> int:
    """How many processes `_run_forked` splits a gaussian_lab run of `params` over.

    `_fork_workers()` from `_CONCURRENT_MIN_PAIRS` pairs and up to
    `_CONCURRENT_MAX_DIM` dimensions; 1 otherwise.  Row i is a function of
    seed + i alone, so the rows, and the first failing pair named, are
    those of one process.
    """
    if params["n_pairs"] < _CONCURRENT_MIN_PAIRS or params["dim"] > _CONCURRENT_MAX_DIM:
        return 1
    return _fork_workers()


def _gaussian_half(cfg: PipelineConfig, pairs: range) -> list[dict]:
    """The rows of `pairs`, in blocks of `_block_pairs`; a failing block names its first bad pair."""
    size = _block_pairs(cfg.mode_params["dim"])
    rows = []
    for start in range(pairs.start, pairs.stop, size):
        stop = min(start + size, pairs.stop)
        try:
            rows += _gaussian_rows(cfg, start, stop)
        except ValueError:
            # Name the first pair that fails on its own, with its own message.
            for i in range(start, stop):
                try:
                    _gaussian_rows(cfg, i, i + 1)
                except ValueError as err:
                    raise ValueError(f"task_{i}: {err}") from None
            raise
    return rows


def _rendered_half(cfg: PipelineConfig, pairs: range) -> list[tuple[list[dict], str, str]]:
    """`_gaussian_half(cfg, pairs)` with its `_render_rows` text, as the one item of a half.

    A worker renders the rows it computes, so the rows cross the pipe with
    their text and the parent only concatenates.
    """
    rows = _gaussian_half(cfg, pairs)
    return [(rows, *_render_rows(rows))]


def _gaussian_rows(cfg: PipelineConfig, start: int, stop: int) -> list[dict]:
    """The rows of pairs start..stop-1, pair i drawn at seed + i, computed as one stack."""
    params = cfg.mode_params
    seeds = range(cfg.seed + start, cfg.seed + stop)
    if params["identical_tasks"]:
        source = target = _random_tasks(params["dim"], 1, seeds).checked()
    else:
        pairs = _random_pairs(params["dim"], seeds, drift=params["drift"]).checked()
        source, target = pairs.at(0), pairs.at(1)
    case = _basic_cases(source, target)
    kl = cfg.divergence_kind == "kl"
    divergence = _kl_moments if kl else _w2_moments
    measured = divergence(target.mean_x, target.cov_xx, source.mean_x, source.cov_xx)
    e_out = case.kl_variance + case.kl_bias if kl else case.w_variance + case.w_bias
    columns = (measured, e_out, *(getattr(case, name) for name in _GAUSSIAN_TERMS))
    return [
        _row(cfg, f"task_{i}_source", f"task_{i}_target", None, e_in, out,
             **dict(zip(_GAUSSIAN_TERMS, terms)))
        for i, (e_in, out, *terms) in zip(range(start, stop), zip(*(c.tolist() for c in columns)))
    ]


def _correlations(rows: list[dict]) -> dict | None:
    scored = [(r["accuracy"], r["transfer_risk"]) for r in rows if r["accuracy"] is not None]
    if len(scored) < 3:
        return None
    accuracy = np.array([s[0] for s in scored])
    risk = np.array([s[1] for s in scored])
    if np.all(accuracy == accuracy[0]) or np.all(risk == risk[0]):
        return None
    return {"spearman": _spearman(accuracy, risk), "pearson": _pearson(accuracy, risk)}


def _spearman(x: np.ndarray, y: np.ndarray) -> float:
    """Spearman's rho as scipy.stats.spearmanr computes it: Pearson of average ranks."""
    ranks = np.column_stack((_average_ranks(x), _average_ranks(y)))
    return float(np.corrcoef(ranks, rowvar=False)[1, 0])  # corrcoef clips to [-1, 1]


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks, each tie group sharing the mean of the ranks it spans."""
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    ends = np.r_[starts[1:], len(values)]
    ranks = np.empty(len(values))
    ranks[order] = np.repeat((starts + ends + 1) / 2.0, ends - starts)
    return ranks


def _pearson(x: np.ndarray, y: np.ndarray) -> float:
    """Pearson's r by scipy.stats.pearsonr's arithmetic, for non-constant inputs.

    Each centred vector is scaled by its largest magnitude before its norm
    is taken, so the norm cannot overflow; rounding past |r| = 1 is clipped.
    """
    units = []
    for v in (x, y):
        centred = v - v.mean()
        largest = np.abs(centred).max()
        units.append(centred / (largest * np.linalg.norm(centred / largest, axis=-1)))
    return float(np.clip(np.dot(*units), -1.0, 1.0))


class _Lines(list):
    """The lines a csv writer writes into it."""

    write = list.append


# Between two rows of the report's "rows" array, as the indent lays them out.
_JSON_ROW_SEPARATOR = ",\n    "


def _render_rows(rows: list[dict]) -> tuple[str, str]:
    """The pairs.csv lines of `rows` and their objects in report.json's "rows" array.

    The csv lines follow the header, one per row.  The objects are json's
    C encoder's, which the key separator below makes lay out each row as
    `json.dumps(..., indent=2)` lays it out two levels deep (an indent
    always selects the pure-Python encoder), joined by
    `_JSON_ROW_SEPARATOR`.  Rendering is a function of each row alone, so
    the text of two runs of rows joins into the text of their concatenation.
    """
    lines = _Lines()
    # csv quotes a name holding a comma, quote or newline; None is an empty cell.
    writer = csv.writer(lines, lineterminator="\n")
    writer.writerows([row[c] for c in _CSV_COLUMNS] for row in rows)
    encode = json.JSONEncoder(sort_keys=True, separators=(",\n      ", ": ")).encode
    objects = _JSON_ROW_SEPARATOR.join(f"{{\n      {encode(row)[1:-1]}\n    }}" for row in rows)
    return "".join(lines), objects


def _report_text(report: dict, json_rows: str) -> str:
    """`json.dumps(report, indent=2, sort_keys=True)`, with `json_rows` from `_render_rows`.

    The rows are spliced in at the report's one top-level `"rows": []`
    line: nested keys sit deeper, and a string holds no raw newline.
    """
    text = json.dumps({**report, "rows": []}, indent=2, sort_keys=True)
    if not json_rows:
        return text
    return text.replace('\n  "rows": [],\n', f'\n  "rows": [\n    {json_rows}\n  ],\n', 1)


def _write_outputs(report: dict, rendered: tuple[str, str], out_dir: Path) -> None:
    """pairs.csv and report.json of `report`, whose rows `_render_rows` renders as `rendered`."""
    csv_rows, json_rows = rendered
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "pairs.csv", "w", newline="", encoding="utf-8") as handle:
        handle.write(",".join(_CSV_COLUMNS) + "\n" + csv_rows)
    with open(out_dir / "report.json", "w") as handle:
        handle.write(_report_text(report, json_rows) + "\n")


def run(cfg: PipelineConfig) -> dict:
    """Execute the configured experiment and write report.json and pairs.csv.

    Returns the report document.  The pair table is a deterministic function
    of the config and seed; wall-clock timings and `workers`, how many
    processes computed the rows (None for a risk table, which computes
    none), live only in the report.
    """
    timings: dict[str, float] = {}
    start = time.perf_counter()
    rendered = None  # the rows' `_render_rows` text where their workers render them
    if cfg.mode == "gaussian_lab":
        workers = _gaussian_workers(cfg.mode_params)
        halves = _run_forked(
            lambda pairs: _rendered_half(cfg, pairs), range(cfg.mode_params["n_pairs"]), workers,
            lambda pairs: f"the process for pairs task_{pairs[0]}..task_{pairs[-1]}",
        )
        rows = [row for half_rows, _, _ in halves for row in half_rows]
        rendered = (
            "".join(csv_rows for _, csv_rows, _ in halves),
            _JSON_ROW_SEPARATOR.join(json_rows for _, _, json_rows in halves if json_rows),
        )
    elif cfg.override_risks is not None:
        rows, workers = _rows_from_override(cfg), None
    else:
        if cfg.mode == "empirical":
            domains = _empirical_domains(cfg)
        else:
            domains = make_synthetic_domains(cfg.seed, **cfg.mode_params)
        rows = [
            _row(cfg, r.source, r.target, r.accuracy, r.input_risk, r.output_risk)
            for r in evaluate_risk_accuracy_pairs(domains, cfg.risk_train, cfg.ot)
        ]
        workers = _fit_workers(domains)
    timings["pairs"] = time.perf_counter() - start

    report = {
        "version": __version__,
        "config": cfg.echo,
        "rows": rows,
        "correlations": _correlations(rows),
        "timings": timings,
        "workers": workers,
    }
    _write_outputs(report, rendered or _render_rows(rows), cfg.out_dir)
    return report


def fit_combiner(
    rows: list[tuple[float, float, float]],
    form: str,
    grid_size: int = 50,
    grid_max: float = 2.0,
) -> tuple[PolynomialCombiner, float]:
    """Pick combiner coefficients maximizing |Pearson(combined, accuracy)|.

    Searches a deterministic coefficient grid (linear: grid_size^2 weights on
    [0, grid_max]; polynomial2: grid_size x grid_size over [0, grid_max]^2),
    skipping combos whose combined risk overflows or is constant across rows.
    Ties resolve to the first grid point scanned.

    Returns:
        (combiner, achieved |correlation|).
    """
    if len(rows) < 3:
        raise ValueError(f"need at least 3 rows, got {len(rows)}")
    risks = [(float(r[0]), float(r[1])) for r in rows]
    for index, (e_in, e_out) in enumerate(risks):
        if not (0.0 <= e_in < math.inf and 0.0 <= e_out < math.inf):
            raise ValueError(
                f"row {index}: risks must be finite and nonnegative, got ({e_in!r}, {e_out!r})"
            )
    accuracy = np.array([r[2] for r in rows], dtype=float)
    if np.all(accuracy == accuracy[0]):
        raise ValueError("accuracy values are all equal; correlation is undefined")
    if grid_size < 2 or not 0.0 < grid_max < math.inf:
        raise ValueError(
            "grid_size must be >= 2 and grid_max positive and finite, "
            f"got {grid_size} and {grid_max!r}"
        )

    if form not in _FORMS:
        raise ValueError(f"form must be one of {tuple(_FORMS)}, got {form!r}")
    if form == "linear":
        grid = [{"weight": w} for w in np.linspace(0.0, grid_max, grid_size**2)]
    else:
        axis = np.linspace(0.0, grid_max, grid_size)
        grid = [
            {"input_coeff": ci, "output_coeff": co, "power": 2.0} for ci in axis for co in axis
        ]

    best: tuple[PolynomialCombiner, float] | None = None
    for fields in grid:
        candidate = _combiner({"form": form, **fields})
        try:
            combined = np.array([combine(candidate, i, o) for i, o in risks])
        except ValueError:  # the risks are valid, so the combined risk overflowed
            continue
        # A constant combined vector centers to rounding noise, not exact
        # zeros, so constancy is judged relative to the values' magnitude.
        scale = max(1.0, float(np.abs(combined).max()))
        if np.abs(combined - combined.mean()).max() <= _FIT_NOISE_TOL * scale:
            continue
        corr = abs(_pearson(combined, accuracy))
        # Gains within the noise tolerance are ties; the first point wins.
        if best is None or corr > best[1] + _FIT_NOISE_TOL:
            best = (candidate, corr)
    if best is None:
        raise ValueError("no grid combiner gave finite, non-constant combined risks")
    return best
