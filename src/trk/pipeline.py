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
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import stats

from . import __version__
from .distributions import EmpiricalDistribution
from .finetune import (
    SyntheticDomain,
    TrainConfig,
    evaluate_risk_accuracy_pairs,
    make_synthetic_domains,
)
from .gaussian_lab import (
    GaussianTask,
    basic_case_risks,
    random_basic_pair,
    random_task,
    risk_regret_residual,
)
from .optimal_transport import OtConfig
from .transfer_core import (
    IdentityMap,
    LinearCombiner,
    PolynomialCombiner,
    RiskCombiner,
    combine,
    input_risk,
)

__all__ = [
    "PipelineConfig",
    "ingest_dataset",
    "run",
    "fit_combiner",
]

_MODES = ("empirical", "gaussian_lab", "synthetic_office")
_FIT_NOISE_TOL = 1e-12
_CSV_COLUMNS = ("source", "target", "accuracy", "input_risk", "output_risk", "transfer_risk")

# The config schema: one table per section, key -> (type, default).  A tuple
# type lists the legal values; a dict type is a nested section.  A run reads
# the tables its mode, combiner form and solver method select (`_tables`),
# rejects every other key by its path, and echoes what it parsed.
_ROOT = {
    "mode": (_MODES, None),
    "seed": (int, 0),
    "out_dir": (str, "trk_run"),
    "input_risk_rescale": (float, 1.0),
    "combiner": (dict, {}),
    "divergence": (dict, {}),
}
_FORMS = {
    "linear": {"weight": (float, 1.0)},
    "polynomial2": {
        "input_coeff": (float, 1.0), "output_coeff": (float, 1.0), "power": (float, 2.0),
    },
}
_COMBINER = {"form": (tuple(_FORMS), "polynomial2")}
# p None is the mode's own order: W_2 for gaussian_lab's closed forms, W_1
# between sampled clouds.
_DIVERGENCE = {"kind": (("wasserstein", "kl"), "wasserstein"), "p": (float, None)}
# Only the sampled modes run a transport solver, and each method reads only
# its own keys: the LP's support cap and Sinkhorn's regularization and budget.
_LP = {"lp_max_support": (int, 400)}
_SINKHORN = {"sinkhorn_epsilon": (float, None), "sinkhorn_max_iter": (int, 2000)}
_SOLVERS = {"auto": {**_LP, **_SINKHORN}, "exact_1d": {}, "exact_lp": _LP, "sinkhorn": _SINKHORN}
_SOLVER = {"method": (tuple(_SOLVERS), "auto")}
# Only the sampled modes train.  The output-risk descent always spends its
# whole epoch budget, so risk_train has no plateau_patience.
_TRAINING = {"train": (dict, {}), "risk_train": (dict, {})}
_TRAIN = {"epochs": (int, 100), "learning_rate": (float, 0.05), "plateau_patience": (int, 10)}
_RISK_TRAIN = {"epochs": (int, 10), "learning_rate": (float, 0.5)}
_MODE_TABLES = {
    "empirical": {
        "datasets": (list, []),
        "format": (("csv", "json", None), None),
        "label_column": (str, "label"),
    },
    "gaussian_lab": {
        "dim": (int, 2), "n_pairs": (int, 6), "drift": (float, 0.25),
        "identical_tasks": (bool, False),
    },
    "synthetic_office": {
        "n_domains": (int, 3), "classes": (int, 3), "samples_per_domain": (int, 400),
        "rotation": (float, 0.15), "shift": (float, 1.4), "spread": (float, 0.0),
    },
}


def _tables(mode: str, form: str, method: str) -> dict[str, dict]:
    """Section path ("" for the root) -> table, for one run's choices."""
    root = {**_ROOT, mode: (dict, {})}
    tables = {
        "combiner": {**_COMBINER, **_FORMS[form]},
        "divergence": _DIVERGENCE,
        mode: _MODE_TABLES[mode],
    }
    if mode != "gaussian_lab":
        root |= _TRAINING
        tables |= {
            "divergence": {**_DIVERGENCE, **_SOLVER, **_SOLVERS[method]},
            "train": _TRAIN,
            "risk_train": _RISK_TRAIN,
        }
    return {"": root, **tables}


# Every key path some run reads.
_KNOWN = {
    f"{path}.{key}" if path else key
    for choices in itertools.product(_MODES, _FORMS, _SOLVERS)
    for path, table in _tables(*choices).items()
    for key in table
}


def _reject_unknown(mapping: dict, allowed, path: str, context: str | None = None) -> None:
    """Reject keys outside `allowed`; one some other run reads does not apply to `context`."""
    unknown = sorted(set(mapping) - set(allowed))
    if unknown:
        full = f"{path}.{unknown[0]}" if path else unknown[0]
        if context is not None and full in _KNOWN:
            raise ValueError(f"{full} does not apply to {context}")
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


def _read(spec: dict, path: str, table: dict, context: str) -> dict:
    _reject_unknown(spec, table, path, context)
    return {key: _value(spec, key, kind, default, path) for key, (kind, default) in table.items()}


def _parse(raw: dict) -> dict:
    """`raw` read against the tables its run selects: the root, sections nested."""
    mode = _value(raw, "mode", *_ROOT["mode"])
    combiner = _value(raw, "combiner", *_ROOT["combiner"])
    form = _value(combiner, "form", *_COMBINER["form"], "combiner")
    divergence = _value(raw, "divergence", *_ROOT["divergence"])
    method = _value(divergence, "method", *_SOLVER["method"], "divergence")
    # A rejected key names the choice that leaves it unread.
    contexts = {"combiner": form, "divergence": method if mode != "gaussian_lab" else mode}
    tables = _tables(mode, form, method)
    config = _read(raw, "", tables.pop(""), mode)
    for path, table in tables.items():
        config[path] = _read(config[path], path, table, contexts.get(path, mode))
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


def _check_mode_params(mode: str, params: dict) -> None:
    """Ranges the mode's generators would otherwise reject at run time."""
    if mode == "gaussian_lab":
        for key in ("dim", "n_pairs"):
            _require(params[key] >= 1, f"gaussian_lab.{key}", ">= 1", params[key])
        _require(params["drift"] >= 0.0, "gaussian_lab.drift", ">= 0", params["drift"])
    elif mode == "synthetic_office":
        for key in ("n_domains", "classes"):
            _require(params[key] >= 2, f"synthetic_office.{key}", ">= 2", params[key])
        least = 4 * params["classes"]
        _require(
            params["samples_per_domain"] >= least, "synthetic_office.samples_per_domain",
            f">= 4 * classes = {least}", params["samples_per_domain"],
        )


@dataclass(frozen=True)
class PipelineConfig:
    """Parsed and validated run configuration."""

    mode: str
    seed: int
    out_dir: Path
    combiner: RiskCombiner
    divergence_kind: str
    ot: OtConfig
    train: TrainConfig | None  # None in gaussian_lab, which trains nothing
    risk_train: TrainConfig | None
    input_risk_rescale: float
    mode_params: dict
    echo: dict

    @staticmethod
    def from_dict(raw: dict) -> "PipelineConfig":
        config = _parse(raw)
        mode, seed, rescale = config["mode"], config["seed"], config["input_risk_rescale"]
        _require(seed >= 0, "seed", ">= 0", seed)
        _require(rescale > 0.0, "input_risk_rescale", "positive", rescale)
        _check_mode_params(mode, config[mode])
        divergence = config["divergence"]
        kind = divergence["kind"]
        if divergence["p"] is None:
            divergence["p"] = 2.0 if mode == "gaussian_lab" else 1.0
        if mode == "gaussian_lab" and divergence["p"] != 2.0:
            raise ValueError(
                f"divergence.p must be 2 in gaussian_lab (closed-form W_2), got {divergence['p']}"
            )
        if mode != "gaussian_lab" and kind == "kl":
            raise ValueError(
                f"divergence.kind 'kl' is not defined for the sampled clouds of {mode}; "
                "use 'wasserstein'"
            )
        ot = _build(OtConfig, "divergence", **{k: v for k, v in divergence.items() if k != "kind"})
        params = dict(config["combiner"])
        form = params.pop("form")
        combiner_type = LinearCombiner if form == "linear" else PolynomialCombiner
        combiner = _build(combiner_type, "combiner", **params)
        train = risk_train = None
        if mode != "gaussian_lab":
            train = _build(TrainConfig, "train", seed=seed, **config["train"])
            risk_train = _build(TrainConfig, "risk_train", seed=seed, **config["risk_train"])
        return PipelineConfig(
            mode=mode,
            seed=seed,
            out_dir=Path(config["out_dir"]),
            combiner=combiner,
            divergence_kind=kind,
            ot=ot,
            train=train,
            risk_train=risk_train,
            input_risk_rescale=rescale,
            mode_params=config[mode],
            echo=config,
        )

    @staticmethod
    def from_json(path: str | Path, overrides: dict | None = None) -> "PipelineConfig":
        with open(path) as handle:
            raw = json.load(handle)
        if not isinstance(raw, dict):
            raise ValueError("config root must be a JSON object")
        raw.update(overrides or {})
        return PipelineConfig.from_dict(raw)


def ingest_dataset(
    path: str | Path, format: str | None = None, label_column: str = "label"
) -> tuple[EmpiricalDistribution, np.ndarray]:
    """Load a labeled feature cloud from CSV (header row) or JSON.

    CSV files take uniform weights; the designated label column is split off
    and every other column is a feature.  JSON files are objects with
    "features" (list of rows), "labels", and optional per-row "weights",
    which may be unnormalized counts and are rescaled to sum to 1.
    Every value must be a finite number; a malformed one is reported with
    its file and its CSV line or JSON row.

    Returns:
        (distribution, labels) with one label per row, as floats.
    """
    path = Path(path)
    if format is None:
        format = path.suffix.lstrip(".").lower()
    if format == "csv":
        return _ingest_csv(path, label_column)
    if format == "json":
        return _ingest_json(path)
    raise ValueError(f"format must be 'csv' or 'json', got {format!r}")


def _ingest_csv(path: Path, label_column: str) -> tuple[EmpiricalDistribution, np.ndarray]:
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        header = [name.strip() for name in header]
        if label_column not in header:
            raise ValueError(f"{path}: no {label_column!r} column in header {header}")
        if len(header) < 2:
            raise ValueError(f"{path}: no feature columns besides {label_column!r}")
        label_idx = header.index(label_column)
        rows, labels = [], []
        for line_no, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise ValueError(
                    f"{path}: line {line_no} has {len(row)} cells, expected {len(header)}"
                )
            parsed = [_csv_number(cell, path, line_no, name) for name, cell in zip(header, row)]
            labels.append(parsed.pop(label_idx))
            rows.append(parsed)
    if not rows:
        raise ValueError(f"{path}: no data rows")
    return EmpiricalDistribution.from_points(np.asarray(rows)), np.asarray(labels)


def _csv_number(cell: str | None, path: str | Path, line_no: int, column: str) -> float:
    """One CSV cell as a finite float, or a ValueError naming file, line and column."""
    try:
        value = float(cell)
        if math.isfinite(value):
            return value
    except (TypeError, ValueError):  # TypeError: a short csv.DictReader row gives None
        pass
    where = f"{path}: line {line_no}, column {column!r}"
    cell = (cell or "").strip()
    if not cell:
        raise ValueError(f"{where}: missing value")
    try:
        float(cell)
    except ValueError:
        raise ValueError(f"{where}: could not parse {cell!r}") from None
    raise ValueError(f"{where}: non-finite value {cell!r}")


def _read_risk_table(path: str | Path, needed: tuple[str, ...]) -> list[tuple]:
    """A risk table's rows as (record, input risk, output risk, accuracy or None).

    `needed` names the columns the caller reads.  Risks must be finite and
    nonnegative, as every combiner requires, and a nonblank accuracy finite;
    a bad cell fails with its file, line and column.
    """
    rows = []
    with open(path, newline="") as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames is None or not set(needed) <= set(reader.fieldnames):
            raise ValueError(f"{path}: risk table needs columns {sorted(needed)}")
        for line_no, record in enumerate(reader, start=2):
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
    with open(path) as handle:
        try:
            payload = json.load(handle)
        except json.JSONDecodeError as err:
            raise ValueError(f"{path}: invalid JSON at line {err.lineno}") from None
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
        if w.min() < 0.0 or w.sum() <= 0.0:
            raise ValueError(f"{path}: weights must be finite, nonnegative, not all zero")
        dist = EmpiricalDistribution(np.asarray(rows), w / w.sum())
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
    if not np.allclose(raw_labels, labels) or labels.min() < 0:
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

    def part(idx):
        weights = dist.weights[idx]
        return EmpiricalDistribution(dist.points[idx], weights / weights.sum())

    return SyntheticDomain(
        name=Path(path).stem,
        train=part(first),
        train_labels=labels[first],
        held_out=part(second),
        held_out_labels=labels[second],
        classes=classes,
    )


def _pair_rows_from_domains(domains: list[SyntheticDomain], cfg: PipelineConfig) -> list[dict]:
    results = evaluate_risk_accuracy_pairs(
        domains, cfg.combiner, cfg.risk_train, cfg.train, cfg.input_risk_rescale, cfg.ot
    )
    rows = []
    for res in results:
        source, target = res.pair.split("->")
        rows.append(
            {
                "source": source,
                "target": target,
                "accuracy": res.accuracy,
                "input_risk": res.input_risk,
                "output_risk": res.output_risk,
                "transfer_risk": res.combined,
            }
        )
    return rows


def _run_empirical(cfg: PipelineConfig, override_risks: str | Path | None) -> list[dict]:
    if override_risks is not None:
        return _rows_from_override(override_risks, cfg)
    paths = cfg.mode_params["datasets"]
    if len(paths) < 2:
        raise ValueError("empirical mode needs at least 2 datasets (or an override table)")
    datasets = [_ingest_labeled(p, cfg) for p in paths]
    classes = max(int(labels.max()) for _, labels in datasets) + 1
    if classes < 2:
        raise ValueError("datasets contain fewer than 2 classes")
    domains = [
        _dataset_to_domain(p, dist, labels, classes, cfg.seed)
        for p, (dist, labels) in zip(paths, datasets)
    ]
    del datasets  # the domains hold copies; keep only those alive while training
    return _pair_rows_from_domains(domains, cfg)


def _rows_from_override(path: str | Path, cfg: PipelineConfig) -> list[dict]:
    """Combine externally supplied risk rows; no training happens here."""
    rows = []
    needed = ("source", "target", "input_risk", "output_risk")
    for record, e_in, e_out, accuracy in _read_risk_table(path, needed):
        e_in *= cfg.input_risk_rescale
        rows.append(
            {
                "source": record["source"],
                "target": record["target"],
                "accuracy": accuracy,
                "input_risk": e_in,
                "output_risk": e_out,
                "transfer_risk": combine(cfg.combiner, e_in, e_out),
            }
        )
    if not rows:
        raise ValueError(f"{path}: override table has no rows")
    return rows


def _run_gaussian_lab(cfg: PipelineConfig) -> list[dict]:
    params = cfg.mode_params
    rows = []
    for i in range(params["n_pairs"]):
        if params["identical_tasks"]:
            source = random_task(params["dim"], 1, seed=cfg.seed + i)
            target = GaussianTask(source.joint, role="target")
        else:
            source, target = random_basic_pair(
                params["dim"], seed=cfg.seed + i, drift=params["drift"]
            )
        kl, w = basic_case_risks(source, target)
        risk, regret_value, residual = risk_regret_residual(source, target)
        e_in = cfg.input_risk_rescale * input_risk(
            IdentityMap(params["dim"]),
            target.joint.x_marginal(),
            source.joint.x_marginal(),
            metric=cfg.divergence_kind,
            cfg=cfg.ot,
        )
        e_out = kl.total if cfg.divergence_kind == "kl" else w.total
        rows.append(
            {
                "source": f"task_{i}_source",
                "target": f"task_{i}_target",
                "accuracy": None,
                "input_risk": e_in,
                "output_risk": e_out,
                "transfer_risk": combine(cfg.combiner, e_in, e_out),
                "kl_variance": kl.variance_term,
                "kl_bias": kl.bias_term,
                "w_variance": w.variance_term,
                "w_bias": w.bias_term,
                "regret": regret_value,
                "residual": residual,
                "risk_w": risk,
            }
        )
    return rows


def _run_synthetic_office(cfg: PipelineConfig) -> list[dict]:
    domains = make_synthetic_domains(cfg.seed, **cfg.mode_params)
    return _pair_rows_from_domains(domains, cfg)


def _correlations(rows: list[dict]) -> dict | None:
    scored = [(r["accuracy"], r["transfer_risk"]) for r in rows if r["accuracy"] is not None]
    if len(scored) < 3:
        return None
    accuracy = np.array([s[0] for s in scored])
    risk = np.array([s[1] for s in scored])
    if np.all(accuracy == accuracy[0]) or np.all(risk == risk[0]):
        return None
    return {
        "spearman": float(stats.spearmanr(accuracy, risk).statistic),
        "pearson": float(stats.pearsonr(accuracy, risk).statistic),
    }


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_outputs(report: dict, rows: list[dict], out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    lines = [",".join(_CSV_COLUMNS)]
    for row in rows:
        lines.append(",".join(_format_cell(row[c]) for c in _CSV_COLUMNS))
    (out_dir / "pairs.csv").write_text("\n".join(lines) + "\n")
    with open(out_dir / "report.json", "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")


def run(cfg: PipelineConfig, override_risks: str | Path | None = None) -> dict:
    """Execute the configured experiment and write report.json and pairs.csv.

    Returns the report document.  The pair table is a deterministic function
    of the config and seed; wall-clock timings live only in the report.
    """
    timings: dict[str, float] = {}
    start = time.perf_counter()
    if cfg.mode == "empirical":
        rows = _run_empirical(cfg, override_risks)
    elif cfg.mode == "gaussian_lab":
        rows = _run_gaussian_lab(cfg)
    else:
        rows = _run_synthetic_office(cfg)
    timings["pairs"] = time.perf_counter() - start

    report = {
        "version": __version__,
        "config": cfg.echo,
        "rows": rows,
        "correlations": _correlations(rows),
        "plot_data": {
            "transfer_risk": [r["transfer_risk"] for r in rows],
            "accuracy": [r["accuracy"] for r in rows],
        },
        "timings": timings,
    }
    _write_outputs(report, rows, cfg.out_dir)
    return report


def fit_combiner(
    rows: list[tuple[float, float, float]],
    form: str,
    grid_size: int = 50,
    grid_max: float = 2.0,
) -> tuple[RiskCombiner, float]:
    """Pick combiner coefficients maximizing |Pearson(combined, accuracy)|.

    Searches a deterministic coefficient grid (linear: grid_size^2 weights on
    [0, grid_max]; polynomial2: grid_size x grid_size over [0, grid_max]^2),
    skipping degenerate combos whose combined risk is constant across rows.
    Ties resolve to the first grid point scanned.

    Returns:
        (combiner, achieved |correlation|).
    """
    if len(rows) < 3:
        raise ValueError(f"need at least 3 rows, got {len(rows)}")
    e_in = np.array([r[0] for r in rows], dtype=float)
    e_out = np.array([r[1] for r in rows], dtype=float)
    accuracy = np.array([r[2] for r in rows], dtype=float)
    if np.all(accuracy == accuracy[0]):
        raise ValueError("accuracy values are all equal; correlation is undefined")
    if grid_size < 2 or grid_max <= 0.0:
        raise ValueError("grid_size must be >= 2 and grid_max positive")

    if form == "linear":
        candidates = [LinearCombiner(w) for w in np.linspace(0.0, grid_max, grid_size**2)]
    elif form == "polynomial2":
        axis = np.linspace(0.0, grid_max, grid_size)
        candidates = [
            PolynomialCombiner(ci, co, 2.0) for ci in axis for co in axis
        ]
    else:
        raise ValueError(f"form must be 'linear' or 'polynomial2', got {form!r}")

    best: tuple[RiskCombiner, float] | None = None
    accuracy_centered = accuracy - accuracy.mean()
    accuracy_norm = float(np.sqrt(np.sum(accuracy_centered**2)))
    for candidate in candidates:
        combined = np.array([candidate.combine(i, o) for i, o in zip(e_in, e_out)])
        centered = combined - combined.mean()
        norm = float(np.sqrt(np.sum(centered**2)))
        # A constant combined vector centers to rounding noise, not exact
        # zeros, so constancy is judged relative to the values' magnitude;
        # the same scale separates real correlation gains from noise ties.
        scale = max(1.0, float(np.abs(combined).max()))
        if norm <= _FIT_NOISE_TOL * scale:
            continue
        corr = abs(float(np.sum(centered * accuracy_centered)) / (norm * accuracy_norm))
        if best is None or corr > best[1] + _FIT_NOISE_TOL:
            best = (candidate, corr)
    if best is None:
        raise ValueError("every grid combiner was constant on these rows")
    return best
