"""Tests for config parsing, dataset ingestion, pipeline runs, and the CLI."""

import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import trk
from trk import __version__, pipeline
from trk.cli import main
from trk.finetune import make_synthetic_domains
from trk.optimal_transport import SinkhornConvergenceError
from trk.pipeline import PipelineConfig, fit_combiner, ingest_dataset, run
from trk.transfer_core import LinearCombiner, PolynomialCombiner, combine

# Six source->target rows of a published transfer study on three photo
# domains (A, W, D): measured input risk, fine-tuned output risk, accuracy.
STUDY_ROWS = [
    ("A", "W", 0.181, 0.428, 0.809),
    ("A", "D", 0.263, 0.380, 0.831),
    ("W", "A", 0.181, 0.545, 0.669),
    ("W", "D", 0.148, 0.084, 0.945),
    ("D", "A", 0.263, 0.543, 0.666),
    ("D", "W", 0.148, 0.412, 0.878),
]
STUDY_COMBINER = {"form": "polynomial2", "input_coeff": 0.31, "output_coeff": 0.92, "power": 2}
# 0.31 * e_in + 0.92 * e_out**2 per row, exact to the double.
STUDY_COMBINED = [0.22463928, 0.214378, 0.329373, 0.05237152, 0.35279108000000003, 0.20204448]
STUDY_PEARSON = -0.9602048844431917
# What json.load gives for NaN and for 1e400.
NAN, INF = float("nan"), float("inf")


def write_study_table(path, with_accuracy=True):
    lines = ["source,target,input_risk,output_risk,accuracy"]
    for source, target, e_in, e_out, acc in STUDY_ROWS:
        cell = repr(acc) if with_accuracy else ""
        lines.append(f"{source},{target},{e_in},{e_out},{cell}")
    path.write_text("\n".join(lines) + "\n")
    return path


def write_blob_csv(path, offset, seed, n_per_class=30):
    """Two Gaussian class blobs on a line, shifted by `offset`."""
    rng = np.random.default_rng(seed)
    lines = ["f0,f1,label"]
    for k in range(2):
        center = np.array([2.0 * k + offset, 0.0])
        for point in center + 0.4 * rng.standard_normal((n_per_class, 2)):
            lines.append(f"{float(point[0])!r},{float(point[1])!r},{k}")
    path.write_text("\n".join(lines) + "\n")
    return path


def midranks(values):
    values = np.asarray(values, dtype=float)
    order = np.argsort(values, kind="stable")
    ranks = np.empty(len(values))
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and values[order[j + 1]] == values[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def rank_correlation(a, b):
    ra, rb = midranks(a), midranks(b)
    ra, rb = ra - ra.mean(), rb - rb.mean()
    return float(np.sum(ra * rb) / np.sqrt(np.sum(ra**2) * np.sum(rb**2)))


class TestIngestCsv:
    def test_reads_features_and_labels(self, tmp_path):
        path = tmp_path / "tiny.csv"
        path.write_text("x1,x2,label\n0.0,1.0,0\n1.5,2.0,1\n-0.5,0.25,0\n")
        dist, labels = ingest_dataset(path)
        assert dist.size == 3
        assert dist.dim == 2
        np.testing.assert_allclose(dist.weights, [1 / 3] * 3)
        np.testing.assert_array_equal(dist.points, [[0.0, 1.0], [1.5, 2.0], [-0.5, 0.25]])
        np.testing.assert_array_equal(labels, [0.0, 1.0, 0.0])

    def test_label_column_selectable(self, tmp_path):
        path = tmp_path / "named.csv"
        path.write_text("y,x\n7,1.0\n8,2.0\n")
        dist, labels = ingest_dataset(path, label_column="y")
        assert dist.dim == 1
        np.testing.assert_array_equal(labels, [7.0, 8.0])

    def test_strips_whitespace(self, tmp_path):
        path = tmp_path / "spaced.csv"
        path.write_text("x , label\n 1.0 , 0 \n 2.0 , 1 \n")
        dist, labels = ingest_dataset(path)
        np.testing.assert_array_equal(dist.points[:, 0], [1.0, 2.0])
        np.testing.assert_array_equal(labels, [0.0, 1.0])

    def test_bad_cell_names_line_and_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,label\n1.0,0\noops,1\n")
        with pytest.raises(ValueError, match=r"line 3, column 'x'"):
            ingest_dataset(path)

    def test_missing_value_names_line_and_column(self, tmp_path):
        path = tmp_path / "gap.csv"
        path.write_text("x,label\n1.0,0\n,1\n")
        with pytest.raises(ValueError, match=r"line 3, column 'x'"):
            ingest_dataset(path)

    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("x,label\n1.0,0\n2.0,1,9\n")
        with pytest.raises(ValueError, match="line 3 has 3 cells"):
            ingest_dataset(path)

    def test_missing_label_column(self, tmp_path):
        path = tmp_path / "nolabel.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError, match="no 'label' column"):
            ingest_dataset(path)

    @pytest.mark.parametrize("body", ["", "x,label\n"])
    def test_empty_inputs_rejected(self, tmp_path, body):
        path = tmp_path / "empty.csv"
        path.write_text(body)
        with pytest.raises(ValueError):
            ingest_dataset(path)


class TestIngestJson:
    def test_reads_weighted_cloud(self, tmp_path):
        path = tmp_path / "tiny.json"
        path.write_text(
            json.dumps(
                {"features": [[0.0], [1.0], [2.0]], "labels": [0, 1, 1], "weights": [2, 1, 1]}
            )
        )
        dist, labels = ingest_dataset(path)
        np.testing.assert_allclose(dist.weights, [0.5, 0.25, 0.25])
        np.testing.assert_array_equal(labels, [0.0, 1.0, 1.0])

    def test_uniform_without_weights(self, tmp_path):
        path = tmp_path / "uni.json"
        path.write_text(json.dumps({"features": [[0.0, 1.0], [2.0, 3.0]], "labels": [0, 1]}))
        dist, _ = ingest_dataset(path)
        np.testing.assert_allclose(dist.weights, [0.5, 0.5])
        assert dist.dim == 2

    def test_format_inferred_from_suffix(self, tmp_path):
        path = tmp_path / "tiny.JSON"
        path.write_text(json.dumps({"features": [[1.0]], "labels": [0]}))
        dist, _ = ingest_dataset(path)
        assert dist.size == 1

    def test_format_parameter_overrides_suffix(self, tmp_path):
        path = tmp_path / "data.txt"
        path.write_text(json.dumps({"features": [[1.0]], "labels": [0]}))
        dist, _ = ingest_dataset(path, format="json")
        assert dist.size == 1
        with pytest.raises(ValueError, match="format must be"):
            ingest_dataset(path)

    @pytest.mark.parametrize(
        "payload,message",
        [
            ({"features": [[1.0]], "labels": [0], "extra": 1}, "unknown config key"),
            ({"features": [], "labels": []}, "non-empty"),
            ({"labels": [0]}, "non-empty"),
            ({"features": [[1.0], [2.0, 3.0]], "labels": [0, 1]}, "row 1 has 2 values"),
            ({"features": [[1.0], ["x"]], "labels": [0, 1]}, "non-numeric"),
            ({"features": [[1.0]], "labels": [0, 1]}, "2 labels for 1 feature rows"),
            ({"features": [[1.0], [2.0]], "labels": [0, 1], "weights": [1.0]},
             "1 weights for 2 feature rows"),
            ({"features": [[1.0], [2.0]], "labels": [0, 1], "weights": [-1.0, 2.0]},
             "nonnegative"),
        ],
    )
    def test_schema_violations(self, tmp_path, payload, message):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=message):
            ingest_dataset(path)

    def test_invalid_json_reports_line(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"features": [[1.0]],\n  "labels": oops}')
        with pytest.raises(ValueError, match="invalid JSON at line 2"):
            ingest_dataset(path)

    def test_array_top_level_rejected(self, tmp_path):
        path = tmp_path / "arr.json"
        path.write_text("[1, 2]")
        with pytest.raises(ValueError, match="top level must be an object"):
            ingest_dataset(path)


# Arbitrary JSON values, including what json.load makes of NaN, 1e400 and
# integers beyond the float range.
JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.sampled_from([10**400, -(10**400)])
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=5,
)
_SHARED_PATHS = [
    ("mode",), ("seed",), ("out_dir",), ("input_risk_rescale",),
    ("combiner",), ("combiner", "form"), ("combiner", "weight"), ("combiner", "input_coeff"),
    ("combiner", "output_coeff"), ("combiner", "power"),
    ("divergence",), ("divergence", "kind"), ("divergence", "p"), ("divergence", "method"),
    ("divergence", "sinkhorn_epsilon"), ("divergence", "sinkhorn_max_iter"),
    ("divergence", "lp_max_support"),
    ("train",), ("train", "epochs"), ("train", "learning_rate"), ("train", "plateau_patience"),
    ("risk_train",), ("risk_train", "epochs"), ("risk_train", "learning_rate"),
    ("risk_train", "plateau_patience"),
]
_MODE_KEYS = {
    "empirical": ["datasets", "format", "label_column"],
    "gaussian_lab": ["dim", "n_pairs", "drift", "identical_tasks"],
    "synthetic_office": [
        "n_domains", "classes", "samples_per_domain", "rotation", "shift", "spread",
    ],
}
# Each mode also gets every mode's section, its own and the foreign ones.
CONFIG_PATHS = [
    (mode, path) for mode in _MODE_KEYS for path in _SHARED_PATHS + [(m,) for m in _MODE_KEYS]
] + [
    (mode, (section, key))
    for mode in _MODE_KEYS for section, keys in _MODE_KEYS.items() for key in keys
]


# Configs that set a key their run would never read, and the one error each gets.
UNREAD_KEYS = [
    ({"mode": "synthetic_office", "gaussian_lab": {"dimm": "x"}},
     "gaussian_lab does not apply to synthetic_office"),
    ({"mode": "synthetic_office", "empirical": 5}, "empirical does not apply to synthetic_office"),
    ({"mode": "empirical", "synthetic_office": {}}, "synthetic_office does not apply to empirical"),
    ({"mode": "gaussian_lab", "train": {"epochs": 3, "learning_rate": 9.0}},
     "train does not apply to gaussian_lab"),
    ({"mode": "gaussian_lab", "risk_train": {}}, "risk_train does not apply to gaussian_lab"),
    ({"mode": "synthetic_office", "risk_train": {"plateau_patience": 1}},
     "unknown config key 'risk_train.plateau_patience'"),
    ({"mode": "empirical", "risk_train": {"plateau_patience": 1000}},
     "unknown config key 'risk_train.plateau_patience'"),
    ({"mode": "synthetic_office",
      "divergence": {"method": "exact_lp", "sinkhorn_epsilon": 5.0, "sinkhorn_max_iter": 1}},
     "divergence.sinkhorn_epsilon does not apply to exact_lp"),
    ({"mode": "empirical", "divergence": {"method": "exact_1d", "lp_max_support": 10}},
     "divergence.lp_max_support does not apply to exact_1d"),
    ({"mode": "empirical", "divergence": {"method": "exact_1d", "sinkhorn_max_iter": 10}},
     "divergence.sinkhorn_max_iter does not apply to exact_1d"),
    ({"mode": "synthetic_office", "divergence": {"method": "sinkhorn", "lp_max_support": 10}},
     "divergence.lp_max_support does not apply to sinkhorn"),
    ({"mode": "gaussian_lab", "combiner": {"form": "polynomial2", "weight": 1.0}},
     "combiner.weight does not apply to polynomial2"),
]


class TestPipelineConfig:
    @settings(max_examples=200, deadline=None)
    @given(mode_path=st.sampled_from(CONFIG_PATHS), value=JSON_VALUES)
    def test_fuzzed_value_parses_or_raises_value_error(self, mode_path, value):
        # Parsing only: from_dict never runs anything.
        mode, path = mode_path
        form = "linear" if path[-1] == "weight" else "polynomial2"
        raw = {"mode": mode, "combiner": {"form": form}}
        node = raw
        for key in path[:-1]:
            node = node.setdefault(key, {})
        node[path[-1]] = value
        try:
            PipelineConfig.from_dict(raw)
        except ValueError:
            pass

    def test_defaults(self):
        cfg = PipelineConfig.from_dict({"mode": "gaussian_lab"})
        assert cfg.seed == 0
        assert cfg.divergence_kind == "wasserstein"
        assert cfg.ot.p == 2.0
        assert cfg.input_risk_rescale == 1.0
        assert isinstance(cfg.combiner, PolynomialCombiner)
        assert cfg.mode_params["n_pairs"] == 6
        sampled = PipelineConfig.from_dict({"mode": "synthetic_office"})
        assert sampled.train.epochs == 100
        assert sampled.risk_train.learning_rate == 0.5

    def test_train_configs_inherit_run_seed(self):
        cfg = PipelineConfig.from_dict({"mode": "synthetic_office", "seed": 11})
        assert cfg.train.seed == 11
        assert cfg.risk_train.seed == 11

    @pytest.mark.parametrize(
        "raw,key",
        [
            ({"mode": "gaussian_lab", "mystery": 1}, "'mystery'"),
            ({"mode": "gaussian_lab", "combiner": {"form": "linear", "wieght": 1}},
             "'combiner.wieght'"),
            ({"mode": "gaussian_lab", "divergence": {"pp": 2}}, "'divergence.pp'"),
            ({"mode": "synthetic_office", "train": {"lr": 0.1}}, "'train.lr'"),
            ({"mode": "synthetic_office", "risk_train": {"lr": 0.1}}, "'risk_train.lr'"),
            ({"mode": "gaussian_lab", "gaussian_lab": {"dims": 2}}, "'gaussian_lab.dims'"),
            ({"mode": "synthetic_office", "synthetic_office": {"blobs": 3}},
             "'synthetic_office.blobs'"),
            ({"mode": "empirical", "empirical": {"files": []}}, "'empirical.files'"),
        ],
    )
    def test_unknown_keys_rejected_with_path(self, raw, key):
        with pytest.raises(ValueError, match=f"unknown config key {key}"):
            PipelineConfig.from_dict(raw)

    @pytest.mark.parametrize(
        "raw,message",
        [
            ({}, "mode must be one of"),
            ({"mode": "office31"}, "mode must be one of"),
            ({"mode": "gaussian_lab", "combiner": {"form": "cubic"}}, "combiner.form"),
            ({"mode": "gaussian_lab", "divergence": {"kind": "tv"}}, "divergence.kind"),
            ({"mode": "gaussian_lab", "input_risk_rescale": 0.0}, "must be positive"),
            ({"mode": "gaussian_lab", "input_risk_rescale": -2.0}, "must be positive"),
            ({"mode": "gaussian_lab", "gaussian_lab": {"dim": 0}}, "must be >= 1"),
            ({"mode": "gaussian_lab", "gaussian_lab": {"n_pairs": 0}}, "must be >= 1"),
            ({"mode": "gaussian_lab", "divergence": {"p": 3}}, "divergence.p must be 2"),
            ({"mode": "gaussian_lab", "divergence": {"kind": "kl", "p": 1}},
             "divergence.p must be 2"),
            ({"mode": "gaussian_lab", "divergence": {"method": "sinkhorn"}},
             "divergence.method does not apply"),
            ({"mode": "gaussian_lab", "divergence": {"sinkhorn_epsilon": 0.1}},
             "divergence.sinkhorn_epsilon does not apply"),
            ({"mode": "gaussian_lab", "divergence": {"sinkhorn_max_iter": 10}},
             "divergence.sinkhorn_max_iter does not apply"),
            ({"mode": "gaussian_lab", "divergence": {"lp_max_support": 10}},
             "divergence.lp_max_support does not apply"),
            ({"mode": "synthetic_office", "divergence": {"kind": "kl"}},
             "divergence.kind 'kl' is not defined"),
            ({"mode": "empirical", "divergence": {"kind": "kl"}},
             "divergence.kind 'kl' is not defined"),
            ({"mode": "gaussian_lab", "gaussian_lab": {"identical_tasks": "no"}},
             "gaussian_lab.identical_tasks must be true or false, got 'no'"),
            ({"mode": "empirical", "empirical": {"datasets": "ab.csv"}},
             "empirical.datasets must be a list of strings, got 'ab.csv'"),
            ({"mode": "synthetic_office", "train": {"epochs": 2.5}},
             "train.epochs must be an integer, got 2.5"),
            ({"mode": "gaussian_lab", "combiner": {"form": "polynomial2", "input_coeff": NAN}},
             "combiner.input_coeff has a non-finite value nan"),
            ({"mode": "gaussian_lab", "input_risk_rescale": NAN},
             "input_risk_rescale has a non-finite value nan"),
            ({"mode": "gaussian_lab", "gaussian_lab": {"dim": [2]}},
             r"gaussian_lab.dim has a non-numeric value \[2\]"),
            ({"mode": "gaussian_lab", "out_dir": 5}, "out_dir must be a string, got 5"),
            ({"mode": "gaussian_lab", "gaussian_lab": {"drift": NAN}},
             "gaussian_lab.drift has a non-finite value nan"),
            ({"mode": "gaussian_lab", "seed": INF}, "seed has a non-finite value inf"),
            ({"mode": "gaussian_lab", "gaussian_lab": {"n_pairs": INF}},
             "gaussian_lab.n_pairs has a non-finite value inf"),
            ({"mode": "gaussian_lab", "divergence": {"p": "two"}},
             "divergence.p has a non-numeric value 'two'"),
            ({"mode": "gaussian_lab", "seed": "x"}, "seed has a non-numeric value 'x'"),
            ({"mode": "gaussian_lab", "seed": -1}, "seed must be >= 0, got -1"),
            ({"mode": "synthetic_office", "train": {"epochs": 0}},
             "train.epochs must be >= 1, got 0"),
            ({"mode": "empirical", "risk_train": {"learning_rate": 0.0}},
             "risk_train.learning_rate must be positive, got 0.0"),
            ({"mode": "synthetic_office", "divergence": {"p": 0.5}},
             "divergence.p must be >= 1, got 0.5"),
            ({"mode": "gaussian_lab", "combiner": {"power": 0.5}},
             "combiner.power must be >= 1 for Lipschitz behavior, got 0.5"),
            ({"mode": "gaussian_lab", "combiner": {"input_coeff": -1}},
             "combiner.input_coeff must be nonnegative, got -1.0"),
            ({"mode": "gaussian_lab", "combiner": {"form": "linear", "weight": -1}},
             "combiner.weight must be a finite nonnegative real, got -1.0"),
            ({"mode": "synthetic_office", "synthetic_office": {"classes": 1}},
             "synthetic_office.classes must be >= 2, got 1"),
            ({"mode": "synthetic_office", "synthetic_office": {"n_domains": 1}},
             "synthetic_office.n_domains must be >= 2, got 1"),
            ({"mode": "synthetic_office", "synthetic_office": {"samples_per_domain": 5}},
             r"synthetic_office.samples_per_domain must be >= 4 \* classes = 12, got 5"),
            ({"mode": "gaussian_lab", "gaussian_lab": {"drift": -1}},
             "gaussian_lab.drift must be >= 0, got -1.0"),
            ({"mode": "empirical", "empirical": {"format": "xml"}},
             r"empirical.format must be one of \('csv', 'json', None\), got 'xml'"),
        ],
    )
    def test_invalid_values_rejected(self, raw, message):
        with pytest.raises(ValueError, match=message):
            PipelineConfig.from_dict(raw)

    @pytest.mark.parametrize("raw,message", UNREAD_KEYS)
    def test_keys_the_run_never_reads_rejected(self, raw, message):
        with pytest.raises(ValueError) as caught:
            PipelineConfig.from_dict(raw)
        assert str(caught.value) == message

    @pytest.mark.parametrize(
        "key", ["combiner", "divergence", "train", "risk_train", "synthetic_office"]
    )
    def test_non_object_section_rejected(self, key):
        with pytest.raises(ValueError, match=f"^{key} must be a JSON object$"):
            PipelineConfig.from_dict({"mode": "synthetic_office", key: []})

    def test_linear_combiner_rejects_polynomial_keys(self):
        raw = {"mode": "gaussian_lab", "combiner": {"form": "linear", "input_coeff": 1.0}}
        with pytest.raises(ValueError, match="combiner.input_coeff"):
            PipelineConfig.from_dict(raw)

    def test_from_json_applies_overrides(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"mode": "gaussian_lab", "seed": 1, "out_dir": "orig"}))
        cfg = PipelineConfig.from_json(path, {"seed": 9, "out_dir": str(tmp_path / "o")})
        assert cfg.seed == 9
        assert cfg.out_dir == tmp_path / "o"

    def test_echo_is_fully_normalized(self, tmp_path):
        cfg = PipelineConfig.from_dict(
            {"mode": "gaussian_lab", "out_dir": str(tmp_path), "combiner": STUDY_COMBINER}
        )
        echo = cfg.echo
        assert echo["combiner"] == {
            "form": "polynomial2", "input_coeff": 0.31, "output_coeff": 0.92, "power": 2.0,
        }
        assert echo["divergence"]["p"] == 2.0
        assert "train" not in echo and "risk_train" not in echo
        assert echo["gaussian_lab"]["identical_tasks"] is False
        sampled = PipelineConfig.from_dict({"mode": "synthetic_office"}).echo
        assert sampled["train"]["epochs"] == 100

    @pytest.mark.parametrize("mode", ["gaussian_lab", "synthetic_office", "empirical"])
    def test_echoed_divergence_keys_per_mode(self, mode):
        # gaussian_lab rejects the solver keys, so its echo must not show them.
        solver = {"method", "sinkhorn_epsilon", "sinkhorn_max_iter", "lp_max_support"}
        expected = {"kind", "p"} | (set() if mode == "gaussian_lab" else solver)
        assert set(PipelineConfig.from_dict({"mode": mode}).echo["divergence"]) == expected

    @pytest.mark.parametrize("mode", ["synthetic_office", "empirical"])
    def test_sampled_modes_default_to_w1(self, mode):
        cfg = PipelineConfig.from_dict({"mode": mode})
        assert cfg.ot.p == 1.0
        assert cfg.echo["divergence"]["p"] == 1.0


@pytest.fixture(scope="module")
def random_report(tmp_path_factory):
    cfg = PipelineConfig.from_dict(
        {
            "mode": "gaussian_lab",
            "seed": 0,
            "out_dir": str(tmp_path_factory.mktemp("glab")),
            "gaussian_lab": {"dim": 3, "n_pairs": 8},
        }
    )
    return run(cfg)


class TestGaussianLabMode:
    def test_identical_tasks_have_zero_risk_everywhere(self, tmp_path):
        for kind in ("wasserstein", "kl"):
            cfg = PipelineConfig.from_dict(
                {
                    "mode": "gaussian_lab",
                    "seed": 3,
                    "out_dir": str(tmp_path / kind),
                    "divergence": {"kind": kind},
                    "gaussian_lab": {"dim": 2, "n_pairs": 3, "identical_tasks": True},
                }
            )
            report = run(cfg)
            assert len(report["rows"]) == 3
            for row in report["rows"]:
                assert row["accuracy"] is None
                for field in (
                    "input_risk", "output_risk", "transfer_risk", "kl_variance", "kl_bias",
                    "w_variance", "w_bias", "regret", "residual", "risk_w",
                ):
                    assert abs(row[field]) < 1e-9, (kind, field, row[field])
            assert report["correlations"] is None

    def test_rows_are_internally_consistent(self, random_report):
        combiner = PolynomialCombiner(1.0, 1.0, 2.0)
        for row in random_report["rows"]:
            assert row["transfer_risk"] == combine(
                combiner, row["input_risk"], row["output_risk"]
            )
            assert row["risk_w"] == pytest.approx(row["w_variance"] + row["w_bias"], abs=1e-12)
            assert row["regret"] == pytest.approx(row["risk_w"] + row["residual"], abs=1e-9)
            assert row["residual"] >= -1e-12
            assert row["input_risk"] > 0.0
            assert row["kl_variance"] >= 0.0
            assert row["kl_bias"] >= 0.0

    def test_output_risk_follows_divergence_kind(self, random_report, tmp_path):
        for row in random_report["rows"]:
            assert row["output_risk"] == row["w_variance"] + row["w_bias"]
        cfg = PipelineConfig.from_dict(
            {
                "mode": "gaussian_lab",
                "seed": 0,
                "out_dir": str(tmp_path / "kl"),
                "divergence": {"kind": "kl"},
                "gaussian_lab": {"dim": 3, "n_pairs": 8},
            }
        )
        kl_report = run(cfg)
        for row, w_row in zip(kl_report["rows"], random_report["rows"]):
            assert row["output_risk"] == row["kl_variance"] + row["kl_bias"]
            assert row["kl_variance"] == w_row["kl_variance"]
            assert row["input_risk"] != w_row["input_risk"]

    def test_rows_deterministic(self, random_report, tmp_path):
        cfg = PipelineConfig.from_dict(
            {
                "mode": "gaussian_lab",
                "seed": 0,
                "out_dir": str(tmp_path / "again"),
                "gaussian_lab": {"dim": 3, "n_pairs": 8},
            }
        )
        again = run(cfg)
        assert again["rows"] == random_report["rows"]


class TestEmpiricalOverride:
    def make_config(self, tmp_path, **extra):
        raw = {
            "mode": "empirical",
            "seed": 0,
            "out_dir": str(tmp_path / "out"),
            "combiner": STUDY_COMBINER,
        }
        raw.update(extra)
        return PipelineConfig.from_dict(raw)

    def test_reproduces_study_transfer_risks(self, tmp_path):
        table = write_study_table(tmp_path / "table.csv")
        report = run(self.make_config(tmp_path), override_risks=table)
        got = [row["transfer_risk"] for row in report["rows"]]
        assert got == STUDY_COMBINED
        assert report["correlations"]["spearman"] == -1.0
        assert report["correlations"]["pearson"] == pytest.approx(STUDY_PEARSON, abs=1e-12)

    def test_rescale_scales_input_risk_before_combining(self, tmp_path):
        table = write_study_table(tmp_path / "table.csv")
        report = run(self.make_config(tmp_path, input_risk_rescale=2.0), override_risks=table)
        combiner = PolynomialCombiner(0.31, 0.92, 2.0)
        for row, (_, _, e_in, e_out, _) in zip(report["rows"], STUDY_ROWS):
            assert row["input_risk"] == 2.0 * e_in
            assert row["transfer_risk"] == combine(combiner, 2.0 * e_in, e_out)

    def test_without_accuracy_column_values(self, tmp_path):
        table = write_study_table(tmp_path / "table.csv", with_accuracy=False)
        report = run(self.make_config(tmp_path), override_risks=table)
        assert all(row["accuracy"] is None for row in report["rows"])
        assert report["correlations"] is None

    def test_missing_columns_rejected(self, tmp_path):
        table = tmp_path / "short.csv"
        table.write_text("source,target,input_risk\nA,B,0.1\n")
        with pytest.raises(ValueError, match="needs columns"):
            run(self.make_config(tmp_path), override_risks=table)

    def test_non_numeric_risk_names_line(self, tmp_path):
        table = tmp_path / "bad.csv"
        table.write_text(
            "source,target,input_risk,output_risk\nA,B,0.1,0.2\nB,A,oops,0.2\n"
        )
        with pytest.raises(ValueError, match="line 3, column 'input_risk': could not parse 'oops'"):
            run(self.make_config(tmp_path), override_risks=table)

    def test_empty_table_rejected(self, tmp_path):
        table = tmp_path / "empty.csv"
        table.write_text("source,target,input_risk,output_risk,accuracy\n")
        with pytest.raises(ValueError, match="no rows"):
            run(self.make_config(tmp_path), override_risks=table)


class TestEmpiricalDatasets:
    def make_config(self, tmp_path, datasets, seed=1):
        return PipelineConfig.from_dict(
            {
                "mode": "empirical",
                "seed": seed,
                "out_dir": str(tmp_path / f"out{seed}"),
                "empirical": {"datasets": [str(p) for p in datasets]},
                "train": {"epochs": 60},
                "risk_train": {"epochs": 6},
            }
        )

    def test_runs_all_ordered_pairs(self, tmp_path):
        alpha = write_blob_csv(tmp_path / "alpha.csv", offset=0.0, seed=0)
        beta = write_blob_csv(tmp_path / "beta.csv", offset=1.2, seed=1)
        report = run(self.make_config(tmp_path, [alpha, beta]))
        names = [(row["source"], row["target"]) for row in report["rows"]]
        assert names == [("alpha", "beta"), ("beta", "alpha")]
        for row in report["rows"]:
            assert 0.0 <= row["accuracy"] <= 1.0
            assert row["input_risk"] > 0.0
            assert row["output_risk"] >= 0.0

    def test_pair_table_byte_identical_across_runs(self, tmp_path):
        alpha = write_blob_csv(tmp_path / "alpha.csv", offset=0.0, seed=0)
        beta = write_blob_csv(tmp_path / "beta.csv", offset=1.2, seed=1)
        cfg_a = self.make_config(tmp_path / "a", [alpha, beta])
        cfg_b = self.make_config(tmp_path / "b", [alpha, beta])
        run(cfg_a)
        run(cfg_b)
        first = (cfg_a.out_dir / "pairs.csv").read_bytes()
        second = (cfg_b.out_dir / "pairs.csv").read_bytes()
        assert first == second

    def test_needs_two_datasets(self, tmp_path):
        alpha = write_blob_csv(tmp_path / "alpha.csv", offset=0.0, seed=0)
        with pytest.raises(ValueError, match="at least 2 datasets"):
            run(self.make_config(tmp_path, [alpha]))

    def test_fractional_labels_rejected(self, tmp_path):
        path = tmp_path / "frac.csv"
        path.write_text("x,label\n" + "".join(f"{v},0.5\n" for v in range(6)))
        other = write_blob_csv(tmp_path / "beta.csv", offset=0.0, seed=1)
        with pytest.raises(ValueError, match="nonnegative integers"):
            run(self.make_config(tmp_path, [path, other]))

    def test_single_class_corpus_rejected(self, tmp_path):
        flat_a = tmp_path / "fa.csv"
        flat_a.write_text("x,label\n" + "".join(f"{v},0\n" for v in range(6)))
        flat_b = tmp_path / "fb.csv"
        flat_b.write_text("x,label\n" + "".join(f"{v + 0.5},0\n" for v in range(6)))
        with pytest.raises(ValueError, match="fewer than 2 classes"):
            run(self.make_config(tmp_path, [flat_a, flat_b]))


@pytest.fixture(scope="module")
def office_report(tmp_path_factory):
    cfg = PipelineConfig.from_dict(
        {
            "mode": "synthetic_office",
            "seed": 0,
            "out_dir": str(tmp_path_factory.mktemp("office")),
            "combiner": STUDY_COMBINER,
        }
    )
    return run(cfg), cfg


class TestSyntheticOfficeMode:
    def tiny_config(self, tmp_path, divergence):
        return PipelineConfig.from_dict(
            {
                "mode": "synthetic_office",
                "out_dir": str(tmp_path),
                "divergence": divergence,
                "synthetic_office": {"samples_per_domain": 24},
            }
        )

    def test_input_risk_follows_divergence_p(self, tmp_path):
        report = run(self.tiny_config(tmp_path, {"p": 2}))
        domains = {d.name: d for d in make_synthetic_domains(0, samples_per_domain=24)}
        assert report["config"]["divergence"]["p"] == 2.0
        for row in report["rows"]:
            expected = oracles.assignment_ot_cost(
                domains[row["target"]].train.points, domains[row["source"]].train.points, p=2
            )
            assert row["input_risk"] == pytest.approx(expected, rel=1e-8)

    def test_input_risk_follows_divergence_solver(self, tmp_path):
        divergence = {"method": "sinkhorn", "sinkhorn_max_iter": 1}
        with pytest.raises(SinkhornConvergenceError) as caught:
            run(self.tiny_config(tmp_path, divergence))
        assert caught.value.iterations == 1

    def test_all_six_ordered_pairs_reported(self, office_report):
        report, _ = office_report
        names = [(row["source"], row["target"]) for row in report["rows"]]
        assert names == [
            ("domain_a", "domain_b"), ("domain_a", "domain_c"),
            ("domain_b", "domain_a"), ("domain_b", "domain_c"),
            ("domain_c", "domain_a"), ("domain_c", "domain_b"),
        ]

    def test_risk_anticorrelates_with_accuracy(self, office_report):
        report, _ = office_report
        spearman = report["correlations"]["spearman"]
        assert spearman <= -0.5
        accuracy = [row["accuracy"] for row in report["rows"]]
        risk = [row["transfer_risk"] for row in report["rows"]]
        assert spearman == pytest.approx(rank_correlation(accuracy, risk), abs=1e-12)

    def test_combined_recomputable_from_echoed_config(self, office_report):
        report, _ = office_report
        echoed = report["config"]["combiner"]
        assert echoed["form"] == "polynomial2"
        combiner = PolynomialCombiner(
            echoed["input_coeff"], echoed["output_coeff"], echoed["power"]
        )
        for row in report["rows"]:
            assert row["transfer_risk"] == combine(
                combiner, row["input_risk"], row["output_risk"]
            )

    def test_plot_data_mirrors_rows(self, office_report):
        report, _ = office_report
        assert report["plot_data"]["accuracy"] == [r["accuracy"] for r in report["rows"]]
        assert report["plot_data"]["transfer_risk"] == [
            r["transfer_risk"] for r in report["rows"]
        ]

    def test_report_file_round_trips(self, office_report):
        report, cfg = office_report
        on_disk = json.loads((cfg.out_dir / "report.json").read_text())
        assert on_disk == json.loads(json.dumps(report))
        assert on_disk["version"] == __version__
        assert on_disk["timings"]["pairs"] > 0.0

    def test_pair_table_round_trips_exact_floats(self, office_report):
        report, cfg = office_report
        lines = (cfg.out_dir / "pairs.csv").read_text().splitlines()
        assert lines[0] == "source,target,accuracy,input_risk,output_risk,transfer_risk"
        assert len(lines) == 7
        for line, row in zip(lines[1:], report["rows"]):
            source, target, acc, e_in, e_out, risk = line.split(",")
            assert (source, target) == (row["source"], row["target"])
            assert float(acc) == row["accuracy"]
            assert float(e_in) == row["input_risk"]
            assert float(e_out) == row["output_risk"]
            assert float(risk) == row["transfer_risk"]


class TestFitCombiner:
    def test_recovers_linear_relationship(self):
        rng = np.random.default_rng(5)
        e_in = rng.uniform(0.1, 1.0, size=12)
        e_out = np.full(12, 0.3)
        rows = [(i, o, 1.0 - i) for i, o in zip(e_in, e_out)]
        combiner, corr = fit_combiner(rows, "linear")
        assert isinstance(combiner, LinearCombiner)
        assert combiner.weight > 0.0
        assert corr >= 0.999

    def test_beats_hand_tuned_coefficients_on_study_rows(self):
        rows = [(e_in, e_out, acc) for _, _, e_in, e_out, acc in STUDY_ROWS]
        combiner, corr = fit_combiner(rows, "polynomial2")
        assert isinstance(combiner, PolynomialCombiner)
        assert corr >= abs(STUDY_PEARSON)

    def test_deterministic(self):
        rows = [(e_in, e_out, acc) for _, _, e_in, e_out, acc in STUDY_ROWS]
        first = fit_combiner(rows, "polynomial2")
        second = fit_combiner(rows, "polynomial2")
        assert first == second

    def test_tied_scores_resolve_to_first_grid_point(self):
        # Constant input risk shifts every combined value by the same amount,
        # so all input coefficients tie and the scan keeps the first one.
        rng = np.random.default_rng(7)
        e_out = rng.uniform(0.1, 1.0, size=10)
        rows = [(0.4, o, 1.0 - o) for o in e_out]
        combiner, _ = fit_combiner(rows, "polynomial2")
        assert combiner.input_coeff == 0.0

    def test_skips_constant_combiners(self):
        rows = [(0.4, 0.2, 0.1), (0.4, 0.2, 0.5), (0.4, 0.2, 0.9)]
        with pytest.raises(ValueError, match="every grid combiner was constant"):
            fit_combiner(rows, "polynomial2")

    @pytest.mark.parametrize(
        "rows,form,message",
        [
            ([(0.1, 0.2, 0.3)], "linear", "at least 3 rows"),
            ([(0.1, 0.2, 0.5), (0.2, 0.3, 0.5), (0.3, 0.4, 0.5)], "linear", "all equal"),
            ([(0.1, 0.2, 0.3), (0.2, 0.3, 0.4), (0.3, 0.4, 0.5)], "cubic", "form must be"),
        ],
    )
    def test_validation(self, rows, form, message):
        with pytest.raises(ValueError, match=message):
            fit_combiner(rows, form, grid_size=5)

    def test_grid_parameters_validated(self):
        rows = [(0.1, 0.2, 0.3), (0.2, 0.3, 0.4), (0.3, 0.4, 0.5)]
        with pytest.raises(ValueError, match="grid_size"):
            fit_combiner(rows, "linear", grid_size=1)
        with pytest.raises(ValueError, match="grid_size"):
            fit_combiner(rows, "linear", grid_max=0.0)


# Each file holds one bad value that ingest-check must reject naming its place.
BAD_DATASETS = [
    ("nan_feature.csv", "x,label\n1.0,0\nnan,1\n",
     "line 3, column 'x': non-finite value 'nan'"),
    ("inf_label.csv", "x,label\n1.0,0\n2.0,inf\n",
     "line 3, column 'label': non-finite value 'inf'"),
    ("label_only.csv", "label\n0\n1\n", "no feature columns besides 'label'"),
    ("bool_feature.json", '{"features": [[1.0], [true]], "labels": [0, 1]}',
     "features row 1 has a non-numeric value True"),
    ("nan_feature.json", '{"features": [[1.0], [NaN]], "labels": [0, 1]}',
     "features row 1 has a non-finite value nan"),
    ("text_weight.json",
     '{"features": [[1.0], [2.0]], "labels": [0, 1], "weights": [1.0, "a"]}',
     "weights row 1 has a non-numeric value 'a'"),
    ("text_label.json", '{"features": [[1.0], [2.0]], "labels": [0, "b"]}',
     "labels row 1 has a non-numeric value 'b'"),
    ("flat_features.json", '{"features": [1.0, 2.0], "labels": [0, 1]}',
     "features row 0 must be a non-empty array of numbers"),
    ("object_labels.json", '{"features": [[1.0]], "labels": {"a": 0}}',
     "'labels' must be a JSON array"),
]


# Each table holds one bad number that the command must reject naming its cell.
BAD_NUMBER_TABLES = [
    ("override_nan", "run", "source,target,input_risk,output_risk\nA,B,nan,0.2\n",
     "line 2, column 'input_risk': non-finite value 'nan'"),
    ("override_inf", "run", "source,target,input_risk,output_risk\nA,B,0.1,inf\n",
     "line 2, column 'output_risk': non-finite value 'inf'"),
    ("override_text_accuracy", "run",
     "source,target,input_risk,output_risk,accuracy\nA,B,0.1,0.2,abc\n",
     "line 2, column 'accuracy': could not parse 'abc'"),
    ("override_short_row", "run", "source,target,input_risk,output_risk\nA,B,0.1\n",
     "line 2, column 'output_risk': missing value"),
    ("override_negative", "run", "source,target,input_risk,output_risk\nA,B,-0.1,0.2\n",
     "line 2, column 'input_risk': negative risk -0.1"),
    ("fit_negative", "fit-combiner",
     "input_risk,output_risk,accuracy\n0.1,0.2,0.5\n0.2,-0.3,0.6\n0.3,0.4,0.7\n",
     "line 3, column 'output_risk': negative risk -0.3"),
    ("fit_nan", "fit-combiner",
     "input_risk,output_risk,accuracy\n0.1,0.2,0.5\n0.2,nan,0.6\n0.3,0.4,0.7\n",
     "line 3, column 'output_risk': non-finite value 'nan'"),
    ("fit_text", "fit-combiner",
     "input_risk,output_risk,accuracy\n0.1,0.2,0.5\nabc,0.3,0.6\n0.3,0.4,0.7\n",
     "line 3, column 'input_risk': could not parse 'abc'"),
    ("fit_missing", "fit-combiner",
     "input_risk,output_risk,accuracy\n0.1,0.2,0.5\n0.2,,0.6\n0.3,0.4,0.7\n",
     "line 3, column 'output_risk': missing value"),
]


class TestCli:
    def run_config(self, tmp_path, **extra):
        raw = {"mode": "gaussian_lab", "seed": 2, "out_dir": str(tmp_path / "out"), **extra}
        if raw["mode"] == "gaussian_lab":
            raw["gaussian_lab"] = {"dim": 2, "n_pairs": 2}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        return path

    def test_run_writes_outputs(self, tmp_path, capsys):
        config = self.run_config(tmp_path)
        assert main(["run", "--config", str(config)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out == {"out_dir": str(tmp_path / "out"), "rows": 2}
        assert (tmp_path / "out" / "report.json").exists()
        assert (tmp_path / "out" / "pairs.csv").exists()

    def test_run_flag_overrides_reach_report(self, tmp_path, capsys):
        config = self.run_config(tmp_path)
        override_dir = tmp_path / "elsewhere"
        assert main(["run", "--config", str(config), "--seed", "7",
                     "--out", str(override_dir)]) == 0
        capsys.readouterr()
        report = json.loads((override_dir / "report.json").read_text())
        assert report["config"]["seed"] == 7
        assert report["config"]["out_dir"] == str(override_dir)

    def test_run_with_override_risks(self, tmp_path, capsys):
        table = write_study_table(tmp_path / "table.csv")
        config = self.run_config(tmp_path, mode="empirical", combiner=STUDY_COMBINER)
        assert main(["run", "--config", str(config),
                     "--override-risks", str(table)]) == 0
        capsys.readouterr()
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert [row["transfer_risk"] for row in report["rows"]] == STUDY_COMBINED

    def test_fit_combiner_prints_fit(self, tmp_path, capsys):
        table = write_study_table(tmp_path / "rows.csv")
        assert main(["fit-combiner", "--rows", str(table), "--form", "polynomial2"]) == 0
        fitted = json.loads(capsys.readouterr().out)
        assert fitted["combiner"]["form"] == "polynomial2"
        assert fitted["correlation"] >= abs(STUDY_PEARSON)

    def test_fit_combiner_skips_blank_accuracy_rows(self, tmp_path, capsys):
        table = write_study_table(tmp_path / "rows.csv", with_accuracy=False)
        assert main(["fit-combiner", "--rows", str(table), "--form", "linear"]) == 1
        err = json.loads(capsys.readouterr().err)
        assert "at least 3 rows" in err["error"]

    def test_ingest_check_reports_shape(self, tmp_path, capsys):
        path = tmp_path / "tiny.csv"
        path.write_text("x1,x2,label\n0.0,1.0,0\n1.5,2.0,1\n-0.5,0.25,0\n")
        assert main(["ingest-check", "--path", str(path)]) == 0
        assert json.loads(capsys.readouterr().out) == {
            "rows": 3, "dim": 2, "weighted": False,
        }

    def test_ingest_check_flags_weighted_clouds(self, tmp_path, capsys):
        path = tmp_path / "tiny.json"
        path.write_text(
            json.dumps(
                {"features": [[0.0], [1.0], [2.0]], "labels": [0, 1, 1], "weights": [2, 1, 1]}
            )
        )
        assert main(["ingest-check", "--path", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["weighted"] is True

    def test_errors_are_structured_json_on_stderr(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("x,label\n1.0,0\noops,1\n")
        assert main(["ingest-check", "--path", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)
        assert "line 3, column 'x'" in err["error"]

    @pytest.mark.parametrize("name,body,where", BAD_DATASETS, ids=[c[0] for c in BAD_DATASETS])
    def test_ingest_check_rejects_bad_values(self, tmp_path, capsys, name, body, where):
        path = tmp_path / name
        path.write_text(body)
        assert main(["ingest-check", "--path", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == f"{path}: {where}"

    @pytest.mark.parametrize(
        "name,command,body,where", BAD_NUMBER_TABLES, ids=[c[0] for c in BAD_NUMBER_TABLES]
    )
    def test_bad_number_cells_rejected(self, tmp_path, capsys, name, command, body, where):
        table = tmp_path / f"{name}.csv"
        table.write_text(body)
        if command == "run":
            config = self.run_config(tmp_path, mode="empirical")
            argv = ["run", "--config", str(config), "--override-risks", str(table)]
        else:
            argv = ["fit-combiner", "--rows", str(table), "--form", "linear"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == f"{table}: {where}"
        assert not (tmp_path / "out").exists()

    def test_missing_file_fails_cleanly(self, tmp_path, capsys):
        assert main(["run", "--config", str(tmp_path / "nope.json")]) == 1
        assert "error" in json.loads(capsys.readouterr().err)

    def test_runtime_failure_fails_cleanly(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({
            "mode": "synthetic_office",
            "out_dir": str(tmp_path / "out"),
            "train": {"learning_rate": 1e308},
            "synthetic_office": {"samples_per_domain": 24},
        }))
        # The source head's loss stays finite, but its weights overflow on
        # target points; at seed 0 and 2 that used to surface as a NaN
        # objective and as a bad-input error respectively.
        for seed, pair in ((0, "domain_a->domain_b"), (2, "domain_a->domain_c")):
            assert main(["run", "--config", str(config), "--seed", str(seed)]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            lines = captured.err.splitlines()
            assert len(lines) == 1
            assert json.loads(lines[0])["error"] == (
                f"source head of {pair} diverged: non-finite representation of the target points"
            )

    @pytest.mark.parametrize("log_level", ["WARNING", "DEBUG"])
    def test_runtime_failure_stderr_is_one_json_line(self, tmp_path, log_level):
        # numpy warnings bypass capsys, so run the CLI in a child process.
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({
            "mode": "synthetic_office",
            "out_dir": str(tmp_path / "out"),
            "train": {"learning_rate": 1e308},
            "synthetic_office": {"samples_per_domain": 24},
        }))
        src = str(Path(trk.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src, TRK_LOG=log_level)
        done = subprocess.run(
            [sys.executable, "-m", "trk.cli", "run", "--config", str(config)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 1
        lines = done.stderr.splitlines()
        assert "diverged" in json.loads(lines[-1])["error"]
        if log_level == "WARNING":
            assert len(lines) == 1, done.stderr
        else:
            assert any(line.startswith("DEBUG:trk:floating-point overflow") for line in lines)

    @pytest.mark.parametrize("raw,message", UNREAD_KEYS)
    def test_unread_key_exits_with_one_json_line(self, tmp_path, capsys, raw, message):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**raw, "out_dir": str(tmp_path / "out")}))
        assert main(["run", "--config", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0]) == {"error": message}
        assert not (tmp_path / "out").exists()

    def test_unknown_config_key_fails_cleanly(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"mode": "gaussian_lab", "divergence": {"pp": 2}}))
        assert main(["run", "--config", str(path)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert "divergence.pp" in err["error"]


def accepted_key_paths(mode):
    """Every leaf key path the config tables accept in `mode`, over all forms and methods."""
    paths = set()
    for form, method in itertools.product(pipeline._FORMS, pipeline._SOLVERS):
        for section, table in pipeline._tables(mode, form, method).items():
            paths |= {
                f"{section}.{key}" if section else key
                for key, (kind, _) in table.items() if kind is not dict
            }
    return sorted(paths)


# Tiny runs of each mode; a case's settings are merged into its mode's base.
KNOB_BASE = {
    "synthetic_office": {"mode": "synthetic_office", "synthetic_office": {"samples_per_domain": 24}},
    "gaussian_lab": {"mode": "gaussian_lab", "gaussian_lab": {"n_pairs": 2}},
}
# Key path -> (another value, base settings the key needs to be read or to
# matter).  Default Sinkhorn settings do not converge on 12-point clouds, so
# the solver keys run with an explicit epsilon.
KNOB_CASES = {
    "seed": (5, {}),
    "input_risk_rescale": (2.0, {}),
    "combiner.form": ("linear", {}),
    "combiner.weight": (0.5, {"combiner": {"form": "linear"}}),
    "combiner.input_coeff": (0.5, {}),
    "combiner.output_coeff": (0.5, {}),
    "combiner.power": (3.0, {}),
    "divergence.kind": ("kl", {}),
    "divergence.p": (2.0, {}),
    "divergence.method": ("sinkhorn", {"divergence": {"sinkhorn_epsilon": 0.2}}),
    "divergence.lp_max_support": (1, {"divergence": {"sinkhorn_epsilon": 0.2}}),
    "divergence.sinkhorn_epsilon": (0.2, {"divergence": {"method": "sinkhorn"}}),
    "divergence.sinkhorn_max_iter": (
        1, {"divergence": {"method": "sinkhorn", "sinkhorn_epsilon": 0.2}},
    ),
    "train.epochs": (5, {}),
    "train.learning_rate": (0.5, {}),
    # At the default rate the descent improves every epoch and never stalls.
    "train.plateau_patience": (1, {"train": {"learning_rate": 2.0}}),
    "risk_train.epochs": (3, {}),
    "risk_train.learning_rate": (0.05, {}),
    "synthetic_office.n_domains": (2, {}),
    "synthetic_office.classes": (2, {}),
    "synthetic_office.samples_per_domain": (32, {}),
    "synthetic_office.rotation": (0.5, {}),
    "synthetic_office.shift": (2.0, {}),
    "synthetic_office.spread": (0.5, {}),
    "gaussian_lab.dim": (3, {}),
    "gaussian_lab.n_pairs": (3, {}),
    "gaussian_lab.drift": (0.5, {}),
    "gaussian_lab.identical_tasks": (True, {}),
}
# mode has no default (it selects the tables), out_dir moves the outputs,
# and these divergence keys have one legal value in their mode.
KNOB_EXEMPT = {
    ("synthetic_office", "mode"), ("gaussian_lab", "mode"),
    ("synthetic_office", "out_dir"), ("gaussian_lab", "out_dir"),
    ("synthetic_office", "divergence.kind"), ("gaussian_lab", "divergence.p"),
}
KNOBS = [
    (mode, path) for mode in KNOB_BASE for path in accepted_key_paths(mode)
    if (mode, path) not in KNOB_EXEMPT
]


def merged(base, settings):
    out = dict(base)
    for key, value in settings.items():
        out[key] = merged(base.get(key, {}), value) if isinstance(value, dict) else value
    return out


@pytest.fixture(scope="module")
def knob_rows(tmp_path_factory):
    """Report rows of a config run through the CLI (None when it exits 1), cached."""
    cache = {}

    def rows(raw):
        key = json.dumps(raw, sort_keys=True)
        if key not in cache:
            work = tmp_path_factory.mktemp("knob")
            path = work / "cfg.json"
            path.write_text(json.dumps({**raw, "out_dir": str(work / "out")}))
            ok = main(["run", "--config", str(path)]) == 0
            cache[key] = json.loads((work / "out" / "report.json").read_text())["rows"] if ok else None
        return cache[key]

    return rows


@pytest.mark.parametrize("mode,path", KNOBS, ids=[f"{m}:{p}" for m, p in KNOBS])
def test_every_accepted_key_changes_the_result(knob_rows, mode, path):
    assert path in KNOB_CASES, f"no liveness case for {path}"
    value, settings = KNOB_CASES[path]
    base = merged(KNOB_BASE[mode], settings)
    change = value
    for part in reversed(path.split(".")):
        change = {part: change}
    before, after = knob_rows(base), knob_rows(merged(base, change))
    assert (before is None) != (after is None) or before != after
