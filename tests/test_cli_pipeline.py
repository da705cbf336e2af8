"""Tests for config parsing, dataset ingestion, pipeline runs, and the CLI."""

import csv
import itertools
import json
import os
import re
import subprocess
import sys
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import stats

import oracles
import trk
from test_finetune import assert_no_child_left
from trk import __version__, distributions, finetune, pipeline
from trk import optimal_transport as ot_module
from trk.cli import main
from trk.finetune import TrainConfig, make_synthetic_domains
from trk.distributions import EmpiricalDistribution, gaussian_kl, gaussian_w2
from trk.gaussian_lab import basic_case_risks, random_basic_pair, random_task
from trk.optimal_transport import OtConfig, SinkhornConvergenceError
from trk.pipeline import PipelineConfig, fit_combiner, ingest_dataset, run
from trk.transfer_core import PolynomialCombiner, combine, input_risk

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


def write_line_csv(path, scale, seed, n=40):
    """A 1-D two-class dataset of n rows, every feature times `scale`."""
    rng = np.random.default_rng(seed)
    labels = np.arange(n) % 2
    points = scale * (2.0 * labels + 0.5 * rng.standard_normal(n))
    path.write_text("x,label\n" + "".join(f"{float(x)!r},{y}\n" for x, y in zip(points, labels)))
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

    @pytest.mark.parametrize(
        "body", ["x,label\n1.0,0\n\n2.0,1\n", "x,label\n1.0,0\n2.0,1\n\n"],
        ids=["blank_middle_line", "trailing_empty_line"],
    )
    def test_blank_lines_skipped(self, tmp_path, body):
        path = tmp_path / "blank.csv"
        path.write_text(body)
        dist, labels = ingest_dataset(path)
        np.testing.assert_array_equal(dist.points[:, 0], [1.0, 2.0])
        np.testing.assert_array_equal(labels, [0.0, 1.0])

    def test_line_numbers_count_blank_lines(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,label\n1.0,0\n\noops,1\n")
        with pytest.raises(ValueError, match=r"line 4, column 'x'"):
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
# Dataset fuzz inputs: well-formed tables of numbers, sometimes ragged or
# holding a bad cell, plus arbitrary text.  Lone surrogates in the text encode
# to bytes that are not UTF-8.
CSV_NUMBERS = st.floats(allow_nan=False, allow_infinity=False).map(repr) | st.integers(
    -(10**6), 10**6
).map(str)
CSV_CELLS = (
    CSV_NUMBERS
    | st.sampled_from(["", " ", "nan", "-inf", "1e400", "1e-400", "0x1", "1_0", '"', '"1,2"'])
    | st.text(max_size=6)
)


@st.composite
def csv_texts(draw):
    header = draw(
        st.lists(st.sampled_from(["x", "y", "label", " label "]) | st.text(max_size=4),
                 min_size=1, max_size=4)
        | st.just(["x", "label"])
    )
    cell = draw(st.sampled_from([CSV_NUMBERS, CSV_CELLS]))
    rows = draw(st.lists(
        st.lists(cell, min_size=len(header), max_size=len(header))
        | st.lists(CSV_CELLS, max_size=5),
        max_size=6,
    ))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return newline.join(",".join(cells) for cells in [header, *rows]) + newline


CSV_TEXTS = csv_texts() | st.text(max_size=80)
JSON_FINITE = st.floats(allow_nan=False, allow_infinity=False) | st.integers()
JSON_NUMBERS = JSON_FINITE | st.sampled_from([10**400, float("nan"), float("inf"), True])


@st.composite
def json_datasets(draw):
    n = draw(st.integers(0, 5))
    dim = draw(st.integers(1, 3))
    number = draw(st.sampled_from([JSON_FINITE, JSON_NUMBERS]))
    doc = {
        "features": draw(st.lists(
            st.lists(number, min_size=dim, max_size=dim), min_size=n, max_size=n
        )),
        "labels": draw(st.lists(number, min_size=n, max_size=n)),
    }
    if draw(st.booleans()):
        weight = draw(st.sampled_from([st.floats(0.0, 1e300), number]))
        doc["weights"] = draw(st.lists(weight, min_size=n, max_size=n))
    if draw(st.booleans()):  # one field replaced by an arbitrary value
        doc[draw(st.sampled_from(["features", "labels", "weights", "extra"]))] = draw(JSON_VALUES)
    return json.dumps(doc)


JSON_DOCUMENTS = json_datasets() | JSON_VALUES.map(json.dumps) | st.text(max_size=40)
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


# Configs that set a key their run would never read, or a solver method the
# library does not have, and the one error each gets.
UNREAD_KEYS = [
    ({"mode": "synthetic_office", "gaussian_lab": {"dimm": "x"}},
     "gaussian_lab does not apply to synthetic_office"),
    ({"mode": "synthetic_office", "empirical": 5}, "empirical does not apply to synthetic_office"),
    ({"mode": "empirical", "synthetic_office": {}}, "synthetic_office does not apply to empirical"),
    ({"mode": "gaussian_lab", "train": {"epochs": 3, "learning_rate": 9.0}},
     "unknown config key 'train'"),
    ({"mode": "gaussian_lab", "risk_train": {}}, "risk_train does not apply to gaussian_lab"),
    ({"mode": "synthetic_office", "risk_train": {"plateau_patience": 1}},
     "unknown config key 'risk_train.plateau_patience'"),
    ({"mode": "empirical", "risk_train": {"plateau_patience": 1000}},
     "unknown config key 'risk_train.plateau_patience'"),
    ({"mode": "gaussian_lab", "divergence": {"sinkhorn_epsilon": 5.0, "sinkhorn_max_iter": 1}},
     "divergence.sinkhorn_epsilon does not apply to gaussian_lab"),
    ({"mode": "gaussian_lab", "divergence": {"lp_max_support": 10}},
     "divergence.lp_max_support does not apply to gaussian_lab"),
    ({"mode": "gaussian_lab", "divergence": {"sinkhorn_max_iter": 10}},
     "divergence.sinkhorn_max_iter does not apply to gaussian_lab"),
    ({"mode": "synthetic_office", "divergence": {"method": "sinkhorn", "lp_max_support": 10}},
     "divergence.lp_max_support does not apply to sinkhorn"),
    ({"mode": "gaussian_lab", "combiner": {"form": "polynomial2", "weight": 1.0}},
     "combiner.weight does not apply to polynomial2"),
    ({"mode": "gaussian_lab", "gaussian_lab": {"identical_tasks": True, "drift": 0.9}},
     "gaussian_lab.drift does not apply to identical_tasks"),
    ({"mode": "synthetic_office", "divergence": {"method": "exact_lp"}},
     "divergence.method must be one of ('auto', 'sinkhorn'), got 'exact_lp'"),
    ({"mode": "empirical", "divergence": {"method": "exact_1d"}},
     "divergence.method must be one of ('auto', 'sinkhorn'), got 'exact_1d'"),
    # A sampled mode always measures W_p, and gaussian_lab's closed forms
    # have one order and no solver, so these keys are read by no such run.
    ({"mode": "synthetic_office", "divergence": {"kind": "wasserstein"}},
     "divergence.kind does not apply to synthetic_office"),
    ({"mode": "empirical", "divergence": {"kind": "wasserstein"}},
     "divergence.kind does not apply to empirical"),
    ({"mode": "gaussian_lab", "divergence": {"p": 2}}, "divergence.p does not apply to gaussian_lab"),
    ({"mode": "gaussian_lab", "divergence": {"method": "bogus"}},
     "divergence.method does not apply to gaussian_lab"),
    # A risk table draws nothing, so an override run reads no seed, from the
    # config or from `trk run --seed`.
    ({"mode": "empirical", "seed": 5, "--override-risks": "risks.csv"},
     "seed does not apply to --override-risks"),
    ({"mode": "empirical", "--seed": 3, "--override-risks": "risks.csv"},
     "seed does not apply to --override-risks"),
    # Every head is its regularized loss's minimizer, so no run reads a
    # head's epochs or learning rate.
    ({"mode": "synthetic_office", "train": {"plateau_patience": 10}},
     "unknown config key 'train'"),
    ({"mode": "empirical", "train": {"epochs": 100}}, "unknown config key 'train'"),
]


def split_flags(raw):
    """An UNREAD_KEYS case as (config, command-line flags): a key opening with -- is a flag."""
    flags = {key: value for key, value in raw.items() if key.startswith("--")}
    return {key: value for key, value in raw.items() if key not in flags}, flags


class TestIngestFuzz:
    """Any dataset file parses to a finite labeled cloud or is refused by name."""

    @staticmethod
    def ingest_or_refuse(path, text):
        path.write_bytes(text.encode("utf-8", "surrogatepass"))
        try:
            dist, labels = ingest_dataset(path)
        except ValueError as err:
            assert str(path) in str(err)
            return
        assert np.all(np.isfinite(dist.points))
        assert labels.shape == (dist.size,)
        assert np.all(np.isfinite(labels))

    @settings(max_examples=300, deadline=None)
    @given(text=CSV_TEXTS)
    @example(text="x,label\n" + "1" * 200_000 + ",0\n")  # over csv's field size limit
    @example(text="x,label\n\udcff,0\n")  # not UTF-8
    def test_csv(self, tmp_path_factory, text):
        self.ingest_or_refuse(tmp_path_factory.getbasetemp() / "fuzz.csv", text)

    @staticmethod
    def outcome(read):
        """A reader's (points, labels, weights) bytes, or its ValueError message."""
        try:
            dist, labels = read()
        except ValueError as err:
            return str(err)
        return dist.points.shape, dist.points.tobytes(), labels.tobytes(), dist.weights.tobytes()

    @settings(max_examples=300, deadline=None)
    @given(text=CSV_TEXTS)
    @example(text='x,label\n"1.5",0\n2.0,1\n')  # a quoted cell
    @example(text="x,label\n1_0,0\n2.0,1\n")
    @example(text="x_0,label\n1.0,0\n2.0,1\n")  # an underscore in the header only
    @example(text="x,label\r\n1.0,0\r\n2.0,1\r\n")
    @example(text="x,label\n1.0,0\n\n2.0,1\n")  # a blank line
    @example(text="x,label\n1.0,0\n \n2.0,1\n")  # a whitespace-only line
    @example(text="x,label\n1.0,0\n2.0,1\n\n")
    @example(text="\nx,label\n1.0,0\n")
    @example(text="x,label\n1.0\n2.0,1\n")  # a short row
    @example(text="x,label\n1.0,0,3\n2.0,1\n")  # a long row
    @example(text="x,label,label\n1.0,0,0\n2.0,1,1\n")  # the label column twice
    @example(text="x,label\nnan,0\n")
    @example(text="x,label\n1.0,-inf\n")
    @example(text="x,label\n1e400,0\n")
    @example(text="\ufeffx,label\n1.0,0\n")  # a UTF-8 byte-order mark
    @example(text="\ufefflabel,x\n0,1.0\n")
    @example(text="x,label\n\udcff,0\n")  # not UTF-8
    @example(text="x,label\n0." + "0" * 200_000 + ",0\n")  # over the field limit, finite
    @example(text="x" * 200_000 + ",label\n1.0,0\n")
    @example(text="x\0,label\n1.0,0\n")
    @example(text="x,label\n 1.5 ,0\n-2.25e-3,1\n")
    @example(text="x,y,label\n1,2,0\n3,4,1")  # no final newline
    @example(text="x,label\n")
    @example(text="")
    # What numpy's reader and float() read otherwise: numpy skips a blank
    # line and warns of a file of none but blank rows, and refuses a digit
    # that is not ASCII, which float() reads.
    @example(text="x,label\n\n")
    @example(text="x,label\n#1.0,0\n2.0,1\n")  # a comment line to numpy's defaults
    @example(text="x,label\n1.0,0\n\t\n2.0,1\n")  # a tab-only line
    @example(text="x,label\n\u0661,0\n2.0,1\n")  # an Arabic-Indic digit one
    @example(text="x,label\ninfinity,0\n")
    @example(text="x,label\n0x10,0\n")
    def test_csv_fast_path_matches_the_csv_reader(self, tmp_path_factory, text):
        # The plain-file fast path declines, or gives the csv-module
        # reader's values bit for bit; a dataset read either way gives the
        # reader's result or its error message.
        path = tmp_path_factory.getbasetemp() / "diff.csv"
        path.write_bytes(text.encode("utf-8", "surrogatepass"))

        def by_csv_module():
            points, labels = pipeline._csv_module_table(path, "label")
            return EmpiricalDistribution.from_points(points), labels

        expected = self.outcome(by_csv_module)
        fast = pipeline._plain_csv_table(path, "label")
        if fast is not None:
            assert not isinstance(expected, str), expected
            assert (fast[0].shape, fast[0].tobytes(), fast[1].tobytes()) == expected[:3]
        assert self.outcome(lambda: ingest_dataset(path)) == expected

    def test_plain_csv_takes_the_fast_path(self, tmp_path):
        path = tmp_path / "plain.csv"
        path.write_text("x0,x1,label\n1.5,-2.25e-3,0\n 4 ,1e-310,3\n0.1,-0.0,1\n")
        points, labels = pipeline._plain_csv_table(path, "label")
        np.testing.assert_array_equal(points, [[1.5, -2.25e-3], [4.0, 1e-310], [0.1, -0.0]])
        np.testing.assert_array_equal(labels, [0.0, 3.0, 1.0])

    def test_ingestion_peaks_near_its_file(self, tmp_path):
        # A 20 000 x 9 plain CSV of full-precision floats, about 3 MiB.  Its
        # bytes are checked and let go before numpy parses the file, so
        # the text is never held beside the parsed table, and its newlines
        # are found a slice at a time, so no mask as large as the file is
        # held beside the text (1.15x here).
        rng = np.random.default_rng(5)
        values = rng.normal(size=(20_000, 8))
        labels = rng.integers(0, 4, size=20_000)
        path = tmp_path / "wide.csv"
        path.write_text(",".join(f"x{j}" for j in range(8)) + ",label\n" + "".join(
            ",".join(map(repr, row.tolist())) + f",{label}\n" for row, label in zip(values, labels)
        ))
        assert pipeline._plain_csv_table(path, "label") is not None
        tracemalloc.start()
        try:
            dist, read = ingest_dataset(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * path.stat().st_size
        assert peak <= 1.25 * path.stat().st_size
        np.testing.assert_array_equal(dist.points, values)
        np.testing.assert_array_equal(read, labels)

    @staticmethod
    def domain_bytes(domains):
        return [
            (d.name, d.classes, *(a.tobytes() for a in (
                d.train.points, d.train.weights, d.train_labels,
                d.held_out.points, d.held_out.weights, d.held_out_labels,
            )))
            for d in domains
        ]

    @pytest.mark.parametrize("bad, named", [
        ((), None), ((3,), 3), ((1,), 1), ((1, 2), 1), ((2, 3), 2), ((0, 3), 0),
    ])
    def test_two_processes_read_the_one_process_domains(self, tmp_path, monkeypatch, bad, named):
        # Four files, two per process.  The domains match bit for bit, and
        # a bad file in either half fails naming the first bad file in
        # file order, as one process reads them.
        paths = []
        for k in range(4):
            path = tmp_path / f"d{k}.csv"
            rows = "".join(f"{(i * (k + 3)) % 17 / 4},{i % 3}\n" for i in range(40))
            path.write_text("x,label\n" + ("oops,0\n" if k in bad else "") + rows)
            paths.append(str(path))
        cfg = PipelineConfig.from_dict({
            "mode": "empirical", "out_dir": str(tmp_path / "out"), "empirical": {"datasets": paths},
        })
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        total = sum(os.stat(path).st_size for path in paths)
        outcomes = {}
        for least, workers in ((total + 1, 1), (total, 2)):
            monkeypatch.setattr(pipeline, "_CONCURRENT_MIN_BYTES", least)
            assert pipeline._ingest_workers(paths) == workers
            try:
                outcomes[workers] = self.domain_bytes(pipeline._empirical_domains(cfg))
            except ValueError as err:
                outcomes[workers] = str(err)
        assert outcomes[2] == outcomes[1]
        if named is not None:
            assert outcomes[1] == f"{paths[named]}: line 2, column 'x': could not parse 'oops'"
        assert_no_child_left()

    def test_a_file_that_cannot_be_sized_is_read_on_one_process(self, tmp_path, monkeypatch):
        # The error names the first bad file in file order: the malformed
        # one ahead of the missing one.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr(pipeline, "_CONCURRENT_MIN_BYTES", 0)
        good, bad, last = (tmp_path / f"{name}.csv" for name in ("good", "bad", "last"))
        for path in (good, last):
            path.write_text("x,label\n1.0,0\n2.0,1\n3.0,0\n4.0,1\n")
        bad.write_text("x,label\n1.0\n")
        assert pipeline._ingest_workers([str(good), str(last)]) == 2
        paths = [str(good), str(bad), str(tmp_path / "missing.csv"), str(last)]
        assert pipeline._ingest_workers(paths) == 1
        cfg = PipelineConfig.from_dict({
            "mode": "empirical", "out_dir": str(tmp_path / "out"), "empirical": {"datasets": paths},
        })
        with pytest.raises(ValueError, match=f"^{re.escape(str(bad))}: line 2 has 1 cells"):
            pipeline._empirical_domains(cfg)

    @settings(max_examples=300, deadline=None)
    @given(text=JSON_DOCUMENTS)
    @example(text="[" * 100_000 + "]" * 100_000)  # deeper than the decoder recurses
    @example(text='{"features": [[1.0], [2.0]], "labels": [0, 1], "weights": [1e308, 1e308]}')
    def test_json(self, tmp_path_factory, text):
        self.ingest_or_refuse(tmp_path_factory.getbasetemp() / "fuzz.json", text)


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
        # The closed forms solve and train nothing.
        assert (cfg.ot, cfg.risk_train) == (None, None)
        assert cfg.input_risk_rescale == 1.0
        assert isinstance(cfg.combiner, PolynomialCombiner)
        assert cfg.mode_params["n_pairs"] == 6
        sampled = PipelineConfig.from_dict({"mode": "synthetic_office"})
        assert sampled.divergence_kind is None
        assert sampled.ot == OtConfig(p=1.0)
        assert sampled.risk_train == TrainConfig(epochs=10, learning_rate=0.5)

    @pytest.mark.parametrize(
        "section,combiner",
        [
            ({"form": "linear", "weight": 0.7}, PolynomialCombiner(0.7, 1.0, 1.0)),
            ({"form": "polynomial2", "input_coeff": 0.31, "output_coeff": 0.92, "power": 2.5},
             PolynomialCombiner(0.31, 0.92, 2.5)),
        ],
    )
    def test_combiner_section_round_trip(self, section, combiner):
        # The linear form with weight w is the combiner (w, 1, 1); the echo
        # and the fit-combiner output keep the form's own keys.
        cfg = PipelineConfig.from_dict({"mode": "gaussian_lab", "combiner": section})
        assert cfg.combiner == combiner
        assert cfg.echo["combiner"] == section
        assert pipeline._combiner_section(section["form"], combiner) == section

    def test_train_configs_inherit_run_seed(self):
        cfg = PipelineConfig.from_dict({"mode": "synthetic_office", "seed": 11})
        assert cfg.risk_train.seed == 11

    @pytest.mark.parametrize(
        "raw,key",
        [
            ({"mode": "gaussian_lab", "mystery": 1}, "'mystery'"),
            ({"mode": "gaussian_lab", "combiner": {"form": "linear", "wieght": 1}},
             "'combiner.wieght'"),
            ({"mode": "gaussian_lab", "divergence": {"pp": 2}}, "'divergence.pp'"),
            ({"mode": "synthetic_office", "train": {"lr": 0.1}}, "'train'"),
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
            ({"mode": "gaussian_lab", "divergence": {"p": 3}},
             "divergence.p does not apply to gaussian_lab"),
            ({"mode": "gaussian_lab", "divergence": {"kind": "kl", "p": 1}},
             "divergence.p does not apply to gaussian_lab"),
            ({"mode": "gaussian_lab", "divergence": {"method": "sinkhorn"}},
             "divergence.method does not apply"),
            ({"mode": "gaussian_lab", "divergence": {"sinkhorn_epsilon": 0.1}},
             "divergence.sinkhorn_epsilon does not apply"),
            ({"mode": "gaussian_lab", "divergence": {"sinkhorn_max_iter": 10}},
             "divergence.sinkhorn_max_iter does not apply"),
            ({"mode": "gaussian_lab", "divergence": {"lp_max_support": 10}},
             "divergence.lp_max_support does not apply"),
            ({"mode": "synthetic_office", "divergence": {"kind": "kl"}},
             "divergence.kind does not apply to synthetic_office"),
            ({"mode": "empirical", "divergence": {"kind": "kl"}},
             "divergence.kind does not apply to empirical"),
            ({"mode": "gaussian_lab", "gaussian_lab": {"identical_tasks": "no"}},
             "gaussian_lab.identical_tasks must be true or false, got 'no'"),
            ({"mode": "empirical", "empirical": {"datasets": "ab.csv"}},
             "empirical.datasets must be a list of strings, got 'ab.csv'"),
            ({"mode": "synthetic_office", "risk_train": {"epochs": 2.5}},
             "risk_train.epochs must be an integer, got 2.5"),
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
            ({"mode": "synthetic_office", "divergence": {"p": "two"}},
             "divergence.p has a non-numeric value 'two'"),
            ({"mode": "gaussian_lab", "seed": "x"}, "seed has a non-numeric value 'x'"),
            ({"mode": "gaussian_lab", "seed": -1}, "seed must be >= 0, got -1"),
            ({"mode": "synthetic_office", "risk_train": {"epochs": 0}},
             "risk_train.epochs must be >= 1, got 0"),
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
            ({"mode": "gaussian_lab", "gaussian_lab": {"drift": 1e308}},
             r"gaussian_lab.drift must be at most 8.988465674311579e\+307, so that 2 \* drift "
             r"is finite, got 1e\+308"),
            ({"mode": "empirical", "empirical": {"format": "xml"}},
             r"empirical.format must be one of \('csv', 'json', None\), got 'xml'"),
            ({"mode": "synthetic_office",
              "synthetic_office": {"samples_per_domain": 24, "spread": -1}},
             r"synthetic_office.spread must be >= -1 / \(n_domains - 1\) = -0.5, got -1.0"),
        ],
    )
    def test_invalid_values_rejected(self, raw, message):
        with pytest.raises(ValueError, match=message):
            PipelineConfig.from_dict(raw)

    @pytest.mark.parametrize("raw,message", UNREAD_KEYS)
    def test_keys_the_run_never_reads_rejected(self, raw, message):
        config, flags = split_flags(raw)
        if "--seed" in flags:  # what `trk run --seed` writes into the config
            config["seed"] = flags["--seed"]
        with pytest.raises(ValueError) as caught:
            PipelineConfig.from_dict(config, flags.get("--override-risks"))
        assert str(caught.value) == message

    @pytest.mark.parametrize(
        "key", ["combiner", "divergence", "risk_train", "synthetic_office"]
    )
    def test_non_object_section_rejected(self, key):
        with pytest.raises(ValueError, match=f"^{key} must be a JSON object$"):
            PipelineConfig.from_dict({"mode": "synthetic_office", key: []})

    def test_solver_tables_are_the_library_methods(self):
        assert set(pipeline._SOLVERS) == set(ot_module._METHODS)

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
        assert echo["divergence"] == {"kind": "wasserstein"}
        assert "train" not in echo and "risk_train" not in echo
        assert echo["gaussian_lab"]["identical_tasks"] is False
        sampled = PipelineConfig.from_dict({"mode": "synthetic_office"}).echo
        assert "train" not in sampled
        assert sampled["risk_train"] == {"epochs": 10, "learning_rate": 0.5}

    @pytest.mark.parametrize("mode", ["gaussian_lab", "synthetic_office", "empirical"])
    def test_echoed_divergence_keys_per_mode(self, mode):
        # Each mode's echo holds the divergence keys it reads: gaussian_lab
        # only the metric of its closed forms, a sampled mode only its solver.
        solver = {"p", "method", "sinkhorn_epsilon", "sinkhorn_max_iter", "lp_max_support"}
        expected = {"kind"} if mode == "gaussian_lab" else solver
        assert set(PipelineConfig.from_dict({"mode": mode}).echo["divergence"]) == expected

    def test_identical_tasks_echo_no_drift(self):
        raw = {"mode": "gaussian_lab", "gaussian_lab": {"identical_tasks": True}}
        section = PipelineConfig.from_dict(raw).echo["gaussian_lab"]
        assert section == {"dim": 2, "n_pairs": 6, "identical_tasks": True}

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


GAUSSIAN_TERMS = ("kl_variance", "kl_bias", "w_variance", "w_bias", "regret", "residual")


def gaussian_lab_config(out_dir, **sections):
    raw = {"mode": "gaussian_lab", "seed": 0, "out_dir": str(out_dir), **sections}
    return PipelineConfig.from_dict(raw)


def plant_source(monkeypatch, plants):
    """Make the source of the pair drawn at each seed of `plants` degenerate.

    `zero_variance` zeroes its input-output covariance (so its predictor is
    0), `singular` its input covariance, and `indefinite` sets that to -I.
    """
    draw = pipeline._random_pairs

    def planted(dim, seeds, **kwargs):
        pairs = draw(dim, seeds, **kwargs)
        for seed, plant in plants.items():
            if seed in seeds:
                i = seeds.index(seed)
                if plant == "zero_variance":
                    pairs.cov_xy[0, i] = 0.0
                else:
                    pairs.cov_xx[0, i] = 0.0 if plant == "singular" else -np.eye(dim)
                    pairs.cov_xy[0, i] = 0.0
        return pairs

    monkeypatch.setattr(pipeline, "_random_pairs", planted)


class TestGaussianLabMode:
    def test_identical_tasks_have_zero_risk_everywhere(self, tmp_path):
        for kind, closed_form in (("wasserstein", gaussian_w2), ("kl", gaussian_kl)):
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
            for i, row in enumerate(report["rows"]):
                assert row["accuracy"] is None
                law = random_task(2, 1, seed=3 + i).x_marginal()
                assert row["input_risk"] == closed_form(law, law), kind
                for field in ("input_risk", "transfer_risk"):
                    assert 0.0 <= row[field] < 1e-9, (kind, field, row[field])
                # The closed forms of a pair with itself are exact zeros.
                for field in ("output_risk", *GAUSSIAN_TERMS):
                    assert row[field] == 0.0, (kind, field, row[field])
            assert report["correlations"] is None

    def test_rows_are_internally_consistent(self, random_report):
        combiner = PolynomialCombiner(1.0, 1.0, 2.0)
        for row in random_report["rows"]:
            assert row["transfer_risk"] == combine(
                combiner, row["input_risk"], row["output_risk"]
            )
            assert row["regret"] == pytest.approx(
                row["w_variance"] + row["w_bias"] + row["residual"], abs=1e-9
            )
            assert row["residual"] >= -1e-12
            assert row["input_risk"] > 0.0
            assert row["kl_variance"] >= 0.0
            assert row["kl_bias"] >= 0.0

    @pytest.mark.parametrize("kind", ["wasserstein", "kl"])
    def test_rows_are_the_library_closed_forms(self, tmp_path, kind):
        # Row i is the library's closed forms of pair i, bit for bit, on both
        # sides of a block boundary; the input risk is gaussian_w2 or
        # gaussian_kl of the pair's input laws.
        dim, seed, drift = 40, 11, 0.4
        n_pairs = pipeline._block_pairs(dim) + 3
        cfg = gaussian_lab_config(
            tmp_path, seed=seed, divergence={"kind": kind},
            gaussian_lab={"dim": dim, "n_pairs": n_pairs, "drift": drift},
        )
        rows = run(cfg)["rows"]
        assert len(rows) == n_pairs
        closed_form = gaussian_kl if kind == "kl" else gaussian_w2
        for i, row in enumerate(rows):
            source, target = random_basic_pair(dim, seed + i, drift=drift)
            case = basic_case_risks(source, target)
            risk = case.kl if kind == "kl" else case.w
            assert (
                row["kl_variance"], row["kl_bias"], row["w_variance"], row["w_bias"],
                row["regret"], row["residual"], row["output_risk"], row["input_risk"],
            ) == (
                case.kl.variance_term, case.kl.bias_term, case.w.variance_term,
                case.w.bias_term, case.regret, case.residual, risk.total,
                closed_form(target.x_marginal(), source.x_marginal()),
            ), i

    def test_rows_are_stable_under_a_growing_prefix(self, tmp_path):
        dim = 40
        block = pipeline._block_pairs(dim)
        reports = [
            run(gaussian_lab_config(tmp_path / str(n), gaussian_lab={"dim": dim, "n_pairs": n}))
            for n in (3, block + 2, 2 * block + 1)
        ]
        longest = reports[-1]["rows"]
        for report in reports[:-1]:
            assert report["rows"] == longest[: len(report["rows"])]

    @pytest.mark.parametrize(
        "plant,message",
        [
            ("zero_variance",
             "degenerate prediction law: a predictor has zero variance on the target inputs"),
            ("singular", "input covariance is singular; the optimal model is not unique"),
            ("indefinite", "joint covariance is not PSD: min eigenvalue -1.000e+00"),
        ],
    )
    def test_degenerate_pair_is_named(self, tmp_path, monkeypatch, plant, message):
        # A degenerate source planted mid-block fails the block; the error
        # names that pair with the message it gives on its own.
        dim, seed, bad = 3, 50, 6
        plant_source(monkeypatch, {seed + bad: plant})
        cfg = gaussian_lab_config(tmp_path, seed=seed, gaussian_lab={"dim": dim, "n_pairs": 10})
        assert pipeline._block_pairs(dim) > 10
        with pytest.raises(ValueError) as caught:
            run(cfg)
        assert str(caught.value) == f"task_{bad}: {message}"

    def test_first_failing_pair_is_named_through_the_cli(self, tmp_path, capsys, monkeypatch):
        # Pair 7 fails the carrier check, which runs first on the block, but
        # pair 4, failing later in the closed forms, comes first.
        plant_source(monkeypatch, {4: "zero_variance", 7: "indefinite"})
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "mode": "gaussian_lab", "seed": 0, "out_dir": str(tmp_path / "out"),
            "gaussian_lab": {"dim": 2, "n_pairs": 9},
        }))
        assert main(["run", "--config", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert [json.loads(line) for line in captured.err.splitlines()] == [{
            "error": "task_4: degenerate prediction law: a predictor has zero variance on "
            "the target inputs"
        }]
        assert not (tmp_path / "out").exists()

    def test_a_drift_past_half_the_float_range_is_one_json_line(self, tmp_path, capsys):
        # 2 * drift overflows, which numpy's uniform would raise as an
        # OverflowError traceback; the config refuses it first.
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "mode": "gaussian_lab", "out_dir": str(tmp_path / "out"),
            "gaussian_lab": {"dim": 3, "n_pairs": 5, "drift": 1e308},
        }))
        assert main(["run", "--config", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert [json.loads(line) for line in captured.err.splitlines()] == [{
            "error": f"{path}: gaussian_lab.drift must be at most 8.988465674311579e+307, "
            "so that 2 * drift is finite, got 1e+308"
        }]
        assert not (tmp_path / "out").exists()

    def test_block_working_set_stays_within_budget(self, tmp_path):
        # 64-D pairs: the arrays of one block stay within the byte budget
        # (the rows, a few KiB, ride on top).
        dim = 64
        block = pipeline._block_pairs(dim)
        assert 1 < block < 20
        n_pairs = 2 * block + 1
        cfg = gaussian_lab_config(tmp_path, gaussian_lab={"dim": dim, "n_pairs": n_pairs})
        pipeline._gaussian_half(cfg, range(n_pairs))  # warm numpy's caches before measuring
        tracemalloc.start()
        try:
            rows = pipeline._gaussian_half(cfg, range(n_pairs))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(rows) == n_pairs
        assert peak <= pipeline._BLOCK_BYTES + 64 * 2**10

    def test_pair_over_budget_runs_as_a_block_of_one(self, tmp_path, monkeypatch):
        cfg = gaussian_lab_config(tmp_path, gaussian_lab={"dim": 8, "n_pairs": 4})
        expected = pipeline._gaussian_half(cfg, range(4))
        monkeypatch.setattr(pipeline, "_BLOCK_BYTES", 1024)
        assert pipeline._block_pairs(8) == 1
        assert pipeline._gaussian_half(cfg, range(4)) == expected

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

    def test_each_pair_checks_two_joints_and_solves_two_models(self, tmp_path, monkeypatch):
        # A block checks the 2 * n joints of its n pairs in one stacked PSD
        # check (eigvalsh) and solves their 2 * n optimal models in two
        # stacked solves; it builds no law, so no carrier is validated again.
        from trk import distributions, gaussian_lab

        checked, solved, laws = [], [], []
        eigvalsh, weights = np.linalg.eigvalsh, gaussian_lab._regression_weights

        def counted_eigvalsh(mats):
            checked.append(mats.shape[:-2])
            return eigvalsh(mats)

        def counted_weights(cov_xx, cov_xy):
            solved.append(cov_xx.shape[:-2])
            return weights(cov_xx, cov_xy)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted_eigvalsh)
        monkeypatch.setattr(gaussian_lab, "_regression_weights", counted_weights)
        for carrier in (distributions.GaussianND, distributions.GaussianJoint):
            init = carrier.__post_init__
            monkeypatch.setattr(
                carrier, "__post_init__", lambda law, init=init: laws.append(law) or init(law)
            )
        n_pairs = 5
        run(gaussian_lab_config(tmp_path, gaussian_lab={"dim": 3, "n_pairs": n_pairs}))
        assert checked == [(2, n_pairs)]
        assert solved == [(n_pairs,), (n_pairs,)]
        assert laws == []


def force_gaussian_workers(monkeypatch, workers):
    """Compute every gaussian_lab run's rows on `workers` processes, whatever its size."""
    monkeypatch.setattr(pipeline, "_gaussian_workers", lambda params: workers)


class TestGaussianLabProcesses:
    """A gaussian_lab run on two processes is its one-process run."""

    @pytest.mark.parametrize("kind", ["kl", "wasserstein"])
    @pytest.mark.parametrize("identical", [False, True])
    def test_two_processes_give_the_one_process_outputs(
        self, tmp_path, monkeypatch, kind, identical
    ):
        # Blocks of 4 pairs: the second half starts at pair 7, mid-block.
        # Each process renders its own rows, so the files are compared as bytes.
        monkeypatch.setattr(pipeline, "_BLOCK_BYTES", 4 * 10 * 8 * 5**2)
        assert pipeline._block_pairs(4) == 4
        outputs = {}
        for workers in (1, 2):
            force_gaussian_workers(monkeypatch, workers)
            cfg = gaussian_lab_config(
                tmp_path, seed=7, divergence={"kind": kind},
                gaussian_lab={"dim": 4, "n_pairs": 13, "identical_tasks": identical},
            )
            report = run(cfg)
            assert report["workers"] == workers
            text = (cfg.out_dir / "report.json").read_text()
            # The only entries the process count or the clock change.
            text, timed = re.subn(r'\n  "timings": \{\n    "pairs": [^\n]+\n  \},', "", text)
            text, counted = re.subn(f',\n  "workers": {workers}\n}}\n$', "\n}\n", text)
            assert (timed, counted) == (1, 1)
            outputs[workers] = (report["rows"], (cfg.out_dir / "pairs.csv").read_bytes(), text)
        assert outputs[2] == outputs[1]
        assert len(outputs[1][0]) == 13
        assert_no_child_left()

    @pytest.mark.parametrize(
        "plants,named",
        [
            ({9: "zero_variance"}, 9),  # in the child's half, mid-block
            ({11: "indefinite"}, 11),
            ({5: "singular", 9: "indefinite"}, 5),  # one in each half: the parent's
        ],
    )
    def test_a_failing_pair_is_named_as_on_one_process(
        self, tmp_path, monkeypatch, plants, named
    ):
        monkeypatch.setattr(pipeline, "_BLOCK_BYTES", 4 * 10 * 8 * 4**2)
        seed = 30
        plant_source(monkeypatch, {seed + i: plant for i, plant in plants.items()})
        errors = {}
        for workers in (1, 2):
            force_gaussian_workers(monkeypatch, workers)
            cfg = gaussian_lab_config(
                tmp_path, seed=seed, gaussian_lab={"dim": 3, "n_pairs": 14}
            )
            with pytest.raises(ValueError) as caught:
                run(cfg)
            errors[workers] = str(caught.value)
        assert errors[2] == errors[1]
        assert errors[1].startswith(f"task_{named}: ")
        assert not (tmp_path / "report.json").exists()
        assert_no_child_left()

    def test_a_child_that_ends_without_a_result_names_its_pairs(self, tmp_path, monkeypatch):
        rows, parent = pipeline._gaussian_rows, os.getpid()

        def die_in_the_child(*args):
            if os.getpid() != parent:
                os._exit(3)
            return rows(*args)

        monkeypatch.setattr(pipeline, "_gaussian_rows", die_in_the_child)
        force_gaussian_workers(monkeypatch, 2)
        cfg = gaussian_lab_config(tmp_path, gaussian_lab={"dim": 2, "n_pairs": 13})
        with pytest.raises(RuntimeError) as caught:
            run(cfg)
        assert str(caught.value) == (
            "the process for pairs task_7..task_12 ended without a result (exit code 3)"
        )
        assert_no_child_left()

    def test_workers_follow_the_crossover_the_dim_and_the_fork_rule(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        least, widest = pipeline._CONCURRENT_MIN_PAIRS, pipeline._CONCURRENT_MAX_DIM
        assert pipeline._gaussian_workers({"n_pairs": least, "dim": widest}) == 2
        assert pipeline._gaussian_workers({"n_pairs": least - 1, "dim": 2}) == 1
        assert pipeline._gaussian_workers({"n_pairs": least, "dim": widest + 1}) == 1
        # The fit schedule's rule: one CPU, or another Python thread, forks nothing.
        params = {"n_pairs": least, "dim": 8}
        with monkeypatch.context() as patch:
            patch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
            assert pipeline._gaussian_workers(params) == 1
        release = threading.Event()
        thread = threading.Thread(target=release.wait, args=(30,))
        thread.start()
        try:
            assert pipeline._gaussian_workers(params) == 1
        finally:
            release.set()
            thread.join(timeout=30)
        assert not thread.is_alive()
        assert pipeline._gaussian_workers(params) == 2

    def test_the_crossover_gives_the_one_cpu_pairs(self, tmp_path, monkeypatch):
        # Unforced, at the crossover: one CPU (`taskset -c 0`) forks nothing,
        # and two run the pairs on two processes.
        def no_fork():
            raise AssertionError("forked")

        n_pairs = pipeline._CONCURRENT_MIN_PAIRS
        tables = {}
        for cpus in ({0}, {0, 1}):
            with monkeypatch.context() as patch:
                patch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
                if len(cpus) == 1:
                    patch.setattr(os, "fork", no_fork)
                out = tmp_path / str(len(cpus))
                report = run(gaussian_lab_config(out, gaussian_lab={"dim": 2, "n_pairs": n_pairs}))
            assert report["workers"] == len(cpus)
            tables[len(cpus)] = (out / "pairs.csv").read_bytes()
        assert tables[2] == tables[1]
        assert_no_child_left()


class TestEmpiricalOverride:
    def make_config(self, tmp_path, table):
        raw = {"mode": "empirical", "out_dir": str(tmp_path / "out"), "combiner": STUDY_COMBINER}
        return PipelineConfig.from_dict(raw, override_risks=table)

    def test_reproduces_study_transfer_risks(self, tmp_path):
        table = write_study_table(tmp_path / "table.csv")
        report = run(self.make_config(tmp_path, table))
        got = [row["transfer_risk"] for row in report["rows"]]
        assert got == STUDY_COMBINED
        assert report["correlations"]["spearman"] == -1.0
        assert report["correlations"]["pearson"] == pytest.approx(STUDY_PEARSON, abs=1e-12)

    @pytest.mark.parametrize("source", ["synthetic_office", "empirical", "gaussian_lab", "table"])
    def test_rescale_scales_input_risk_before_combining(self, tmp_path, monkeypatch, source):
        # Every mode forms its rows one way: the measured input risk times
        # input_risk_rescale, combined with the output risk.
        measured = []
        evaluate = pipeline.evaluate_risk_accuracy_pairs

        def recorded(*args):
            results = evaluate(*args)
            measured.extend(r.input_risk for r in results)
            return results

        monkeypatch.setattr(pipeline, "evaluate_risk_accuracy_pairs", recorded)
        raw = {
            "mode": source, "seed": 3, "out_dir": str(tmp_path / "out"),
            "combiner": STUDY_COMBINER, "input_risk_rescale": 0.37,
        }
        table = None
        if source == "synthetic_office":
            raw["synthetic_office"] = {"samples_per_domain": 24}
        elif source == "empirical":
            datasets = [write_blob_csv(tmp_path / f"d{k}.csv", 0.6 * k, k) for k in range(3)]
            raw["empirical"] = {"datasets": [str(path) for path in datasets]}
        elif source == "gaussian_lab":
            raw["gaussian_lab"] = {"dim": 3, "n_pairs": 4}
        else:
            raw["mode"] = "empirical"
            del raw["seed"]  # a risk table draws nothing
            table = write_study_table(tmp_path / "table.csv")
            measured = [e_in for _, _, e_in, _, _ in STUDY_ROWS]
        cfg = PipelineConfig.from_dict(raw, override_risks=table)
        if source == "gaussian_lab":
            for i in range(4):
                task_s, task_t = random_basic_pair(3, seed=3 + i, drift=0.25)
                measured.append(
                    input_risk(task_t.x_marginal(), task_s.x_marginal(), cfg=OtConfig(p=2.0))
                )
        rows = run(cfg)["rows"]
        assert len(rows) == len(measured) >= 4
        for row, e_in in zip(rows, measured):
            assert row["input_risk"] == 0.37 * e_in
            assert row["transfer_risk"] == combine(
                cfg.combiner, row["input_risk"], row["output_risk"]
            )

    def test_config_holds_only_what_the_run_reads(self, tmp_path):
        # The table replaces the datasets, the solves and the training.
        table = write_study_table(tmp_path / "table.csv")
        cfg = self.make_config(tmp_path, table)
        assert (cfg.seed, cfg.ot, cfg.risk_train) == (None, None, None)
        assert cfg.mode_params == {}
        assert set(cfg.echo) == {"combiner", "input_risk_rescale", "mode", "out_dir"}
        assert set(run(cfg)["config"]) == set(cfg.echo)

    def test_without_accuracy_column_values(self, tmp_path):
        table = write_study_table(tmp_path / "table.csv", with_accuracy=False)
        report = run(self.make_config(tmp_path, table))
        assert all(row["accuracy"] is None for row in report["rows"])
        assert report["correlations"] is None

    def test_missing_columns_rejected(self, tmp_path):
        table = tmp_path / "short.csv"
        table.write_text("source,target,input_risk\nA,B,0.1\n")
        with pytest.raises(ValueError, match="needs columns"):
            run(self.make_config(tmp_path, table))

    def test_non_numeric_risk_names_line(self, tmp_path):
        table = tmp_path / "bad.csv"
        table.write_text(
            "source,target,input_risk,output_risk\nA,B,0.1,0.2\nB,A,oops,0.2\n"
        )
        with pytest.raises(ValueError, match="line 3, column 'input_risk': could not parse 'oops'"):
            run(self.make_config(tmp_path, table))

    def test_pair_table_quotes_names(self, tmp_path):
        names = [("a,b", 'say "hi"'), ("c->d", "e")]
        table = tmp_path / "table.csv"
        with open(table, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["source", "target", "input_risk", "output_risk"])
            writer.writerows([source, target, 0.1, 0.2] for source, target in names)
        cfg = self.make_config(tmp_path, table)
        report = run(cfg)
        with open(cfg.out_dir / "pairs.csv", newline="") as handle:
            lines = list(csv.reader(handle))
        assert lines[0] == ["source", "target", "accuracy", "input_risk", "output_risk",
                            "transfer_risk"]
        assert len(lines) == 3
        for line, row, (source, target) in zip(lines[1:], report["rows"], names):
            assert line[:3] == [source, target, ""]
            assert (row["source"], row["target"]) == (source, target)
            assert [float(cell) for cell in line[3:]] == [
                row["input_risk"], row["output_risk"], row["transfer_risk"]
            ]

    def test_empty_table_rejected(self, tmp_path):
        table = tmp_path / "empty.csv"
        table.write_text("source,target,input_risk,output_risk,accuracy\n")
        with pytest.raises(ValueError, match="no rows"):
            run(self.make_config(tmp_path, table))


# Small integers give ties; the floats span magnitudes.
CORRELATION_VALUES = st.one_of(
    st.integers(-3, 3).map(float),
    st.floats(-1e6, 1e6, allow_nan=False, allow_subnormal=False),
)


class TestCorrelations:
    """The report's numpy correlations against scipy.stats as the oracle."""

    @settings(max_examples=300, deadline=None)
    @given(
        pair=st.integers(3, 12).flatmap(
            lambda n: st.tuples(*[st.lists(CORRELATION_VALUES, min_size=n, max_size=n)] * 2)
        )
    )
    @example(pair=([1.0, 2.0, 3.0], [4.0, 5.0, 9.0]))
    @example(pair=([1.0, 2.0, 3.0], [0.3, 0.2, 0.1]))
    @example(pair=([1.0, 1.0, 2.0, 2.0], [5.0, 5.0, 5.0, 7.0]))
    def test_match_scipy(self, pair):
        x, y = (np.array(v) for v in pair)
        assume(not np.all(x == x[0]) and not np.all(y == y[0]))  # undefined, reported as None
        np.testing.assert_array_equal(pipeline._average_ranks(x), stats.rankdata(x))
        with warnings.catch_warnings():
            # scipy flags nearly constant inputs; the arithmetic compared is the same.
            warnings.simplefilter("ignore", stats.NearConstantInputWarning)
            pearson = float(stats.pearsonr(x, y).statistic)
        assert pipeline._spearman(x, y) == float(stats.spearmanr(x, y).statistic)
        assert pipeline._pearson(x, y) == pytest.approx(pearson, rel=1e-12)

    @pytest.mark.parametrize("n", [3, 5, 6, 40])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_monotone_pairs(self, n, sign):
        # Rounding leaves some of these a hair inside +-1, in scipy as here.
        x = np.random.default_rng(n).normal(size=n)
        y = sign * np.exp(3.0 * x)
        assert pipeline._spearman(x, y) == float(stats.spearmanr(x, y).statistic)
        assert pipeline._spearman(x, y) == pytest.approx(sign, abs=1e-15)
        assert pipeline._pearson(x, y) == pytest.approx(
            float(stats.pearsonr(x, y).statistic), rel=1e-12
        )


class TestEmpiricalDatasets:
    def make_config(self, tmp_path, datasets, seed=1):
        return PipelineConfig.from_dict(
            {
                "mode": "empirical",
                "seed": seed,
                "out_dir": str(tmp_path / f"out{seed}"),
                "empirical": {"datasets": [str(p) for p in datasets]},
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

    def test_duplicate_file_stems_rejected(self, tmp_path):
        (tmp_path / "d1").mkdir()
        (tmp_path / "d2").mkdir()
        first = write_blob_csv(tmp_path / "d1" / "x.csv", offset=0.0, seed=0)
        second = write_blob_csv(tmp_path / "d2" / "x.csv", offset=1.2, seed=1)
        with pytest.raises(ValueError, match="share the file stem 'x'") as caught:
            run(self.make_config(tmp_path, [first, second]))
        assert str(first) in str(caught.value) and str(second) in str(caught.value)

    def test_fractional_labels_rejected(self, tmp_path):
        # Integrality is exact: 3.00002 and 100000.4 are within np.allclose's
        # rtol of an integer, and the second would size 100 001 classes.
        other = write_blob_csv(tmp_path / "beta.csv", offset=0.0, seed=1)
        for label in ("0.5", "3.00002", "100000.4"):
            path = tmp_path / "frac.csv"
            rows = "".join(f"{v},{v % 2}\n" for v in range(5))
            path.write_text(f"x,label\n{rows}5,{label}\n")
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


class TestReportWriter:
    """report.json holds the bytes of `json.dumps(report, indent=2, sort_keys=True)` + newline."""

    @staticmethod
    def assert_indented_json(out_dir):
        text = (out_dir / "report.json").read_text(encoding="ascii")
        assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"
        return json.loads(text)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_gaussian_lab(self, tmp_path, monkeypatch, workers):
        force_gaussian_workers(monkeypatch, workers)
        cfg = gaussian_lab_config(tmp_path, gaussian_lab={"dim": 3, "n_pairs": 9})
        report = run(cfg)
        assert self.assert_indented_json(tmp_path)["rows"] == report["rows"]

    def test_synthetic_office(self, office_report):
        report, cfg = office_report
        assert self.assert_indented_json(cfg.out_dir)["rows"] == report["rows"]

    def test_empirical_with_a_stem_that_looks_like_json(self, tmp_path):
        # The stem holds a comma, a double quote, a non-ASCII letter and the
        # text of the line the rows are spliced in at.
        odd = write_blob_csv(tmp_path / 'x,"rows": [],é.csv', 0.0, 1)
        plain = write_blob_csv(tmp_path / "plain.csv", 0.6, 2)
        cfg = PipelineConfig.from_dict({
            "mode": "empirical", "out_dir": str(tmp_path / "out"),
            "empirical": {"datasets": [str(odd), str(plain)]},
            "risk_train": {"epochs": 1},
        })
        report = run(cfg)
        on_disk = self.assert_indented_json(cfg.out_dir)
        assert on_disk["rows"] == report["rows"]
        assert [row["source"] for row in on_disk["rows"]] == ['x,"rows": [],é', "plain"]

    def test_override_risks(self, tmp_path):
        table = write_study_table(tmp_path / "table.csv")
        cfg = PipelineConfig.from_dict(
            {"mode": "empirical", "out_dir": str(tmp_path / "out")}, override_risks=table
        )
        report = run(cfg)
        assert self.assert_indented_json(cfg.out_dir)["rows"] == report["rows"]


class TestFitCombiner:
    def test_recovers_linear_relationship(self):
        rng = np.random.default_rng(5)
        e_in = rng.uniform(0.1, 1.0, size=12)
        e_out = np.full(12, 0.3)
        rows = [(i, o, 1.0 - i) for i, o in zip(e_in, e_out)]
        combiner, corr = fit_combiner(rows, "linear")
        assert (combiner.output_coeff, combiner.power) == (1.0, 1.0)  # the linear form
        assert combiner.input_coeff > 0.0
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

    def test_huge_risks_do_not_overflow_the_score(self):
        # The output risk 1e160 dominates every linear combination, so all
        # weights tie at the combined risk's |r| with accuracy.
        rows = [(0.1, 1e160, 0.5), (0.2, 0.3, 0.6), (0.3, 0.1, 0.7)]
        combiner, corr = fit_combiner(rows, "linear")
        assert combiner.input_coeff == 0.0
        expected = abs(stats.pearsonr([1e160, 0.3, 0.1], [0.5, 0.6, 0.7]).statistic)
        assert corr == pytest.approx(expected, rel=1e-12)

    def test_skips_constant_combiners(self):
        rows = [(0.4, 0.2, 0.1), (0.4, 0.2, 0.5), (0.4, 0.2, 0.9)]
        with pytest.raises(ValueError, match="no grid combiner gave finite, non-constant"):
            fit_combiner(rows, "polynomial2")

    @pytest.mark.parametrize("bad", [NAN, INF, -0.1])
    def test_bad_risks_name_their_row(self, bad):
        rows = [(0.1, 0.2, 0.5), (0.2, bad, 0.6), (0.3, 0.4, 0.7)]
        with pytest.raises(ValueError, match=r"^row 1: risks must be finite and nonnegative"):
            fit_combiner(rows, "linear")

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
        for grid_max in (0.0, NAN, INF):
            with pytest.raises(ValueError, match="grid_size must be >= 2 and grid_max"):
                fit_combiner(rows, "linear", grid_max=grid_max)


# Each file holds one bad value that ingest-check must reject naming its place.
BAD_DATASETS = [
    ("nan_feature.csv", "x,label\n1.0,0\nnan,1\n",
     "line 3, column 'x': non-finite value 'nan'"),
    ("inf_label.csv", "x,label\n1.0,0\n2.0,inf\n",
     "line 3, column 'label': non-finite value 'inf'"),
    ("label_only.csv", "label\n0\n1\n", "no feature columns besides 'label'"),
    ("repeated_label.csv", "x,label,label\n1.0,0,0\n2.0,1,1\n",
     "header repeats column 'label'"),
    ("underscore_feature.csv", "x,label\n1_0,0\n2.0,1\n",
     "line 2, column 'x': could not parse '1_0'"),
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
    ("repeated_features.json",
     '{"features": [[1.0], [2.0]], "labels": [0, 1], "features": [[5.0, 6.0], [7.0, 8.0]]}',
     "JSON object repeats key 'features'"),
]


# Each table holds one bad cell that the command must reject naming its file,
# and its line and column where the cell could be split from the file.  Lone
# surrogates are written as the bytes they escape, which are not UTF-8.
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
    ("override_long_row", "run",
     "source,target,input_risk,output_risk,accuracy\nA,B,0.1,0.2,0.5,99\n",
     "line 2 has 6 cells, expected at most 5"),
    ("override_repeated_column", "run",
     "source,target,input_risk,output_risk,input_risk\nA,B,0.1,0.2,0.3\n",
     "header repeats column 'input_risk'"),
    ("override_negative", "run", "source,target,input_risk,output_risk\nA,B,-0.1,0.2\n",
     "line 2, column 'input_risk': negative risk -0.1"),
    ("override_underscore", "run", "source,target,input_risk,output_risk\nA,B,1_0,0.2\n",
     "line 2, column 'input_risk': could not parse '1_0'"),
    ("override_over_field_limit", "run",
     "source,target,input_risk,output_risk\nA,B," + "1" * 200_000 + ",0.2\n",
     "line 2: field larger than field limit (131072)"),
    ("override_not_utf8", "run", "source,target,input_risk,output_risk\nA,B,\udcff,0.2\n",
     "not UTF-8 text"),
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
    ("fit_long_row", "fit-combiner",
     "input_risk,output_risk,accuracy\n0.1,0.2,0.5\n0.2,0.3,0.6,99\n0.3,0.4,0.7\n",
     "line 3 has 4 cells, expected at most 3"),
    ("fit_over_field_limit", "fit-combiner",
     "input_risk,output_risk,accuracy\n0.1,0.2,0.5\n" + "1" * 200_000 + ",0.3,0.6\n0.3,0.4,0.7\n",
     "line 3: field larger than field limit (131072)"),
    ("fit_not_utf8", "fit-combiner",
     "input_risk,output_risk,accuracy\n0.1,0.2,0.5\n\udcff,0.3,0.6\n0.3,0.4,0.7\n",
     "not UTF-8 text"),
]


# Config files `trk run --config` must refuse naming the file, as bytes.
BAD_CONFIG_FILES = [
    ("truncated", b'{"mode": "gaussian_lab", "se', "invalid JSON at line 1"),
    ("not_utf8", b'\xff{"mode": "gaussian_lab"}', "not UTF-8 text"),
    ("too_deep", b"[" * 100_000 + b"]" * 100_000, "JSON nested too deeply"),
    ("not_an_object", b"[1]", "config root must be a JSON object"),
    ("unknown_key", b'{"mode": "gaussian_lab", "bogus": 1}', "unknown config key 'bogus'"),
    ("repeated_key", b'{"mode": "gaussian_lab", "seed": 1, "seed": 2}',
     "JSON object repeats key 'seed'"),
]


class TestCli:
    def run_config(self, tmp_path, **extra):
        raw = {"mode": "gaussian_lab", "out_dir": str(tmp_path / "out"), **extra}
        if raw["mode"] == "gaussian_lab":  # an empirical config here is for --override-risks
            raw |= {"seed": 2, "gaussian_lab": {"dim": 2, "n_pairs": 2}}
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

    @pytest.mark.parametrize("mode", ["gaussian_lab", "synthetic_office"])
    def test_override_risks_outside_empirical_rejected(self, tmp_path, capsys, mode):
        config = self.run_config(tmp_path, mode=mode)
        argv = ["run", "--config", str(config), "--override-risks", str(tmp_path / "none.csv")]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == (
            f"{config}: --override-risks applies only to empirical mode, got {mode}"
        )
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "section,value",
        [
            ("divergence", {"method": "sinkhorn"}),
            ("risk_train", {"learning_rate": 9}),
            ("empirical", {"datasets": ["a.csv", "b.csv"]}),
        ],
    )
    def test_override_risks_refuses_unread_sections(self, tmp_path, capsys, section, value):
        config = self.run_config(tmp_path, mode="empirical", **{section: value})
        argv = ["run", "--config", str(config), "--override-risks", str(tmp_path / "none.csv")]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0]) == {
            "error": f"{config}: {section} does not apply to --override-risks"
        }
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["run", "fit-combiner"])
    def test_a_spaced_risk_table_header_reads_as_the_plain_one(self, tmp_path, capsys, command):
        outputs = []
        for name, separator in (("plain", ","), ("spaced", " , ")):
            (tmp_path / name).mkdir()
            table = write_study_table(tmp_path / name / "table.csv")
            head, body = table.read_text().split("\n", 1)
            table.write_text(separator.join(head.split(",")) + "\n" + body)
            if command == "run":
                config = self.run_config(tmp_path / name, mode="empirical", combiner=STUDY_COMBINER)
                assert main(["run", "--config", str(config), "--override-risks", str(table)]) == 0
                capsys.readouterr()
                outputs.append((tmp_path / name / "out" / "pairs.csv").read_bytes())
            else:
                assert main(["fit-combiner", "--rows", str(table), "--form", "polynomial2"]) == 0
                outputs.append(capsys.readouterr().out)
        assert outputs[1] == outputs[0]

    def test_fit_combiner_prints_fit(self, tmp_path, capsys):
        table = write_study_table(tmp_path / "rows.csv")
        assert main(["fit-combiner", "--rows", str(table), "--form", "polynomial2"]) == 0
        fitted = json.loads(capsys.readouterr().out)
        assert fitted["combiner"]["form"] == "polynomial2"
        assert fitted["correlation"] >= abs(STUDY_PEARSON)

    def test_fit_combiner_linear_prints_form_and_weight(self, tmp_path, capsys):
        table = write_study_table(tmp_path / "rows.csv")
        assert main(["fit-combiner", "--rows", str(table), "--form", "linear"]) == 0
        fitted = json.loads(capsys.readouterr().out)["combiner"]
        assert sorted(fitted) == ["form", "weight"]
        assert fitted["form"] == "linear"

    def test_fit_combiner_skips_overflowing_candidates(self, tmp_path, capsys):
        # (1e154)^2 is finite, so candidates with output_coeff below ~1.79
        # score; the overflowing rest are skipped instead of aborting the fit.
        table = tmp_path / "rows.csv"
        table.write_text(
            "input_risk,output_risk,accuracy\n0.1,1e154,0.5\n0.2,0.3,0.6\n0.3,0.1,0.7\n"
        )
        assert main(["fit-combiner", "--rows", str(table), "--form", "polynomial2"]) == 0
        fitted = json.loads(capsys.readouterr().out)
        assert fitted["combiner"]["form"] == "polynomial2"
        assert fitted["correlation"] == pytest.approx(1.0, abs=1e-12)

    def test_fit_combiner_with_every_candidate_overflowing_fails(self, tmp_path, capsys):
        # (1e160)^2 overflows before any coefficient applies.
        table = tmp_path / "rows.csv"
        table.write_text(
            "input_risk,output_risk,accuracy\n0.1,1e160,0.5\n0.2,0.3,0.6\n0.3,0.1,0.7\n"
        )
        assert main(["fit-combiner", "--rows", str(table), "--form", "polynomial2"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0]) == {
            "error": "no grid combiner gave finite, non-constant combined risks"
        }

    def test_memory_error_is_one_json_line(self, tmp_path, capsys, monkeypatch):
        # Simulated: a real allocation this large could succeed on a big host.
        def out_of_memory(*args, **kwargs):
            raise MemoryError("Unable to allocate 8.00 GiB for an array")

        monkeypatch.setattr("trk.cli.run", out_of_memory)
        assert main(["run", "--config", str(self.run_config(tmp_path))]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0]) == {"error": "Unable to allocate 8.00 GiB for an array"}

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

    @pytest.mark.parametrize("name", ["data.tsv", "data"])
    def test_unknown_dataset_format_names_the_file(self, tmp_path, capsys, name):
        path = tmp_path / name
        if name == "data":
            path.mkdir()
        else:
            path.write_text("x\tlabel\n1.0\t0\n")
        assert main(["ingest-check", "--path", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        suffix = path.suffix.lstrip(".")
        assert json.loads(lines[0]) == {
            "error": f"{path}: format must be 'csv' or 'json', got {suffix!r}"
        }

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

    def test_ingest_check_refusal_has_no_traceback(self, tmp_path):
        # A cell over the csv module's field size limit used to escape as a
        # traceback; the child process shows all of stderr.
        path = tmp_path / "wide.csv"
        path.write_text("x,label\n" + "1" * 200_000 + ",0\n")
        src = str(Path(trk.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, "-m", "trk.cli", "ingest-check", "--path", str(path)],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 1
        assert done.stdout == ""
        lines = done.stderr.splitlines()
        assert len(lines) == 1, done.stderr
        assert json.loads(lines[0]) == {
            "error": f"{path}: line 2: field larger than field limit (131072)"
        }

    @pytest.mark.parametrize(
        "name,command,body,where", BAD_NUMBER_TABLES, ids=[c[0] for c in BAD_NUMBER_TABLES]
    )
    def test_bad_number_cells_rejected(self, tmp_path, capsys, name, command, body, where):
        table = tmp_path / f"{name}.csv"
        table.write_bytes(body.encode("utf-8", "surrogateescape"))
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

    @pytest.mark.parametrize(
        "name,body,where", BAD_CONFIG_FILES, ids=[c[0] for c in BAD_CONFIG_FILES]
    )
    def test_bad_config_file_is_named(self, tmp_path, capsys, name, body, where):
        config = tmp_path / f"{name}.json"
        config.write_bytes(body)
        assert main(["run", "--config", str(config)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0]) == {"error": f"{config}: {where}"}

    def test_bad_seed_flag_does_not_name_the_file(self, tmp_path, capsys):
        config = self.run_config(tmp_path)
        assert main(["run", "--config", str(config), "--seed", "-1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0]) == {"error": "seed must be >= 0, got -1"}
        assert not (tmp_path / "out").exists()

    def test_missing_file_fails_cleanly(self, tmp_path, capsys):
        assert main(["run", "--config", str(tmp_path / "nope.json")]) == 1
        assert "error" in json.loads(capsys.readouterr().err)

    def test_runtime_failure_fails_cleanly(self, tmp_path, capsys):
        # The source head of `near` is sound, but its logits overflow on
        # the points of `far`, some 1e308 away; a non-finite representation
        # once surfaced as a NaN objective or as a bad-input error.
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({
            "mode": "empirical",
            "out_dir": str(tmp_path / "out"),
            "empirical": {"datasets": [
                str(write_line_csv(tmp_path / "near.csv", 1.0, 0)),
                str(write_line_csv(tmp_path / "far.csv", 5e307, 1)),
            ]},
        }))
        for seed in (0, 2):
            assert main(["run", "--config", str(config), "--seed", str(seed)]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            lines = captured.err.splitlines()
            assert len(lines) == 1
            assert json.loads(lines[0])["error"] == (
                "source head of near->far diverged: non-finite representation of the target points"
            )

    # A case found by running seeds 0-11 with the learning rate at 1e308.
    @pytest.mark.parametrize("section,settings,seed,error", [
        ("risk_train", {"epochs": 3}, 1,
         "output map of domain_a->domain_c: objective became inf at epoch 1"),
    ])
    def test_divergence_names_the_head(self, tmp_path, capsys, section, settings, seed, error):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({
            "mode": "synthetic_office",
            "out_dir": str(tmp_path / "out"),
            section: {"learning_rate": 1e308, **settings},
            "synthetic_office": {"samples_per_domain": 24},
        }))
        assert main(["run", "--config", str(config), "--seed", str(seed)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == error
        assert not (tmp_path / "out").exists()

    # A 6-row set whose last three rows weigh nothing, split at each seed.
    @pytest.mark.parametrize("seed,error", [
        (1, "the training half drawn at seed 1 holds fewer than 2 classes"),
        (4, "the held-out half drawn at seed 4 has total weight 0"),
        (72, "the training half drawn at seed 72 has total weight 0"),
    ])
    def test_empirical_split_names_the_dataset(self, tmp_path, capsys, seed, error):
        light = tmp_path / "w.json"
        light.write_text(json.dumps({
            "features": [[0], [1], [2], [3], [4], [5]], "labels": [0, 1, 0, 1, 0, 1],
            "weights": [1, 1, 1, 0, 0, 0],
        }))
        other = tmp_path / "v.json"
        other.write_text(json.dumps({"features": [[0], [1], [2], [3]], "labels": [0, 1, 0, 1]}))
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({
            "mode": "empirical",
            "seed": seed,
            "out_dir": str(tmp_path / "out"),
            "empirical": {"datasets": [str(light), str(other)]},
        }))
        assert main(["run", "--config", str(config)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0]) == {"error": f"{light}: {error}"}
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flaw,error", [
        ("negative", "solver returned a plan with negative entries, min -1.000e-09"),
        ("marginal", "solver returned an infeasible plan: marginal violation 1.000e-06"),
    ])
    def test_infeasible_plan_is_one_json_line(self, tmp_path, capsys, monkeypatch, flaw, error):
        solve_lp = ot_module._solve_lp

        def flawed(aw, bw, cost):
            plan = solve_lp(aw, bw, cost)
            if flaw == "negative":  # an entry the optimum leaves at 0
                plan[np.unravel_index(np.argmin(plan), plan.shape)] = -1e-9
            else:  # row 0 now sums to its weight plus 1e-6
                plan[0] *= 1.0 + 1e-6 / plan[0].sum()
            return plan

        monkeypatch.setattr(ot_module, "_solve_lp", flawed)
        # Two 2-D sets of unequal size, so their input risk takes the LP route.
        rng = np.random.default_rng(8)
        paths = []
        for name, rows in (("a", 16), ("b", 12)):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps({
                "features": rng.normal(size=(rows, 2)).tolist(), "labels": [0, 1] * (rows // 2),
            }))
            paths.append(str(path))
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({
            "mode": "empirical",
            "out_dir": str(tmp_path / "out"),
            "empirical": {"datasets": paths},
            "risk_train": {"epochs": 1},
        }))
        assert main(["run", "--config", str(config)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0]) == {"error": error}
        assert not (tmp_path / "out").exists()

    def test_dense_budget_refusal_is_one_json_line(self, tmp_path, capsys):
        # Two 20 000-point training halves: the Sinkhorn route refuses them.
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({
            "mode": "synthetic_office",
            "out_dir": str(tmp_path / "out"),
            "divergence": {"method": "sinkhorn"},
            "synthetic_office": {"n_domains": 2, "samples_per_domain": 40_000},
        }))
        assert main(["run", "--config", str(config)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert "supports of 20000 and 20000 points" in json.loads(lines[0])["error"]
        assert not (tmp_path / "out").exists()

    def test_oversized_class_count_is_refused_before_training(self, tmp_path, capsys):
        # One label of 10^6 would make every head hold 10^6 logits per point
        # and the target head 10^6 x (10^6 + 1) parameters.
        small, large = tmp_path / "small.csv", tmp_path / "large.csv"
        small.write_text("x,label\n0.1,0\n0.2,1\n0.3,1\n0.4,0\n")
        large.write_text("x,label\n0.1,0\n0.2,1\n0.3,1000000\n0.4,0\n0.5,1\n")
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({
            "mode": "empirical",
            "out_dir": str(tmp_path / "out"),
            "empirical": {"datasets": [str(small), str(large)]},
        }))
        tracemalloc.start()
        try:
            code = main(["run", "--config", str(config)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 1
        assert peak < 2**20
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        error = json.loads(lines[0])["error"]
        assert error.startswith("large: its largest label 1000000 makes 1000001 classes")
        assert error.endswith("GiB, above the 1 GiB memory budget")
        assert not (tmp_path / "out").exists()

    def test_mixed_feature_counts_are_refused_by_file(self, tmp_path, capsys):
        line, plane = tmp_path / "line.csv", tmp_path / "plane.csv"
        line.write_text("x,label\n" + "".join(f"{i / 10},{i % 2}\n" for i in range(8)))
        plane.write_text("x,y,label\n" + "".join(f"{i / 10},{i / 5},{i % 2}\n" for i in range(8)))
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({
            "mode": "empirical",
            "out_dir": str(tmp_path / "out"),
            "empirical": {"datasets": [str(line), str(plane)]},
        }))
        assert main(["run", "--config", str(config)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0]) == {
            "error": "all domains must share the feature count: line has 1, plane has 2"
        }
        assert not (tmp_path / "out").exists()

    def test_head_budget_is_the_working_set_arithmetic(self, tmp_path, monkeypatch):
        # Two 8-row datasets: heads train on 4 points, one block.  1-D with labels up
        # to 9 makes 10 classes.  The largest head is then the source head
        # on 1 input, 20 parameters: per point its label index, per point
        # of its block 3 feature products, 10 class rows and 45 class-pair
        # rows, then its 45 pair terms and two Hessians, and numpy's buffer
        # over its class-pair rows, which outweigh the 110-parameter target
        # head on Newton-CG.  12-D with labels up to 1 makes it the source
        # head on 12 inputs, 26 parameters: per point the copy and the
        # label index, per point of its block 91 feature products, 2 class
        # rows and the loss kernel's 3 vectors, then numpy's buffer over
        # its 12 feature rows.  The refusal names the dataset holding the
        # largest label, or the longest (the first of equals) and its
        # feature count.
        assert finetune._head_bytes(4, 10, 1) > finetune._head_bytes(4, 10, 10)
        for columns, top, cause, needed in (
            (1, 9, "b1: its largest label 9 makes 10 classes",
             8 * (1 * 4 + (3 + 10 + 45) * 4 + 45 * 11 * 2**2 + 2 * (9 * 2) ** 2 + 45 * 4)),
            (12, 1, "a12: its points have 12 features",
             8 * ((12 + 1) * 4 + (91 + 2 + 3) * 4 + 1 * 3 * 13**2 + 2 * 13**2 + 12 * 4)),
        ):
            paths = []
            header = ",".join(f"x{j}" for j in range(columns))
            for name, last in (("a", 1), ("b", top)):
                path = tmp_path / f"{name}{columns}.csv"
                labels = [0, 1] * 3 + [last, 0]
                rows = "".join(
                    ",".join(f"{(i + j) / 10}" for j in range(columns)) + f",{y}\n"
                    for i, y in enumerate(labels)
                )
                path.write_text(f"{header},label\n{rows}")
                paths.append(str(path))
            config = {"mode": "empirical", "out_dir": str(tmp_path / f"out{columns}"),
                      "empirical": {"datasets": paths}, "risk_train": {"epochs": 1}}
            monkeypatch.setattr(distributions, "MEMORY_BUDGET_BYTES", needed)
            run(PipelineConfig.from_dict(config))
            monkeypatch.setattr(distributions, "MEMORY_BUDGET_BYTES", needed - 1)
            with pytest.raises(ValueError) as caught:
                run(PipelineConfig.from_dict(config))
            assert str(caught.value).startswith(f"{cause}, and training a head on 4 points")

    def test_a_hundred_class_office_run_trains_every_head(self, tmp_path):
        # 100 classes on 200-point halves: each target head has 10 100
        # parameters, more than its points.  A dense Newton Hessian of that
        # head would be a 10 100 x 10 100 matrix of 0.76 GiB; the Hessian
        # products keep the whole head near 1.7 MB.
        assert finetune._head_bytes(200, 100, 100) < 2 * 2**20
        report = run(PipelineConfig.from_dict({
            "mode": "synthetic_office", "out_dir": str(tmp_path / "out"),
            "synthetic_office": {"classes": 100},
        }))
        rows = list(csv.DictReader((tmp_path / "out" / "pairs.csv").read_text().splitlines()))
        assert len(rows) == 6 and report["workers"] == 1
        for row in rows:
            assert all(np.isfinite(float(row[key])) for key in (
                "accuracy", "input_risk", "output_risk", "transfer_risk"
            ))

    @staticmethod
    def two_cpus_and_no_crossover(monkeypatch):
        """Make every fit large enough for two processes on a two-CPU affinity mask."""
        monkeypatch.setattr(finetune, "_CONCURRENT_MIN_POINTS", 0)
        monkeypatch.setattr(finetune, "_NEWTON_CG_CONCURRENT_MIN_POINTS", 0)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)

    @staticmethod
    def line_csvs(tmp_path):
        """Three 60-row 1-D datasets of two classes."""
        paths = []
        for k in range(3):
            rng = np.random.default_rng(k)
            labels = rng.integers(0, 2, 60)
            points = 0.5 * k + 2.0 * labels + 0.4 * rng.standard_normal(60)
            path = tmp_path / f"d{k}.csv"
            path.write_text("x,label\n" + "".join(f"{float(x)!r},{y}\n" for x, y in zip(points, labels)))
            paths.append(str(path))
        return paths

    @pytest.mark.parametrize("mode", ["synthetic_office", "empirical"])
    def test_concurrent_run_writes_the_serial_pairs(self, tmp_path, monkeypatch, capsys, mode):
        config = {"mode": mode, "seed": 4}
        if mode == "empirical":
            config["empirical"] = {"datasets": self.line_csvs(tmp_path)}
        else:
            config["synthetic_office"] = {"samples_per_domain": 60, "n_domains": 4}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        outputs = {}
        for workers in (1, 2):
            if workers == 2:  # 2-D office domains fork as 1-D ones do
                self.two_cpus_and_no_crossover(monkeypatch)
            out_dir = tmp_path / f"out{workers}"
            assert main(["run", "--config", str(path), "--out", str(out_dir)]) == 0
            report = json.loads((out_dir / "report.json").read_text())
            assert report["workers"] == workers
            outputs[workers] = (out_dir / "pairs.csv").read_bytes()
        assert outputs[2] == outputs[1]
        assert capsys.readouterr().err == ""

    def test_head_budget_caps_the_workers_rather_than_refusing(self, tmp_path, monkeypatch):
        # Heads train on 30 points of 2 classes.  The target head, on 2
        # inputs, is the largest; it takes exact steps at any budget, and
        # its count caps the workers.
        config = {"mode": "empirical", "out_dir": str(tmp_path / "out"),
                  "empirical": {"datasets": self.line_csvs(tmp_path)}, "risk_train": {"epochs": 1}}
        self.two_cpus_and_no_crossover(monkeypatch)
        head = finetune._head_bytes(30, 2, 2)
        assert finetune._takes_exact_steps(2, 2) and head > finetune._head_bytes(30, 2, 1)
        for budget, workers in ((2 * head, 2), (2 * head - 1, 1), (head, 1)):
            monkeypatch.setattr(distributions, "MEMORY_BUDGET_BYTES", budget)
            assert run(PipelineConfig.from_dict(config))["workers"] == workers

    def test_report_records_the_fit_workers(self, tmp_path, office_report, random_report):
        assert office_report[0]["workers"] == 1  # 200-point fits stay below the crossover
        assert random_report["workers"] == 1  # 8 pairs stay below the crossover
        table = write_study_table(tmp_path / "table.csv")
        cfg = PipelineConfig.from_dict({"mode": "empirical", "out_dir": str(tmp_path / "out")},
                                       override_risks=table)
        assert run(cfg)["workers"] is None
        on_disk = json.loads((tmp_path / "out" / "report.json").read_text())
        assert on_disk["workers"] is None

    @pytest.mark.parametrize("log_level", ["WARNING", "DEBUG"])
    def test_runtime_failure_stderr_is_one_json_line(self, tmp_path, log_level):
        # numpy warnings bypass capsys, so run the CLI in a child process,
        # under a timeout: on features of 1e200 the squared points that the
        # Hessian's diagonal reads overflow, and a Newton solve without its
        # guards raised a bare LinAlgError or never left its line search.
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({
            "mode": "empirical",
            "out_dir": str(tmp_path / "out"),
            "empirical": {"datasets": [
                str(write_line_csv(tmp_path / f"{name}.csv", 1e200, seed))
                for seed, name in enumerate("ab")
            ]},
        }))
        src = str(Path(trk.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src, TRK_LOG=log_level)
        done = subprocess.run(
            [sys.executable, "-m", "trk.cli", "run", "--config", str(config)],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 1
        lines = done.stderr.splitlines()
        assert json.loads(lines[-1]) == {
            "error": "source head of a: loss Hessian became non-finite or singular at Newton step 0"
        }
        if log_level == "WARNING":
            assert len(lines) == 1, done.stderr
        else:
            assert any(line.startswith("DEBUG:trk:floating-point overflow") for line in lines)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("scale", [1e-6, 1e7, 1e150])
    def test_features_far_from_unit_size_run(self, tmp_path, capsys, scale):
        # The heads' Newton steps are preconditioned by the Hessian's
        # diagonal, so no feature scale short of overflow makes a head
        # singular; a fixed L2 weight against unscaled curvature once
        # refused heads from features of a few million.
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({
            "mode": "empirical",
            "out_dir": str(tmp_path / "out"),
            "empirical": {"datasets": [
                str(write_line_csv(tmp_path / f"{name}.csv", scale, seed))
                for seed, name in enumerate("ab")
            ]},
        }))
        assert main(["run", "--config", str(config)]) == 0
        assert capsys.readouterr().err == ""
        rows = (tmp_path / "out" / "pairs.csv").read_text().splitlines()
        assert len(rows) == 3

    @pytest.mark.parametrize(
        "command,forbidden",
        [
            ("version", "scipy numpy.ma"),
            ("gaussian_lab", "scipy numpy.ma"),
            ("empirical_1d", "scipy numpy.ma"),
            ("ingest_check", "scipy numpy.ma"),
            ("fit_combiner", "scipy numpy.ma"),
            (
                "synthetic_office",
                "scipy.stats scipy.optimize scipy.spatial scipy.sparse numpy.ma",
            ),
            ("sinkhorn", "scipy numpy.ma"),
        ],
        ids=lambda value: value.split()[0],  # the first forbidden package names the case
    )
    def test_command_imports_only_the_scipy_it_runs(self, tmp_path, command, forbidden):
        # A fresh interpreter, so only this command's imports are in sys.modules.
        # No command needs masked arrays: numpy's set routines (`unique`,
        # `union1d`) import `numpy.ma`, which costs about 10 ms of start-up.
        for name, offset in (("a", 0.0), ("b", 1.5)):
            rows = [f"{offset + 0.1 * i + 2.0 * (i % 2)!r},{i % 2}" for i in range(16)]
            (tmp_path / f"{name}.csv").write_text("\n".join(["f0,label", *rows]) + "\n")
        configs = {
            "gaussian_lab": {"mode": "gaussian_lab", "gaussian_lab": {"n_pairs": 2}},
            "empirical_1d": {
                "mode": "empirical",
                "empirical": {"datasets": [str(tmp_path / "a.csv"), str(tmp_path / "b.csv")]},
                "risk_train": {"epochs": 2},
            },
            "synthetic_office": {
                "mode": "synthetic_office",
                "synthetic_office": {"samples_per_domain": 24},
                "risk_train": {"epochs": 2},
            },
        }
        configs["sinkhorn"] = {
            **configs["synthetic_office"],
            "divergence": {"method": "sinkhorn", "sinkhorn_epsilon": 0.2},
        }
        if command == "version":
            argv = ["--version"]
        elif command == "ingest_check":
            argv = ["ingest-check", "--path", str(tmp_path / "a.csv")]
        elif command == "fit_combiner":
            table = write_study_table(tmp_path / "rows.csv")
            argv = ["fit-combiner", "--rows", str(table), "--form", "linear"]
        else:
            config = tmp_path / "cfg.json"
            config.write_text(json.dumps({**configs[command], "out_dir": str(tmp_path / "out")}))
            argv = ["run", "--config", str(config)]
        child = (
            "import json, sys\n"
            "from trk.cli import main\n"
            "try:\n"
            "    code = main(sys.argv[1:])\n"
            "except SystemExit as done:\n"  # argparse's --version exits with 0
            "    code = done.code\n"
            "loaded = [m for m in sys.modules if m.split('.')[0] == 'scipy'\n"
            "          or m == 'numpy.ma' or m.startswith('numpy.ma.')]\n"
            "print(json.dumps([code, sorted(loaded)]))\n"
        )
        src = str(Path(trk.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, "-c", child, *argv],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=60,
        )
        code, loaded = json.loads(done.stdout.splitlines()[-1])
        assert code == 0, done.stderr
        packages = forbidden.split()
        assert [m for m in loaded if any(m == p or m.startswith(p + ".") for p in packages)] == []

    @pytest.mark.parametrize("raw,message", UNREAD_KEYS)
    def test_unread_key_exits_with_one_json_line(self, tmp_path, capsys, raw, message):
        config, flags = split_flags(raw)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**config, "out_dir": str(tmp_path / "out")}))
        argv = ["run", "--config", str(path)]
        assert main(argv + [str(item) for flag in flags.items() for item in flag]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        # The file is named when it is refused alone, not when `--seed` is.
        expected = message if "--seed" in flags else f"{path}: {message}"
        assert json.loads(lines[0]) == {"error": expected}
        assert not (tmp_path / "out").exists()

    def test_unknown_config_key_fails_cleanly(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"mode": "gaussian_lab", "divergence": {"pp": 2}}))
        assert main(["run", "--config", str(path)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert "divergence.pp" in err["error"]


def accepted_key_paths(mode):
    """Every leaf key path the config tables accept in `mode`, over all its other choices."""
    paths = set()
    for choices in itertools.product(*pipeline._CHOICES.values()):
        for section, table in pipeline._tables(mode, *choices).items():
            paths |= {
                f"{section}.{key}" if section else key
                for key, (kind, _) in table.items() if kind is not dict
            }
    return sorted(paths)


def readme_key_paths():
    """Mode -> the key paths README.md's "### Config keys" tables list for it.

    A table applies to the modes its heading line names, or to every mode.
    """
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n### Config keys\n", 1)[1].split("\n## ", 1)[0]
    paths = {mode: set() for mode in pipeline._MODES}
    heading, modes = "", ()
    for line in section.splitlines():
        if line.startswith("| key path"):
            modes = [mode for mode in pipeline._MODES if f"`{mode}`" in heading]
            assert modes or "every mode" in heading, heading
            modes = modes or pipeline._MODES
        elif line.startswith("| `"):
            for mode in modes:
                paths[mode].add(line.split("`")[1])
        elif line.strip() and not line.startswith("|"):
            heading = line
    return paths


@pytest.mark.parametrize("mode", pipeline._MODES)
def test_readme_config_tables_match_the_schema(mode):
    assert sorted(readme_key_paths()[mode]) == accepted_key_paths(mode)


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
# mode has no default (it selects the tables), and out_dir moves the outputs.
KNOB_EXEMPT = {
    ("synthetic_office", "mode"), ("gaussian_lab", "mode"),
    ("synthetic_office", "out_dir"), ("gaussian_lab", "out_dir"),
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
