"""Span tracing of a `trk` run, installed from outside the package.

`install` wraps the public functions of every `trk` module (their `__all__`,
plus `cli.main`), the constructors of the distribution carriers and
`PipelineConfig.from_json`. Each wrapper replaces the name in its defining
module and in every `trk.*` module that imported it by name, so, for
example, `wasserstein` is traced whether it is called from
`optimal_transport`, `finetune` or `transfer_core`. A span records its name,
start, end, parent span and run id; spans stay in memory until the run ends.

Run as a script, it executes one traced `trk` command line and writes the
spans as JSON:

    PYTHONPATH=src python3 perfbench/tracer.py --spans spans.json -- run --config cfg.json

`layer_metrics` turns the spans into the benchmark's per-layer metrics.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict

LIBRARY_MODULES = (
    "distributions",
    "optimal_transport",
    "transfer_core",
    "gaussian_lab",
    "finetune",
    "pipeline",
)
MODULES = LIBRARY_MODULES + ("cli",)
_CARRIERS = ("EmpiricalDistribution", "GaussianND", "GaussianJoint")
_ROUTES = ("lp", "1d", "sinkhorn")

# Per-layer metrics: name -> unit. Times are self times unless the name says
# otherwise; `calls` count spans, and OT `calls` count solves by route.
PER_LAYER_UNITS = {
    **{f"optimal_transport.{r}.calls": "count" for r in _ROUTES},
    "optimal_transport.lp.self_s": "s",
    "optimal_transport.1d.self_s": "s",
    "optimal_transport.cost_matrix_mb": "MiB",
    "optimal_transport.failures": "count",
    "finetune.train_classifier.calls": "count",
    "finetune.train_classifier.self_s": "s",
    "finetune.train_classifier.epochs": "count",
    "finetune.train_classifier.epoch_ms": "ms",
    "finetune.cross_entropy_objective.calls": "count",
    "finetune.cross_entropy_objective.self_s": "s",
    "finetune.minimize_output_risk.calls": "count",
    "finetune.minimize_output_risk.self_s": "s",
    "finetune.minimize_output_risk.epoch_ms": "ms",
    "finetune.transport_objective.calls": "count",
    "finetune.transport_objective.self_s": "s",
    "finetune.make_synthetic_domains.self_s": "s",
    "gaussian_lab.random_basic_pair.self_s": "s",
    "gaussian_lab.basic_case_risks.self_s": "s",
    "gaussian_lab.risk_regret_residual.self_s": "s",
    "transfer_core.input_risk.calls": "count",
    "transfer_core.input_risk.self_s": "s",
    "distributions.psd_sqrt.calls": "count",
    "distributions.psd_sqrt.self_s": "s",
    "distributions.gaussian_w2.calls": "count",
    "distributions.gaussian_w2.self_s": "s",
    "distributions.carrier_init.calls": "count",
    "distributions.carrier_init.self_s": "s",
    "pipeline.ingest_dataset.calls": "count",
    "pipeline.ingest_dataset.self_s": "s",
    "pipeline.ingest_dataset.rows_per_s": "1/s",
    "pipeline.run.self_s": "s",
    "pipeline.config_s": "s",
    "cli.main.self_s": "s",
    **{f"{m}.share": "ratio" for m in LIBRARY_MODULES},
    "trace.run_s": "s",
    "trace.spans": "count",
    "trace.overhead_s": "s",
}
# Metrics where a larger value is the improvement; every other one improves
# by going down.
HIGHER_IS_BETTER = {"pipeline.ingest_dataset.rows_per_s"}


class Tracer:
    """In-memory span recorder for one single-threaded run.

    Each span is a list [name, start, end, parent index, attrs].
    """

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name, fn, on_call=None, on_return=None):
        """Wrap `fn` so that each call records a span called `name`.

        on_call(*args, **kwargs) and on_return(result) return dicts that are
        merged into the span's attributes.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            attrs = on_call(*args, **kwargs) if on_call else {}
            index = len(self.spans)
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else None, attrs]
            self.spans.append(span)
            self._stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                attrs["error"] = True
                raise
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if on_return:
                attrs.update(on_return(result))
            return result

        return traced

    def dump(self) -> dict:
        return {"run_id": self.run_id, "spans": self.spans}


def _ot_route(a, b, cfg=None) -> dict:
    """Route the documented `auto` rule of `OtConfig` picks for (a, b, cfg)."""
    if cfg is None:
        from trk.optimal_transport import OtConfig

        cfg = OtConfig()
    method = cfg.method
    if method == "auto":
        if a.dim == 1:
            method = "exact_1d"
        elif max(a.size, b.size) <= cfg.lp_max_support:
            method = "exact_lp"
        else:
            method = "sinkhorn"
    route = {"exact_1d": "1d", "exact_lp": "lp", "sinkhorn": "sinkhorn"}[method]
    attrs = {"route": route}
    if route != "1d":
        attrs["dense_bytes"] = a.size * b.size * 8
    return attrs


def _epochs(result) -> dict:
    return {"epochs": result[2].epochs_run}


def _rows(result) -> dict:
    return {"rows": result[0].size}


_HOOKS = {
    "optimal_transport.wasserstein": (_ot_route, None),
    "optimal_transport.wasserstein_1d_exact": (lambda a, b, p=1.0: {"route": "1d"}, None),
    "finetune.train_classifier": (None, _epochs),
    "finetune.minimize_output_risk": (None, _epochs),
    "pipeline.ingest_dataset": (None, _rows),
}


def install(tracer: Tracer) -> None:
    """Wrap the public surface of every `trk` module with `tracer` spans."""
    modules = {m: importlib.import_module(f"trk.{m}") for m in MODULES}
    for short, module in modules.items():
        for attr in getattr(module, "__all__", ["main"]):
            fn = getattr(module, attr)
            if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                name = f"{short}.{attr}"
                _rebind(fn, tracer.wrap(name, fn, *_HOOKS.get(name, (None, None))))
    for cls_name in _CARRIERS:
        cls = getattr(modules["distributions"], cls_name)
        cls.__init__ = tracer.wrap("distributions.carrier_init", cls.__init__)
    config_cls = modules["pipeline"].PipelineConfig
    config_cls.from_json = staticmethod(tracer.wrap("pipeline.config", config_cls.from_json))


def _rebind(original, replacement) -> None:
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "trk" and not mod_name.startswith("trk."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for i, span in enumerate(spans):
        if span[3] is not None:
            children[span[3]].append(i)
    result = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered, reach = 0.0, start
        for c_start, c_end in sorted((spans[c][1], spans[c][2]) for c in children[i]):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        result.append(end - start - covered)
    return result


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics of one traced run (all but `trace.overhead_s`)."""
    own = self_times(spans)
    m: dict[str, float] = defaultdict(int)
    wall: dict[str, float] = defaultdict(float)
    for span, t in zip(spans, own):
        name = span[0]
        m[f"{name}.calls"] += 1
        m[f"{name}.self_s"] += t
        wall[name] += span[2] - span[1]
        for key in ("epochs", "rows"):
            m[f"{name}.{key}"] += span[4].get(key, 0)
    for name in ("finetune.train_classifier", "finetune.minimize_output_risk"):
        epochs = m[f"{name}.epochs"]
        m[f"{name}.epoch_ms"] = 1000.0 * wall[name] / epochs if epochs else 0.0
    ingest_wall = wall["pipeline.ingest_dataset"]
    rows = m["pipeline.ingest_dataset.rows"]
    m["pipeline.ingest_dataset.rows_per_s"] = rows / ingest_wall if ingest_wall else 0.0
    m["pipeline.config_s"] = wall["pipeline.config"]
    m["trace.run_s"] = wall["pipeline.run"]
    m["trace.spans"] = len(spans)
    m.update(_ot_metrics(spans, own))
    m.update(_module_shares(spans, own))
    return {k: m[k] for k in PER_LAYER_UNITS if k != "trace.overhead_s"}


def _ot_metrics(spans: list[list], own: list[float]) -> dict[str, float]:
    """Solves, self time, dense cost-matrix size and failures per OT route.

    A solve is an OT span with no OT ancestor; nested OT spans (the quantile
    sweep inside `wasserstein`) add their self time to the solve's route.
    `cost_matrix_mb` is computed, not measured: the largest n*m*8 bytes of a
    dense (LP or Sinkhorn) solve.
    """
    m = {f"optimal_transport.{r}.calls": 0 for r in _ROUTES}
    route_self: dict[str, float] = defaultdict(float)
    largest, failures = 0, 0
    for i, span in enumerate(spans):
        if not span[0].startswith("optimal_transport."):
            continue
        solve = i
        parent = span[3]
        while parent is not None:
            if spans[parent][0].startswith("optimal_transport."):
                solve = parent
            parent = spans[parent][3]
        route = spans[solve][4]["route"]
        route_self[route] += own[i]
        if solve == i:
            m[f"optimal_transport.{route}.calls"] += 1
            largest = max(largest, span[4].get("dense_bytes", 0))
            failures += bool(span[4].get("error"))
    # Sinkhorn never runs on these workloads; its calls are what shows a routing change.
    m["optimal_transport.lp.self_s"] = route_self["lp"]
    m["optimal_transport.1d.self_s"] = route_self["1d"]
    m["optimal_transport.cost_matrix_mb"] = largest / 2**20
    m["optimal_transport.failures"] = failures
    return m


def _module_shares(spans: list[list], own: list[float]) -> dict[str, float]:
    """Each library module's self time inside `pipeline.run`, over its wall time."""
    inside = [False] * len(spans)
    run_wall = 0.0
    for i, span in enumerate(spans):
        if span[0] == "pipeline.run":
            inside[i] = True
            run_wall += span[2] - span[1]
        elif span[3] is not None and inside[span[3]]:
            inside[i] = True
    module_self: dict[str, float] = defaultdict(float)
    for span, t, flag in zip(spans, own, inside):
        if flag:
            module_self[span[0].split(".", 1)[0]] += t
    return {
        f"{m}.share": module_self[m] / run_wall if run_wall else 0.0 for m in LIBRARY_MODULES
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True, help="where to write the spans as JSON")
    parser.add_argument("--run-id", default="run")
    parser.add_argument("trk_args", nargs=argparse.REMAINDER, help="-- then trk arguments")
    args = parser.parse_args(argv)
    trk_args = args.trk_args[1:] if args.trk_args[:1] == ["--"] else args.trk_args
    tracer = Tracer(args.run_id)
    install(tracer)
    from trk import cli

    try:
        code = cli.main(trk_args)
    finally:
        with open(args.spans, "w") as handle:
            json.dump(tracer.dump(), handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
