"""Span tracing around rulemix's public functions, patched at their call sites.

Each module binds the names it imports, so a function is wrapped where it is
looked up (``rulemix.cli.fit_gbt``, ``rulemix.em.gate_objective``,
``rulemix.baseline.grow_tree`` ...), not only where it is defined.  Methods are
wrapped on their class.  Spans live in memory and are written out by the
runner when the run ends; ``restore`` puts every original attribute back.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import defaultdict
from statistics import median

import numpy as np

import rulemix.baseline
import rulemix.cli
import rulemix.em
import rulemix.trainer
from rulemix.binarizer import SplitSchema
from rulemix.ensemble import TreeEnsemble
from rulemix.mixture import MixtureModel

LAYERS = ("cli", "data", "trainer", "ensemble", "binarizer", "em", "mixture", "baseline")

# Count metrics that must repeat exactly for a fixed seed; later changes may
# cite them as counts.
EXACT_COUNTS = (
    "em.gate_iters",
    "em.gate_cap_share",
    "em.gate_evals_per_iter",
    "em.rows_processed",
    "em.iters",
    "binarizer.unique_patterns",
    "trainer.grow_tree_calls",
    "baseline.cv_passes",
)


def _rows(arg_index):
    def hook(info, args, kwargs, result):
        info["rows"] = len(args[arg_index])

    return hook


def _gate_shape(info, args, kwargs, result):
    weights, design = args[0], args[2]
    info["nwk"] = (design.shape[0], design.shape[1], weights.shape[0])


def _gate_gradient(info, args, kwargs, result):
    _gate_shape(info, args, kwargs, result)
    info["norm"] = float(np.sqrt((result * result).sum()))


def _gate_budget(info, args, kwargs, result):
    info["max_iters"] = args[3].gate_max_iters


def _keep(key):
    def hook(info, args, kwargs, result):
        info[key] = result

    return hook


def _text_bytes(arg_index=None):
    def hook(info, args, kwargs, result):
        text = result if arg_index is None else args[arg_index]
        info["bytes"] = len(text.encode("utf-8"))

    return hook


def _dataset_bits(info, args, kwargs, result):
    info["bits"] = result.bits


def _loaded_rows(info, args, kwargs, result):
    info["rows"] = len(result)


# (owner, attribute, span name, hook).  The span name's prefix is the layer
# that owns the function, which is where its self time is charged.
TRACE_POINTS = (
    (rulemix.cli, "cmd_synth", "cli.cmd_synth", None),
    (rulemix.cli, "cmd_train_atm", "cli.cmd_train_atm", None),
    (rulemix.cli, "cmd_simplify", "cli.cmd_simplify", None),
    (rulemix.cli, "cmd_evaluate", "cli.cmd_evaluate", None),
    (rulemix.cli, "cmd_baseline", "cli.cmd_baseline", None),
    (rulemix.cli, "gen_xor", "data.gen_xor", None),
    (rulemix.cli, "gen_energy_like", "data.gen_energy_like", None),
    (rulemix.cli, "split3", "data.split3", None),
    (rulemix.cli, "load_csv", "data.load_csv", _loaded_rows),
    (rulemix.cli, "write_csv", "data.write_csv", None),
    (rulemix.cli, "mse", "data.mse", _rows(1)),
    (rulemix.cli, "fit_gbt", "trainer.fit_gbt", None),
    (rulemix.trainer, "grow_tree", "trainer.grow_tree", None),
    (rulemix.baseline, "grow_tree", "trainer.grow_tree", None),
    (rulemix.cli, "serialize_ensemble", "trainer.serialize", _text_bytes()),
    (rulemix.cli, "parse_ensemble_json", "trainer.parse", _text_bytes(0)),
    (TreeEnsemble, "predict_batch", "ensemble.predict_batch", _rows(1)),
    (TreeEnsemble, "predict", "ensemble.predict", None),
    (rulemix.cli, "count_regions", "ensemble.count_regions", _keep("regions")),
    (rulemix.cli, "count_regions_exact", "ensemble.count_regions", _keep("regions")),
    (rulemix.cli, "extract_splits", "binarizer.extract_splits", None),
    (rulemix.cli, "build_dataset", "binarizer.build_dataset", _dataset_bits),
    (SplitSchema, "encode_batch", "binarizer.encode_batch", None),
    (rulemix.em, "fit", "em.fit", _keep("fit")),
    (rulemix.em, "m_step_closed_form", "em.m_step_closed_form", _rows(0)),
    (rulemix.em, "m_step_gate", "em.m_step_gate", _gate_budget),
    (rulemix.em, "gate_objective", "em.gate_objective", _gate_shape),
    (rulemix.em, "gate_gradient", "em.gate_gradient", _gate_gradient),
    (rulemix.em, "log_joint_matrix", "mixture.log_joint_matrix", None),
    (MixtureModel, "predict_batch", "mixture.predict_batch", None),
    (rulemix.cli, "extract_rules", "mixture.extract_rules", _keep("rules")),
    (rulemix.cli, "rules_to_json_dict", "mixture.rules_to_json_dict", None),
    (rulemix.cli, "fit_cart", "baseline.fit_cart", _keep("tree")),
    (rulemix.baseline, "cv_mse_by_depth", "baseline.cv_mse_by_depth", None),
    (rulemix.cli, "cv_mse_by_depth", "baseline.cv_mse_by_depth", None),
    (rulemix.cli, "tree_to_ruleset", "baseline.tree_to_ruleset", None),
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "info")

    def __init__(self, name, start, parent, op):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.op = op
        self.info = {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_row(self) -> list:
        return [self.name, self.start, self.end, self.parent, self.op]


class Tracer:
    """Records (name, start, end, parent, op id) spans while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self.op = None

    def install(self, points=TRACE_POINTS) -> None:
        for owner, attr, name, hook in points:
            original = vars(owner)[attr]
            self._patches.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, hook))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    @contextlib.contextmanager
    def span(self, name):
        """A span the caller opens itself, such as an op's root."""
        index = self._open(name)
        try:
            yield self.spans[index]
        finally:
            self._close(index)

    def _open(self, name) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), parent, self.op))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name, hook):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(index)
            if hook is not None:
                hook(tracer.spans[index].info, args, kwargs, result)
            return result

        return traced


def op_metrics(spans: list[Span], root: Span) -> dict:
    """Per-layer metrics of one op, from the spans under its root span.

    A layer's self time is its spans' durations minus their direct children's,
    so the layer self times add up to the root span's duration.
    """
    index_of = {id(s): i for i, s in enumerate(spans)}
    mine = [s for s in spans if s.op == root.op]
    children = defaultdict(list)
    for s in mine:
        if s.parent is not None:
            children[s.parent].append(s)

    layer_self = {layer: 0.0 for layer in LAYERS}
    inclusive = defaultdict(float)
    calls = defaultdict(int)
    for s in mine:
        i = index_of[id(s)]
        child_time = sum(c.duration for c in children[i])
        layer_self[s.name.split(".")[0]] += s.duration - child_time
        inclusive[s.name] += s.duration
        calls[s.name] += 1

    def named(name):
        return [s for s in mine if s.name == name]

    m = {f"{layer}.self_s": layer_self[layer] for layer in LAYERS}
    pipeline = root.duration
    m["run.traced_pipeline_s"] = pipeline
    m["run.self_sum_s"] = sum(layer_self.values())

    m["data.gen_s"] = inclusive["data.gen_xor"] + inclusive["data.gen_energy_like"]
    m["data.load_csv_s"] = inclusive["data.load_csv"]
    m["data.load_csv_rows"] = sum(s.info["rows"] for s in named("data.load_csv"))
    m["data.mse_s"] = inclusive["data.mse"]
    m["data.mse_rows"] = sum(s.info["rows"] for s in named("data.mse"))

    m["trainer.fit_gbt_s"] = inclusive["trainer.fit_gbt"]
    m["trainer.grow_tree_calls"] = calls["trainer.grow_tree"]
    m["trainer.serialize_s"] = inclusive["trainer.serialize"]
    m["trainer.parse_s"] = inclusive["trainer.parse"]
    m["trainer.model_bytes"] = sum(s.info["bytes"] for s in named("trainer.serialize"))

    m["ensemble.predict_batch_s"] = inclusive["ensemble.predict_batch"]
    m["ensemble.predict_rows"] = (
        sum(s.info["rows"] for s in named("ensemble.predict_batch")) + calls["ensemble.predict"]
    )
    m["ensemble.region_count_s"] = inclusive["ensemble.count_regions"]
    m["ensemble.regions"] = sum(s.info["regions"] for s in named("ensemble.count_regions"))

    built = named("binarizer.build_dataset")
    rows = sum(len(s.info["bits"]) for s in built)
    unique = sum(len(np.unique(s.info["bits"], axis=0)) for s in built)
    m["binarizer.rows"] = rows
    m["binarizer.bits"] = max((s.info["bits"].shape[1] for s in built), default=0)
    m["binarizer.unique_patterns"] = unique
    m["binarizer.unique_share"] = unique / rows if rows else 0.0

    fits = [s.info["fit"][1] for s in named("em.fit")]
    traces = [r for f in fits for r in f.restarts]
    m["em.fit_s"] = inclusive["em.fit"]
    m["em.restarts"] = len(traces)
    m["em.restarts_failed"] = sum(r.failed for r in traces)
    m["em.iters"] = sum(r.iters for r in traces)
    m["em.reseed_events"] = sum(r.reseed_events for r in traces)
    m["em.rows_processed"] = sum(s.info["rows"] for s in named("em.m_step_closed_form"))
    m["em.m_closed_s"] = inclusive["em.m_step_closed_form"]
    m["em.m_gate_s"] = inclusive["em.m_step_gate"]
    m["em.m_gate_share"] = m["em.m_gate_s"] / pipeline
    m["em.gate_obj_s"] = inclusive["em.gate_objective"]
    m["em.gate_grad_s"] = inclusive["em.gate_gradient"]

    gate_steps = named("em.m_step_gate")
    iters = evals = capped = 0
    final_norms = []
    flop = nbytes = 0.0
    for g in gate_steps:
        kids = children[index_of[id(g)]]
        grads = [c for c in kids if c.name == "em.gate_gradient"]
        objs = [c for c in kids if c.name == "em.gate_objective"]
        iters += len(grads)
        evals += len(objs)
        capped += len(grads) == g.info["max_iters"]
        if grads:
            final_norms.append(grads[-1].info["norm"])
        # Computed from array shapes, not counted by hardware: each objective
        # does one (N,W)x(W,K) product, each gradient two; each reads the
        # design matrix once per product plus the (N,K) responsibilities.
        for c in objs:
            n, w, k = c.info["nwk"]
            flop += 2.0 * n * w * k
            nbytes += 8.0 * (n * w + n * k)
        for c in grads:
            n, w, k = c.info["nwk"]
            flop += 4.0 * n * w * k
            nbytes += 8.0 * (2 * n * w + n * k)
    m["em.m_gate_calls"] = len(gate_steps)
    m["em.gate_iters"] = iters
    m["em.gate_cap_share"] = capped / len(gate_steps) if gate_steps else 0.0
    m["em.gate_evals_per_iter"] = evals / iters if iters else 0.0
    m["em.gate_final_grad_norm_p50"] = median(final_norms) if final_norms else 0.0
    m["em.gate_gflop"] = flop / 1e9
    m["em.gate_gbytes"] = nbytes / 1e9
    gate_time = m["em.gate_obj_s"] + m["em.gate_grad_s"]
    m["em.gate_gflops"] = m["em.gate_gflop"] / gate_time if gate_time else 0.0

    m["mixture.log_joint_s"] = inclusive["mixture.log_joint_matrix"]
    m["mixture.predict_batch_s"] = inclusive["mixture.predict_batch"]
    m["mixture.extract_rules_s"] = inclusive["mixture.extract_rules"]
    rule_sets = [s.info["rules"] for s in named("mixture.extract_rules")]
    components = [c for r in rule_sets for c in r.components]
    m["mixture.rules"] = len(components)
    m["mixture.catch_all_rules"] = sum(c.catch_all for c in components)
    m["mixture.degenerate_rules"] = sum(c.degenerate for c in components)
    shares = [c.share for c in components if c.share is not None]
    m["mixture.min_share"] = min(shares) if shares else 0.0

    m["baseline.fit_cart_s"] = inclusive["baseline.fit_cart"]
    m["baseline.cv_s"] = inclusive["baseline.cv_mse_by_depth"]
    m["baseline.cv_passes"] = calls["baseline.cv_mse_by_depth"]
    m["baseline.leaves"] = sum(s.info["tree"].n_leaves for s in named("baseline.fit_cart"))
    return m
