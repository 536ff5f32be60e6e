"""Layer spans for the traced benchmark run.

Spans are recorded from the benchmark's side only: each hook replaces a
name where the program's caller looks it up (``scoreline.cli.fit_model``,
``scoreline.regress.tree.best_split``, a method on its class) with a
wrapper that records (op, span id, parent, name, start, end, counts).
Spans stay in memory and are written out once, at the end of the run.

A span's name is the per-layer metric its self time feeds, for example
``kernels.best_split_s``. Self time is the span's duration minus the
durations of its direct children, so within one op the self times of all
spans sum to the root span's duration. A hook whose target no longer
exists, or whose arguments or result no longer have the expected shape,
leaves its layer reported as unmeasured; the run goes on.
"""

from __future__ import annotations

import importlib
import json
import time
import warnings
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

ROOT = "cli.self_s"


@dataclass
class Span:
    op: int
    id: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.unmeasured: list[str] = []
        self._stack: list[Span] = []
        self.op = -1
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------
    def open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(self.op, len(self.spans), parent, name, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")

    def begin_op(self) -> Span:
        self.op += 1
        return self.open(ROOT)

    # -- hooks -------------------------------------------------------------
    def hook(self, target: str, describe, record_warnings: bool = False) -> None:
        """Wrap ``module:attr`` or ``module:Class.attr`` in a span.

        ``describe(args, kwargs, result, caught)`` returns the span name and
        a dict of counts for it; ``caught`` holds the warnings the call
        emitted when ``record_warnings`` is set.
        """
        module_name, _, rest = target.partition(":")
        try:
            owner = importlib.import_module(module_name)
            *path, attr = rest.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
        except (ImportError, AttributeError):
            self.unmeasured.append(target)
            return

        def wrapper(*args, **kwargs):
            span = self.open(target)
            caught = ()
            try:
                if record_warnings:
                    with warnings.catch_warnings(record=True) as caught:
                        warnings.simplefilter("always")
                        result = original(*args, **kwargs)
                else:
                    result = original(*args, **kwargs)
            finally:
                self.close(span)
            try:
                span.name, span.counts = describe(args, kwargs, result, caught)
            except (AttributeError, TypeError, KeyError, IndexError, ValueError):
                # the call's arguments or result changed shape: keep the
                # span under its target's name, which feeds no metric
                if target not in self.unmeasured:
                    self.unmeasured.append(target)
            return result

        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def unhook(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- analysis ----------------------------------------------------------
    def op_layers(self, op: int) -> tuple[dict, dict]:
        """Self time per span name, and summed counts, within one op."""
        spans = [s for s in self.spans if s.op == op]
        child_time = defaultdict(float)
        for s in spans:
            if s.parent is not None:
                child_time[s.parent] += s.end - s.start
        times, counts = defaultdict(float), defaultdict(float)
        for s in spans:
            times[s.name] += (s.end - s.start) - child_time[s.id]
            for key, value in s.counts.items():
                counts[key] += value
        return dict(times), dict(counts)

    def dump(self, path: Path) -> None:
        rows = [[s.op, s.id, s.parent, s.name, s.start, s.end, s.counts]
                for s in self.spans]
        path.write_text(json.dumps({
            "columns": ["op", "id", "parent", "name", "start", "end", "counts"],
            "unmeasured": self.unmeasured, "spans": rows}) + "\n")


# ---------------------------------------------------------------- the hooks

def _size(path) -> int:
    try:
        return Path(path).stat().st_size
    except OSError:
        return 0


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _ingest_dataset(args, kwargs, ds, caught):
    data_dir = Path(_arg(args, kwargs, 0, "data_dir"))
    size = sum(_size(data_dir / n) for n in ("fixtures.csv", "player_stats.csv", "odds.csv"))
    return "ingest.load_s", {"ingest.calls": 1, "ingest.bytes": size,
                             "ingest.records": len(ds.fixtures) + len(ds.stats)}


def _ingest_fixtures(args, kwargs, fixtures, caught):
    return "ingest.load_s", {"ingest.calls": 1, "ingest.records": len(fixtures),
                             "ingest.bytes": _size(_arg(args, kwargs, 0, "path"))}


def _label(engine, kernel) -> str:
    return "svr-rbf" if engine == "svr" and kernel == "rbf" else engine


def _fit(args, kwargs, model, caught):
    """A fit that stops at its iteration cap emits NotConvergedWarning: it
    is counted in ``svr.capped.*``, never treated as a failure."""
    engine, params = args[0], _arg(args, kwargs, 3, "params") or {}
    capped = 0
    for w in caught:
        if w.category.__name__ == "NotConvergedWarning":
            capped += 1
        else:
            warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
    counts = {}
    status = getattr(model, "status", None)
    if engine == "svr" and isinstance(status, dict):
        kernel = params.get("kernel", "linear")
        counts = {f"svr.iterations.{kernel}": status.get("iterations", 0),
                  f"svr.objective.{kernel}": status.get("objective", 0.0),
                  f"svr.capped.{kernel}": capped}
    return f"regress.fit_s.{_label(engine, params.get('kernel'))}", counts


def _regress_predict(args, kwargs, out, caught):
    model = args[0]
    label = _label(getattr(model, "technique", "?"), getattr(model, "kernel", None))
    return f"regress.predict_s.{label}", {}


def _best_split(args, kwargs, out, caught):
    X, feat_idx = args[0], _arg(args, kwargs, 2, "feat_idx")
    return "kernels.best_split_s", {"kernels.best_split_calls": 1,
                                    "kernels.best_split_cells": X.shape[0] * len(feat_idx)}


def _knn(args, kwargs, out, caught):
    train_X, query_X = args[0], _arg(args, kwargs, 2, "query_X")
    n, p = train_X.shape
    return "kernels.knn_s", {"kernels.knn_terms": n * query_X.shape[0] * p}


def _store_save(args, kwargs, out, caught):
    return "store.save_s", {"store.bytes_written": _size(_arg(args, kwargs, 1, "path"))}


def _store_load(args, kwargs, model, caught):
    return "store.load_s", {"store.bytes_read": _size(_arg(args, kwargs, 0, "path"))}


def _pair_predict(args, kwargs, pset, caught):
    return "predict.pair_s", {"predict.rows": len(pset.predictions)}


def _fixed(name):
    return lambda args, kwargs, out, caught: (name, {})


def _build_matrix(tracer: Tracer):
    """Counts per build; a build is distinct when its (approach, side,
    fixture set, require_target) key is new within the op."""
    seen: set = set()

    def describe(args, kwargs, matrix, caught):
        fixtures, approach, side = args[1:4]
        require = args[4] if len(args) > 4 else kwargs.get("require_target", True)
        key = (tracer.op, approach, side, tuple(f.fixture_id for f in fixtures), require)
        distinct = key not in seen
        seen.add(key)
        return "features.build_s", {
            "features.build_calls": 1, "features.distinct_builds": int(distinct),
            "features.rows": len(matrix.rows),
            "features.skipped_rows": len(matrix.skipped),
            "features.fallback_rows": sum(
                1 for row in matrix.rows if getattr(row, "fallback_groups", ())),
        }
    return describe


EVALUATE_FUNCTIONS = ("fitness", "simulate_standings", "actual_standings",
                      "kendall_tau", "zone_accuracy", "bet_run",
                      "chi2_importance", "rank_models", "rank_sum_overview")


def install(tracer: Tracer) -> None:
    """Hook every layer boundary the CLI crosses, where the caller looks
    the name up."""
    tracer.hook("scoreline.cli:load_dataset", _ingest_dataset)
    tracer.hook("scoreline.cli:load_fixtures", _ingest_fixtures)
    tracer.hook("scoreline.cli:FeatureBuilder", _fixed("features.init_s"))
    tracer.hook("scoreline.features:FeatureBuilder.build_matrix", _build_matrix(tracer))
    tracer.hook("scoreline.cli:fit_model", _fit, record_warnings=True)
    tracer.hook("scoreline.regress.base:ModelBase.predict", _regress_predict)
    tracer.hook("scoreline.regress.tree:best_split", _best_split)
    tracer.hook("scoreline.regress.knn:knn_neighbor_means", _knn)
    tracer.hook("scoreline.cli:save_model", _store_save)
    tracer.hook("scoreline.cli:load_model", _store_load)
    tracer.hook("scoreline.predict:ModelPairPredictor.predict", _pair_predict)
    tracer.hook("scoreline.predict:HeuristicPredictor.predict", _fixed("heuristics.predict_s"))
    for name in EVALUATE_FUNCTIONS:
        tracer.hook(f"scoreline.cli:{name}", _fixed("evaluate.metrics_s"))
