"""Layer spans for a traced round, recorded from outside the package.

``Tracer.install`` replaces the public functions of each layer at the names
their callers look up (``hef_lab.protocol.r2``, each registered model's
``fit`` and so on) with wrappers that record a span: name, start, end and the
index of the enclosing span. Spans stay in flat arrays in memory; when the
round ends, ``layer_metrics`` turns them into the per-layer figures that the
round prints.

Worker processes of a ``jobs > 1`` sweep are forked with the wrappers in
place. The task wrapper hands a worker's spans back inside the task result:
they are unpickled in the parent by ``_deliver``, so the trace covers the
workers as well as the parent.
"""

from __future__ import annotations

import hashlib
import math
import os
import time
from array import array

import numpy as np

# The task wrapper is pickled by reference into worker processes, so it must
# find the tracer through the module rather than through a closure.
_ACTIVE: "Tracer | None" = None

# every model any workload runs; each gets a fit_ms_p50 metric
MODEL_NAMES = ("ses", "lr", "knn", "rr", "lsr", "enr", "hr", "dtr", "plr")


class Tracer:
    def __init__(self) -> None:
        self.pid = os.getpid()
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.tag = array("q")  # fit identity digest, failed-eval or constant-pair flag
        self._stack: list[int] = []
        self._worker_batches: list[tuple] = []

    # --- recording ------------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.tag.append(0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        return self.wrap(name, fn)(*args, **kwargs)

    def wrap(self, name: str, fn, tag=None):
        """``fn`` recording a span called ``name``. ``tag(args, result)`` sets
        the span's tag when the call ends; ``result`` is None if ``fn`` raised."""
        nid = self._id(name)

        def traced(*args, **kwargs):
            idx = self._open(nid)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self._close(idx)
                if tag is not None:
                    self.tag[idx] = tag(args, result)

        return traced

    # --- installation -----------------------------------------------------------

    def install(self) -> None:
        """Wrap every layer's entry points; the round process never unwraps them."""
        global _ACTIVE
        from hef_lab import evaluation, protocol
        from hef_lab.models import FittedModel, available_models, model_class

        for attr, name in (
            ("r2", "metrics.r2"),
            ("mae", "metrics.mae"),
            ("rmse", "metrics.rmse"),
            ("compute_bundle", "metrics.bundle"),
            ("temporal_split", "series.split"),
            ("grid_search", "optimizers.grid"),
            ("pso_minimize", "optimizers.pso"),
            ("tpe_minimize", "optimizers.tpe"),
        ):
            setattr(protocol, attr, self.wrap(name, getattr(protocol, attr)))
        for attr, name in (
            ("hef_score", "evaluation.hef"),
            ("maef_score", "evaluation.maef"),
            ("coefficient_of_variation", "evaluation.cv"),
        ):
            setattr(evaluation, attr, self.wrap(name, getattr(evaluation, attr)))
        protocol.ResultsStore.append = self.wrap("protocol.store_append", protocol.ResultsStore.append)
        protocol._Objective.__call__ = self.wrap(
            "protocol.objective", protocol._Objective.__call__, tag=_failed_eval
        )
        protocol.compare_paired_runs = self.wrap(
            "stats.compare", protocol.compare_paired_runs, tag=_constant_pair
        )
        for model_name in available_models():
            cls = model_class(model_name)
            cls.fit = self.wrap(f"models.fit.{model_name}", cls.fit, tag=_fit_identity(model_name))
        for cls in _subclasses(FittedModel):
            if "predict" in cls.__dict__:
                cls.predict = self.wrap("models.predict", cls.__dict__["predict"])
        self.task = self.wrap("protocol.task", protocol._execute_task)
        protocol._execute_task = _traced_execute_task
        _ACTIVE = self

    # --- worker hand-back -------------------------------------------------------

    def _take_since(self, mark: int) -> tuple:
        """Remove the spans recorded since ``mark``; parents outside them become roots."""
        names = [self.names[i] for i in self.name[mark:]]
        parent = np.array(self.parent[mark:], dtype=np.int64)
        batch = (
            names,
            np.array(self.start[mark:], dtype=float),
            np.array(self.end[mark:], dtype=float),
            np.where(parent >= mark, parent - mark, -1),
            np.array(self.tag[mark:], dtype=np.int64),
        )
        for arr in (self.name, self.start, self.end, self.parent, self.tag):
            del arr[mark:]
        return batch

    # --- output -----------------------------------------------------------------

    def spans(self) -> dict[str, np.ndarray]:
        """All spans, the parent's first, then each worker batch re-indexed."""
        names = [self.names[i] for i in self.name]
        starts = [np.frombuffer(self.start, dtype=float)]
        ends = [np.frombuffer(self.end, dtype=float)]
        parents = [np.frombuffer(self.parent, dtype=np.int64)]
        tags = [np.frombuffer(self.tag, dtype=np.int64)]
        for b_names, b_start, b_end, b_parent, b_tag in self._worker_batches:
            base = len(names)
            names.extend(b_names)
            starts.append(b_start)
            ends.append(b_end)
            parents.append(np.where(b_parent >= 0, b_parent + base, -1))
            tags.append(b_tag)
        vocab = sorted(set(names))
        index = {n: i for i, n in enumerate(vocab)}
        return {
            "vocab": np.array(vocab),
            "name": np.array([index[n] for n in names], dtype=np.int32),
            "start": np.concatenate(starts),
            "end": np.concatenate(ends),
            "parent": np.concatenate(parents),
            "tag": np.concatenate(tags),
        }


def _fit_identity(model_name: str):
    """Tag of a fit span: a digest of (model, training values, config)."""

    def tag(args, result) -> int:
        _, train, config = args
        digest = hashlib.blake2b(np.asarray(train, dtype=float).tobytes(), digest_size=8)
        digest.update(model_name.encode())
        digest.update(repr(sorted(dict(config).items())).encode())
        return int.from_bytes(digest.digest(), "big", signed=True)

    return tag


def _failed_eval(args, score) -> int:
    """Tag of an objective span: 1 when the evaluation raised or scored non-finite."""
    return int(score is None or not math.isfinite(score))


def _constant_pair(args, result) -> int:
    """Tag of a comparison span: 1 when both repetition groups are constant."""
    a, b = args[:2]
    return int(len(set(a)) == 1 and len(set(b)) == 1)


class _WorkerResult(tuple):
    """A task result that carries the worker's spans back to the parent."""

    def __reduce__(self):
        return _deliver, (tuple(self), self.batch)


def _deliver(result: tuple, batch: tuple) -> tuple:
    # Runs in the parent's result thread; one list append is atomic.
    if _ACTIVE is not None:
        _ACTIVE._worker_batches.append(batch)
    return result


def _traced_execute_task(key, dataset, config):
    tracer = _ACTIVE
    mark = len(tracer.start)
    result = tracer.task(key, dataset, config)
    if os.getpid() == tracer.pid:
        return result
    wrapped = _WorkerResult(result)
    wrapped.batch = tracer._take_since(mark)
    return wrapped


def _subclasses(cls: type) -> list[type]:
    out = []
    for sub in cls.__subclasses__():
        out.append(sub)
        out.extend(_subclasses(sub))
    return out


# --- per-layer metrics ----------------------------------------------------------


def layer_metrics(spans: dict[str, np.ndarray]) -> dict[str, float]:
    """Per-layer counts and seconds from one round's spans.

    A layer's self time is its span's duration minus the time its direct
    child spans cover. Models absent from the workload report 0.
    """
    vocab = [str(v) for v in spans["vocab"]]
    name, parent, tag = spans["name"], spans["parent"], spans["tag"]
    dur = spans["end"] - spans["start"]
    child = np.zeros_like(dur)
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    self_time = dur - child

    def mask(*names: str, prefix: str | None = None) -> np.ndarray:
        ids = [i for i, v in enumerate(vocab) if v in names or (prefix and v.startswith(prefix))]
        return np.isin(name, ids)

    fits = mask(prefix="models.fit.")
    predicts = mask("models.predict")
    tasks = mask("protocol.task")
    objectives = mask("protocol.objective")
    scores = mask("evaluation.hef", "evaluation.maef")
    cvs = mask("evaluation.cv")
    metric_calls = mask("metrics.r2", "metrics.mae", "metrics.rmse", "metrics.bundle")
    compares = mask("stats.compare")
    in_task = np.zeros_like(fits)
    in_task[has_parent] = tasks[parent[has_parent]]

    out: dict[str, float] = {
        "series.load_s": float(dur[mask("series.load")].sum()),
        "series.split_s": float(dur[mask("series.split")].sum()),
        "models.fit_calls": int(fits.sum()),
        "models.fit_s": float(dur[fits].sum()),
        "models.predict_s": float(dur[predicts].sum()),
        "models.distinct_fit_ratio": (len(np.unique(tag[fits])) / int(fits.sum())) if fits.any() else 0.0,
        "metrics.calls": int(metric_calls.sum()),
        "metrics.s": float(dur[metric_calls].sum()),
        "evaluation.score_calls": int(scores.sum()),
        "evaluation.score_s": float(dur[scores].sum()),
        "evaluation.cv_calls": int(cvs.sum()),
        "evaluation.cv_s": float(dur[cvs].sum()),
        "optimizers.evals": int(objectives.sum()),
        "optimizers.failed_evals": int(tag[objectives].sum()),
        "protocol.tasks": int(tasks.sum()),
        "protocol.final_fit_s": float(dur[(fits | predicts) & in_task].sum()),
        "protocol.store_append_s": float(dur[mask("protocol.store_append")].sum()),
        "protocol.parent_self_s": float(self_time[mask("protocol.run_experiment")].sum()),
        "protocol.store_load_s": float(dur[mask("protocol.store_load")].sum()),
        "protocol.count_cases_s": float(dur[mask("protocol.count_cases")].sum()),
        "stats.compare_calls": int(compares.sum()),
        "stats.compare_s": float(dur[compares].sum()),
        "stats.constant_pairs": int(tag[compares].sum()),
    }
    for kind in ("grid", "pso", "tpe"):
        out[f"optimizers.{kind}.self_s"] = float(self_time[mask(f"optimizers.{kind}")].sum())
    for model in MODEL_NAMES:
        fit_s = dur[mask(f"models.fit.{model}")]
        out[f"models.{model}.fit_ms_p50"] = float(np.median(fit_s)) * 1000.0 if fit_s.size else 0.0
    return out
