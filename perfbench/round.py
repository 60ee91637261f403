"""One round of a workload: a batch job in a fresh process.

    python3 perfbench/round.py INPUTS STORE [--setup-only | --analysis] [--trace]

INPUTS holds ``data.csv``, ``experiment.cfg`` and ``job.json`` (the job
count). The round drives the entry points ``hef-lab run`` uses: it sets up
(imports ``hef_lab``, parses the config, loads the dataset) and runs the
sweep into the new results store STORE. It prints one JSON line of timings.
``--setup-only`` stops after the set-up. ``--analysis`` sets up and then,
instead of the sweep, analyses the existing STORE as ``hef-lab compare`` and
``report`` do, each a process of its own. ``--trace`` wraps the package's
layers first, analyses the store once after the sweep, and adds the
per-layer metrics, which it works out from the spans in memory.
"""

from __future__ import annotations

import os

# BLAS thread pools must be sized before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAIR = ("hef", "maef")
ANALYSIS_MIN_S = 3.0
ANALYSIS_MIN_REPEATS = 3


def main(argv: list[str]) -> int:
    started = time.perf_counter()
    inputs, store_path = Path(argv[0]), Path(argv[1])
    trace = "--trace" in argv
    sys.path.insert(0, str(ROOT / "src"))

    from hef_lab.config import build_experiment_config, parse_config_file
    from hef_lab.errors import HefLabError
    from hef_lab.metrics import METRIC_NAMES
    from hef_lab.protocol import (
        ResultsStore,
        case_tables_by_group,
        count_cases,
        improvement_rows,
        run_experiment,
        z_summary,
    )
    from hef_lab.series import load_dataset_csv

    tracer = None
    if trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()

    def span(name, fn, *args, **kwargs):
        return fn(*args, **kwargs) if tracer is None else tracer.call(name, fn, *args, **kwargs)

    jobs = json.loads((inputs / "job.json").read_text())["jobs"]
    config = build_experiment_config(parse_config_file(inputs / "experiment.cfg"))
    dataset = span("series.load", load_dataset_csv, inputs / "data.csv")
    setup_done = time.perf_counter()

    def analyse(once: bool = False) -> list[float]:
        """What ``compare`` and ``report`` compute from the store: the seconds
        of each pass. The pass takes milliseconds on small stores, so it is
        repeated until ANALYSIS_MIN_S have passed (at least
        ANALYSIS_MIN_REPEATS times): the passes then span several of the
        host's speed swings, as one long sweep does."""
        times: list[float] = []
        while True:
            t0 = time.perf_counter()
            store = span("protocol.store_load", ResultsStore, store_path)
            tables = span("protocol.count_cases", case_tables_by_group, store.rows, PAIR, alpha=config.alpha)
            for table in tables:
                for scope in (None, *METRIC_NAMES):
                    try:
                        z_summary(table, metric=scope, alpha=config.alpha)
                    except HefLabError:
                        continue  # degenerate counts for this scope, as in ``compare``
            improvement_rows(store.rows, PAIR)
            times.append(time.perf_counter() - t0)
            if once or (len(times) >= ANALYSIS_MIN_REPEATS and sum(times) >= ANALYSIS_MIN_S):
                return times

    if "--setup-only" in argv:
        print(json.dumps({"setup_s": setup_done - started}))
        return 0
    if "--analysis" in argv:
        passes = analyse()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # ru_maxrss is KiB
        print(json.dumps({"setup_s": setup_done - started, "analysis_passes_s": passes, "peak_rss_mb": peak_rss_mb}))
        return 0

    stamps: list[float] = []
    sweep_started = time.perf_counter()
    summary = span(
        "protocol.run_experiment",
        run_experiment,
        dataset,
        config,
        store_path,
        jobs=jobs,
        progress=lambda done, total: stamps.append(time.perf_counter()),
    )
    sweep_done = time.perf_counter()

    if tracer is not None:
        analyse(once=True)  # one traced analysis is enough for the layer figures

    own = resource.getrusage(resource.RUSAGE_SELF)
    workers = resource.getrusage(resource.RUSAGE_CHILDREN)
    result = {
        "setup_s": setup_done - started,
        "sweep_s": sweep_done - sweep_started,
        "peak_rss_mb": max(own.ru_maxrss, workers.ru_maxrss) / 1024.0,  # ru_maxrss is KiB
        "attempted": summary.executed,
        "failed": len(summary.failures),
        "failures": [[*f.key.as_tuple(), f.reason] for f in summary.failures],
    }
    if tracer is not None:
        import numpy as np

        gaps = np.diff([sweep_started, *stamps]) * 1000.0
        layers = tracing.layer_metrics(tracer.spans())
        layers["protocol.task_ms_p50"] = float(np.quantile(gaps, 0.5))
        layers["protocol.task_ms_p99"] = float(np.quantile(gaps, 0.99))
        layers["process.cpu_s"] = own.ru_utime + own.ru_stime + workers.ru_utime + workers.ru_stime
        result["layers"] = layers
    # pooled verdicts for the directional check, counted after the spans were taken
    pooled = count_cases(ResultsStore(store_path).rows, PAIR, alpha=config.alpha)
    result["cases"] = {m: pooled.improvements(m) for m in METRIC_NAMES}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
