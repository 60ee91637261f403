"""The benchmark's tracer still finds every name it wraps.

``perfbench/tracer.py`` wraps the package's layers at the names their callers
look up (``protocol.pso_minimize``, ``protocol._execute_task``,
``_Objective.__call__``, each model's ``fit``, ...). A rename breaks only the
traced benchmark rounds, so this test installs the tracer in a fresh process,
runs a traced one-series sweep per search (swarm, grid and Parzen), and checks
that each completes with the untraced store's digest and records its spans,
each model's fit spans exactly as many as the fits its sweep makes.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from hef_lab.models import model_class

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import json, sys
from pathlib import Path

sys.path[:0] = [sys.argv[1], sys.argv[2]]
import numpy as np

import checks
from hef_lab.optimizers import PsoConfig, TpeConfig
from hef_lab.protocol import ExperimentConfig, run_experiment
from hef_lab.series import Dataset, Frequency, TimeSeries

out = Path(sys.argv[3])
t = np.arange(60)
values = 50.0 + 0.2 * t + 5.0 * np.sin(2 * np.pi * t / 12) + np.random.default_rng(26).normal(0.0, 4.0, 60)
dataset = Dataset("one", (TimeSeries("s0", Frequency.MONTHLY, tuple(values.tolist())),))
configs = {
    "pso": ExperimentConfig(models=("ses", "knn"), repetitions=3, pso=PsoConfig(swarm_size=4, iterations=3)),
    "tpe": ExperimentConfig(
        models=("rr",), scs_optimizer="tpe", repetitions=3, tpe=TpeConfig(trials=4, startup=2)
    ),
}
plain = {}
for name, config in configs.items():
    run_experiment(dataset, config, out / f"plain-{name}.csv")
    plain[name] = checks.digest(checks.read_store(out / f"plain-{name}.csv"))

import tracer

active = tracer.Tracer()
active.install()
report = {}
for name, config in configs.items():
    summary = run_experiment(dataset, config, out / f"traced-{name}.csv")
    report[name] = {
        "failures": len(summary.failures),
        "executed": summary.executed,
        "digest_equal": checks.digest(checks.read_store(out / f"traced-{name}.csv")) == plain[name],
    }
spans = active.spans()
counts = {str(v): int((spans["name"] == i).sum()) for i, v in enumerate(spans["vocab"])}
report["spans"] = counts
report["layers"] = tracer.layer_metrics(spans)
print(json.dumps(report))
"""


def test_traced_sweeps_complete_with_the_untraced_digest(tmp_path) -> None:
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "src"), str(ROOT / "perfbench"), str(tmp_path)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    for name, tasks in (("pso", 2 * 2 * 3), ("tpe", 2 * 3)):
        assert report[name] == {"failures": 0, "executed": tasks, "digest_equal": True}
    spans = report["spans"]
    for name in (
        "optimizers.pso",
        "optimizers.grid",
        "optimizers.tpe",
        "models.predict",
        "series.split",
        "protocol.store_append",
    ):
        assert spans.get(name, 0) > 0, name
    assert report["layers"]["protocol.tasks"] == 2 * 2 * 3 + 2 * 3
    # every fit a sweep makes passes through its class's fit, per condition: each swarm rep's 4 x 3 points
    # and its final fit, knn's 15-point grid once and one final fit, each Parzen rep's 4 trials and its final fit
    knn_grid = model_class("knn").declared_space.grid_size()
    assert (spans["models.fit.ses"], spans["models.fit.knn"], spans["models.fit.rr"]) == (
        2 * 3 * (4 * 3 + 1),
        2 * (knn_grid + 1),
        2 * 3 * (4 + 1),
    )
    # one lockstep swarm search per (cell, condition), one grid search per unit, one Parzen search per rep
    assert (spans["optimizers.pso"], spans["optimizers.grid"], spans["optimizers.tpe"]) == (2, 2, 6)
    # grid and Parzen points are scored one by one through the objective, which the traced
    # optimizers.evals counts: knn's grid per condition and each Parzen rep's 4 trials
    assert spans["protocol.objective"] == 2 * knn_grid + 2 * 3 * 4
