"""Reference figures for the README; they are not benchmark metrics.

    python3 perfbench/reference.py

Prints, as Markdown:
* each workload's sweep under cProfile, split by layer (the package's
  modules). A layer's share is the time spent inside it minus the time of
  the calls it makes into other layers, read from cProfile's caller edges;
  daily-jobs2 is profiled at jobs=1 because cProfile sees only one process;
* daily-jobs2's sweep at jobs=1 and jobs=2 without the profiler;
* fit+predict milliseconds per model at its fixed configuration, on monthly
  (n=60) and daily (n=730) series.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import cProfile
import pstats
import statistics
import sys
import tempfile
import time
import warnings
from pathlib import Path

import numpy as np

import workloads

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from hef_lab.config import build_experiment_config, parse_config_file  # noqa: E402
from hef_lab.errors import HefLabError  # noqa: E402
from hef_lab.models import available_models, create  # noqa: E402
from hef_lab.protocol import run_experiment  # noqa: E402
from hef_lab.series import load_dataset_csv  # noqa: E402

SEED = 1  # the seed of every input below
LAYERS = ("series", "config", "models", "metrics", "evaluation", "optimizers", "protocol", "stats")


def _layer(filename: str) -> str | None:
    path = Path(filename)
    if "hef_lab" not in path.parts:
        return None
    if path.parent.name == "models":
        return "models"
    return {"spaces": "optimizers", "cli": "config"}.get(path.stem, path.stem)


def layer_shares(profile: cProfile.Profile) -> dict[str, float]:
    """Self time per layer as a share of the profiled total."""
    stats = pstats.Stats(profile).stats
    entered = dict.fromkeys(LAYERS, 0.0)
    left = dict.fromkeys(LAYERS, 0.0)
    for (filename, _, _), (_, _, _, cumtime, callers) in stats.items():
        callee = _layer(filename)
        if callee is None:
            continue
        if not callers:  # the profiled entry point itself
            entered[callee] += cumtime
        for (caller_file, _, _), (_, _, _, cumtime) in callers.items():
            caller = _layer(caller_file)
            if caller != callee:
                entered[callee] += cumtime
                if caller is not None:
                    left[caller] += cumtime
    total = sum(entered[layer] - left[layer] for layer in LAYERS)
    return {layer: (entered[layer] - left[layer]) / total for layer in LAYERS}


def _sweep(w: workloads.Workload, jobs: int, profile: cProfile.Profile | None = None) -> float:
    (ROOT / ".perfbench-work").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench-work") as tmp:
        data, cfg = w.write(Path(tmp))
        config = build_experiment_config(parse_config_file(cfg))
        dataset = load_dataset_csv(data)
        started = time.perf_counter()
        if profile is not None:
            profile.enable()
        run_experiment(dataset, config, Path(tmp) / "results.csv", jobs=jobs)
        if profile is not None:
            profile.disable()
        return time.perf_counter() - started


def fit_predict_ms(series: tuple[workloads.Series, ...], repeats: int) -> dict[str, str]:
    out = {}
    for name in available_models():
        times, failures = [], 0
        for s in series[:repeats]:
            train, test = s.values[: len(s.values) * 4 // 5], s.values[len(s.values) * 4 // 5 :]
            model = create(name, season_length=12 if s.frequency == "monthly" else 365)
            started = time.perf_counter()
            try:
                model.fit(train, model.fixed_config()).predict(len(test))
            except (HefLabError, ValueError):
                failures += 1
                continue
            times.append((time.perf_counter() - started) * 1000.0)
        median = f"{statistics.median(times):.2f}" if times else "-"
        out[name] = median + (f" ({failures}/{repeats} fail)" if failures else "")
    return out


def main() -> int:
    warnings.simplefilter("ignore", RuntimeWarning)

    print("| workload | sweep s (profiled) | " + " | ".join(LAYERS) + " |")
    print("|---" * (len(LAYERS) + 2) + "|")
    for name in workloads.WORKLOADS:
        profile = cProfile.Profile()
        elapsed = _sweep(workloads.make(name, SEED), jobs=1, profile=profile)
        shares = layer_shares(profile)
        print(f"| {name} | {elapsed:.1f} | " + " | ".join(f"{100 * shares[l]:.1f}%" for l in LAYERS) + " |")

    daily = workloads.make("daily-jobs2", SEED)
    print(f"\ndaily-jobs2 sweep: jobs=1 {_sweep(daily, 1):.2f} s, jobs=2 {_sweep(daily, 2):.2f} s\n")

    rng = np.random.default_rng(SEED)
    monthly = fit_predict_ms(workloads.monthly_fleet(rng, 10), repeats=10)
    daily_ms = fit_predict_ms(workloads.daily_fleet(rng, 3), repeats=3)
    print("| model | monthly n=60 ms | daily n=730 ms |\n|---|---|---|")
    for name in monthly:
        print(f"| {name} | {monthly[name]} | {daily_ms[name]} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
