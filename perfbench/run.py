"""Benchmark of the hef-lab sweep: one workload, one seed, one run.

    python3 perfbench/run.py --workload fleet-pso --seed 1 --seconds 36 --trace 0

The run writes the workload's seeded inputs (a dataset CSV and a config file)
under ``.perfbench-work/``, then repeats rounds for ``--seconds``: each round
is one batch job in a fresh process (``round.py``), a closed loop of one,
followed by one more process that sets up again and analyses the round's
store, as ``hef-lab compare`` and ``report`` would. The
first round's store is checked against independent recomputations, and every
round's store must have the same digest. The last stdout line is one JSON
object: ``correct``, ``attempted`` and ``failed`` tasks, and the medians of
the end-to-end metrics (``--trace 0``) or the per-layer metrics from traced
rounds (``--trace 1``). The exit code is 0 when every check passes, 1 when a
check fails and 2 when the run cannot be made.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
ROUND_TIMEOUT_S = 150.0
MIN_SETUPS = 5


def _parse(argv: list[str]) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="shrink the workload to a few seconds")
    return p.parse_args(argv)


def _round(inputs: Path, store: Path, *flags: str) -> dict:
    """Run round.py in its own process group; kill the group if it overruns."""
    store.parent.mkdir(parents=True, exist_ok=True)
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "round.py"), str(inputs), str(store), *flags],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=ROUND_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"round {store.parent.name} exceeded {ROUND_TIMEOUT_S:.0f} s") from None
    if proc.returncode != 0:
        raise RuntimeError(f"round {store.parent.name} exited {proc.returncode}:\n{err[-2000:]}")
    return json.loads(out.strip().splitlines()[-1])


def _units() -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def measure(w: workloads.Workload, work: Path, seconds: float, trace: bool) -> dict:
    """Rounds while the next one would end within half a round of ``seconds``;
    returns per-round results and set-up samples."""
    inputs = work / "inputs"
    w.write(inputs)
    (inputs / "job.json").write_text(json.dumps({"jobs": w.jobs}))
    _round(inputs, work / "warm" / "results.csv", "--setup-only")  # compiles bytecode, warms the page cache

    plain, traced, setups, analyses, walls = [], [], [], [], []
    started = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        k = len(plain)
        store = work / f"round-{k}" / "results.csv"
        plain.append(_round(inputs, store))
        setups.append(plain[-1]["setup_s"])
        if trace:
            traced.append(_round(inputs, work / f"traced-{k}" / "results.csv", "--trace"))
        else:
            analysis = _round(inputs, store, "--analysis")
            setups.append(analysis["setup_s"])
            analyses.append(analysis)
        walls.append(time.perf_counter() - t0)
        if time.perf_counter() - started + 0.5 * statistics.median(walls) > seconds:
            break  # the next round would end well after the run's time
    while len(setups) < MIN_SETUPS and not trace:
        setups.append(_round(inputs, work / "setup-extra" / "results.csv", "--setup-only")["setup_s"])
    return {"plain": plain, "traced": traced, "setups": setups, "analyses": analyses}


def verify(w: workloads.Workload, work: Path, rounds: list[dict], n_plain: int) -> tuple[list[str], str]:
    """Check the first store in full; every other store must match its digest."""
    rows = checks.read_store(work / "round-0" / "results.csv")
    failed = {tuple(f[:5]) for f in rounds[0]["failures"]}
    findings = checks.check_store(w, rows, failed)
    if w.name == "fleet-pso":
        findings += checks.check_bands(w) + checks.check_direction(rounds[0]["cases"])
    first = checks.digest(rows)
    names = [f"round-{k}" for k in range(1, n_plain)] + [f"traced-{k}" for k in range(len(rounds) - n_plain)]
    for name in names:
        other = checks.digest(checks.read_store(work / name / "results.csv"))
        if other != first:
            findings.append(f"{name}: store digest {other} differs from round-0 {first}")
    return findings, first


def summarize(result: dict, trace: bool, units: dict[str, str]) -> dict[str, dict]:
    plain, traced = result["plain"], result["traced"]
    med = statistics.median
    if not trace:
        values = {
            "setup_s": med(result["setups"]),
            "sweep_s": med(r["sweep_s"] for r in plain),
            "analysis_s": med(t for a in result["analyses"] for t in a["analysis_passes_s"]),
            "peak_rss_mb": med(max(r["peak_rss_mb"], a["peak_rss_mb"]) for r, a in zip(plain, result["analyses"])),
        }
    else:
        values = {name: med(r["layers"][name] for r in traced) for name in traced[0]["layers"]}
        values["trace.overhead_s"] = med(r["sweep_s"] for r in traced) - med(r["sweep_s"] for r in plain)
    return {name: {"value": values[name], "unit": units[name]} for name in values}


def main(argv: list[str]) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "hef_lab" / "__init__.py").is_file():
        print(f"error: no hef_lab package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    units = _units()
    w = workloads.make(args.workload, args.seed, tiny=args.tiny)
    work = ROOT / ".perfbench-work" / f"{w.name}-{args.seed}-{os.getpid()}"
    try:
        result = measure(w, work, args.seconds, bool(args.trace))
        rounds = result["plain"] + result["traced"]
        findings, store_digest = verify(w, work, rounds, len(result["plain"]))
        metrics = summarize(result, bool(args.trace), units)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for k, r in enumerate(result["plain"]):
        print(
            f"round {k}: setup {r['setup_s']:.3f} s, sweep {r['sweep_s']:.3f} s, "
            f"peak rss {r['peak_rss_mb']:.1f} MB, {r['attempted']} tasks, {r['failed']} failed"
        )
    print(f"setup samples: {', '.join(f'{s:.3f}' for s in result['setups'])}")
    if result["analyses"]:
        samples = ", ".join(f"{statistics.median(a['analysis_passes_s']):.4f}" for a in result["analyses"])
        print(f"analysis medians per round: {samples}")
    print(f"store digest (without exec_time): {store_digest}")
    for finding in findings[:20]:
        print(f"CHECK FAILED: {finding}")
    summary = {
        "correct": not findings,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0 if not findings else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
