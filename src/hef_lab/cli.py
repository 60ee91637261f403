"""Command-line entry point: validate, sample, run, compare, report.

Exit codes: 0 success, 1 validation failure (bad data or configuration),
2 runtime error.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

from .config import build_experiment_config, parse_config_file, parse_override
from .errors import (
    ConfigError,
    DatasetFormatError,
    HefLabError,
    InvalidParameterError,
    UnknownModelError,
)
from .metrics import METRIC_NAMES
from .protocol import (
    ResultsStore,
    case_tables_by_group,
    improvement_rows,
    run_experiment,
    z_summary,
)
from .series import load_dataset_csv, sample_size, scan_dataset_csv, stratified_sample, write_dataset_csv

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hef-lab",
        description="Composite-evaluation demand forecasting experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="check a dataset CSV against the schema")
    p_validate.add_argument("--data", required=True, help="dataset CSV path")
    p_validate.add_argument("--out", help="directory for the machine-readable issue list")

    p_sample = sub.add_parser("sample", help="draw a stratified sample sized for the population")
    p_sample.add_argument("--data", required=True)
    p_sample.add_argument("--out", required=True, help="output directory")
    p_sample.add_argument("--confidence", type=float, default=0.99)
    p_sample.add_argument("--margin", type=float, default=0.05)
    p_sample.add_argument("--proportion", type=float, default=0.5)
    p_sample.add_argument("--seed", type=int, default=0)

    p_run = sub.add_parser("run", help="execute the experiment sweep into a results store")
    p_run.add_argument("--config", required=True, help="flat dotted-key config file")
    p_run.add_argument("--data", required=True)
    p_run.add_argument("--out", required=True)
    p_run.add_argument("--jobs", type=int, default=1, help="concurrent tasks")
    p_run.add_argument("--seed", type=int, default=None, help="master seed override")
    p_run.add_argument("--set", dest="overrides", action="append", default=[], metavar="KEY=VALUE")

    p_compare = sub.add_parser("compare", help="build case tables and Z summaries from a store")
    p_compare.add_argument("--out", required=True, help="directory containing results.csv")
    p_compare.add_argument("--pair", default="hef,maef", help="two conditions, comma separated")
    p_compare.add_argument("--alpha", type=float, default=0.05)

    p_report = sub.add_parser("report", help="emit per-metric improvement distributions")
    p_report.add_argument("--out", required=True, help="directory containing results.csv")
    p_report.add_argument("--pair", default="hef,maef")

    return parser


def _parse_pair(text: str) -> tuple[str, str]:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 2 or not all(parts):
        raise InvalidParameterError(f"--pair must name two conditions, got {text!r}")
    return parts[0], parts[1]


def _cmd_validate(args: argparse.Namespace) -> int:
    series, issues = scan_dataset_csv(args.data)
    print(f"{args.data}: {len(series)} series parsed, {len(issues)} issue(s)")
    for issue in issues:
        where = f"line {issue.line}" if issue.line is not None else "file"
        who = f" [{issue.series_id}]" if issue.series_id else ""
        print(f"  {where}{who}: {issue.message}")
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        with (out / "issues.jsonl").open("w") as fh:
            for issue in issues:
                fh.write(json.dumps(issue.as_dict()) + "\n")
    return EXIT_OK if not issues else EXIT_VALIDATION


def _cmd_sample(args: argparse.Namespace) -> int:
    dataset = load_dataset_csv(args.data)
    target = sample_size(len(dataset), args.confidence, args.margin, args.proportion)
    sampled = stratified_sample(dataset, target, seed=args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "sample.csv"
    write_dataset_csv(sampled, path)
    strata: dict[str, int] = {}
    for s in sampled.series:
        strata[sampled.strata[s.id]] = strata.get(sampled.strata[s.id], 0) + 1
    print(f"population {len(dataset)} -> target {target} (seed {args.seed})")
    for label in sorted(strata):
        print(f"  stratum {label}: {strata[label]} series")
    print(f"wrote {path}")
    return EXIT_OK


def _cmd_run(args: argparse.Namespace) -> int:
    if args.jobs < 1:
        raise InvalidParameterError(f"--jobs must be >= 1, got {args.jobs}")
    flat = parse_config_file(args.config)
    for override in args.overrides:
        key, value = parse_override(override)
        flat[key] = value
    config = build_experiment_config(flat, seed_override=args.seed)
    dataset = load_dataset_csv(args.data)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    store_path = out / "results.csv"

    def progress(done: int, total: int) -> None:
        if total and (done % max(1, total // 20) == 0 or done == total):
            print(f"  {done}/{total} tasks", flush=True)

    summary = run_experiment(dataset, config, store_path, jobs=args.jobs, progress=progress)
    with (out / "failures.jsonl").open("w") as fh:
        for failure in summary.failures:
            fh.write(
                json.dumps({"task": failure.key.as_tuple(), "reason": failure.reason}) + "\n"
            )
    print(
        f"budget: {summary.total} tasks = "
        f"{len(dataset)} series x {len(config.splits)} splits x {len(config.models)} models x "
        f"{len(config.conditions)} conditions x {config.repetitions} reps"
    )
    print(
        f"executed {summary.executed}, resumed-skip {summary.skipped}, "
        f"failed {len(summary.failures)}; store: {store_path}"
    )
    return EXIT_OK


def _slug(text: str) -> str:
    return text.replace(":", "-").replace("/", "-")


def _completed_store(out: Path) -> ResultsStore:
    store = ResultsStore(out / "results.csv")
    if len(store) == 0:
        raise InvalidParameterError(f"no completed results in {out / 'results.csv'}")
    return store


def _cmd_compare(args: argparse.Namespace) -> int:
    pair = _parse_pair(args.pair)
    out = Path(args.out)
    store = _completed_store(out)
    tables = case_tables_by_group(store.rows, pair, alpha=args.alpha)
    summary_rows = []
    case_columns = ("metric", f"improves_{pair[0]}", f"improves_{pair[1]}", "no_change", "comparisons", "constant")
    for table in tables:
        name = f"cases_{pair[0]}_vs_{pair[1]}_{_slug(table.split or 'all')}_{table.optimizer or 'all'}.csv"
        with (out / name).open("w", newline="") as fh:
            print(f"{name}:")
            writer = csv.writer(fh)
            writer.writerow(case_columns)
            for metric in METRIC_NAMES:
                a, b, none = table.improvements(metric)
                n = table.constant[metric]
                writer.writerow([metric, a, b, none, table.comparisons[metric], n])
                print(f"  {metric:>9}: improves_{pair[0]}={a} improves_{pair[1]}={b} no_change={none} constant={n}")
        scopes: list[str | None] = [None, *METRIC_NAMES]
        for scope in scopes:
            try:
                result = z_summary(table, metric=scope, alpha=args.alpha)
            except HefLabError:
                continue  # degenerate counts for this scope
            summary_rows.append(
                [
                    f"{pair[0]}_vs_{pair[1]}",
                    table.optimizer or "all",
                    table.split or "all",
                    scope or "pooled",
                    f"{result.statistic:.4f}",
                    f"{result.log10_p:.4f}" if result.log10_p is not None else "",
                ]
            )
    z_path = out / f"z_summary_{pair[0]}_vs_{pair[1]}.csv"
    with z_path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["pair", "optimizer", "split", "metric_scope", "Z", "log10_p"])
        writer.writerows(summary_rows)
    print(f"wrote {z_path}")
    return EXIT_OK


def _cmd_report(args: argparse.Namespace) -> int:
    pair = _parse_pair(args.pair)
    out = Path(args.out)
    store = _completed_store(out)
    tables = improvement_rows(store.rows, pair)
    report_dir = out / "report"
    report_dir.mkdir(parents=True, exist_ok=True)
    columns = ("series_id", "model", "split", "optimizer", "metric", "pct_improvement")
    for metric in METRIC_NAMES:
        path = report_dir / f"improvement_{metric}.csv"
        with path.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(columns)
            for row in tables[metric]:
                writer.writerow([row[c] if c != "pct_improvement" else f"{row[c]:.6f}" for c in columns])
        print(f"wrote {path} ({len(tables[metric])} rows)")
    return EXIT_OK


_COMMANDS = {
    "validate": _cmd_validate,
    "sample": _cmd_sample,
    "run": _cmd_run,
    "compare": _cmd_compare,
    "report": _cmd_report,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ConfigError, DatasetFormatError, InvalidParameterError, UnknownModelError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (HefLabError, OSError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
