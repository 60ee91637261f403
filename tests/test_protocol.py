"""Protocol budget arithmetic, determinism, resume, case counting, Z summaries."""

from __future__ import annotations

import csv
import io
import itertools
import math
import multiprocessing
import re
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from hef_lab import protocol
from hef_lab.config import build_experiment_config
from hef_lab.errors import ConfigError, InsufficientDataError, InvalidParameterError, UnknownModelError
from hef_lab.metrics import METRIC_NAMES, compute_bundle
from hef_lab.models import create, model_class
from hef_lab.models.smoothing import FittedSes
from hef_lab.optimizers import PsoConfig, TpeConfig
from hef_lab.protocol import (
    VERDICT_A,
    required_metrics,
    VERDICT_B,
    VERDICT_NONE,
    CaseTable,
    ExperimentConfig,
    ResultsStore,
    case_tables_by_group,
    count_cases,
    derive_seed,
    improvement_rows,
    optimizer_label,
    run_experiment,
    z_summary,
)
from hef_lab.series import Dataset, SplitRatio, temporal_split
from hef_lab.spaces import GridDomain, IntervalDomain

from conftest import make_series, random_series


# The workers of a forked pool see a test's monkeypatches; spawned ones do not.
needs_fork = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork", reason="workers must be forked to see the test's patches"
)


def tiny_config(**overrides) -> ExperimentConfig:
    defaults = dict(
        models=("ses", "knn"),
        splits=(SplitRatio.R80_20,),
        conditions=("hef", "maef"),
        repetitions=3,
        master_seed=7,
        pso=PsoConfig(swarm_size=4, iterations=3),
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


class TestConfig:
    def test_validation(self) -> None:
        for repetitions in (1, 2):  # compare_paired_runs needs 3 per group
            with pytest.raises(InvalidParameterError):
                tiny_config(repetitions=repetitions)
        with pytest.raises(InvalidParameterError):
            tiny_config(conditions=("hef",))
        with pytest.raises(InvalidParameterError):
            tiny_config(conditions=("hef", "rmsef"))
        with pytest.raises(InvalidParameterError):
            tiny_config(scs_optimizer="annealing")
        with pytest.raises(InvalidParameterError):
            tiny_config(models=())

    @pytest.mark.parametrize(
        "fields, message",
        [
            (dict(repetitions=3.5), "repetitions must be an integer >= 3"),
            (dict(splits=("80:20",)), "splits must be SplitRatio members"),
            (dict(models=("ses", "knn", "ses")), "models repeat ses"),
            (dict(splits=(SplitRatio.R80_20, SplitRatio.R70_30, SplitRatio.R80_20)), "splits repeat 80:20"),
            (dict(conditions=("hef", "hef", "maef")), "conditions repeat hef"),
            (
                dict(space_overrides={"knn": {"n_neighbors": GridDomain((3, "5"))}}),
                "knn: n_neighbors must be an integer >= 1, got '5'",
            ),
            (dict(space_overrides={"ses": {"alpha": {"grid": [0.5]}}}), "'alpha' has unsupported domain"),
        ],
        ids=[
            "float-repetitions", "split-label", "repeated-model", "repeated-split", "repeated-condition",
            "grid-string", "override-not-a-domain",
        ],
    )
    def test_fields_the_sweep_would_misread_refused(self, fields, message) -> None:
        # each repeated value would run its tasks, and store their rows, twice
        with pytest.raises(InvalidParameterError, match=re.escape(message)):
            tiny_config(**fields)


class TestSeeds:
    def test_stable_across_processes(self) -> None:
        # sha256-derived, so the value is a constant of the inputs
        seed = derive_seed(7, "s00", "ses", "hef", 0)
        assert seed == derive_seed(7, "s00", "ses", "hef", 0)
        assert isinstance(seed, int) and seed >= 0

    def test_components_matter(self) -> None:
        base = derive_seed(7, "s00", "ses", "hef", 0)
        assert base != derive_seed(8, "s00", "ses", "hef", 0)
        assert base != derive_seed(7, "s01", "ses", "hef", 0)
        assert base != derive_seed(7, "s00", "knn", "hef", 0)
        assert base != derive_seed(7, "s00", "maef", "hef", 0)
        assert base != derive_seed(7, "s00", "ses", "hef", 1)


class TestRouting:
    def test_optimizer_labels(self) -> None:
        ses, knn = create("ses").declared_space, create("knn").declared_space
        assert optimizer_label(ses, "baseline", "pso") == "fixed"
        assert optimizer_label(knn, "hef", "pso") == "grid"
        assert optimizer_label(ses, "hef", "pso") == "pso"
        assert optimizer_label(ses, "maef", "tpe") == "tpe"
        assert optimizer_label(create("lr").declared_space, "hef", "tpe") == "grid"  # no parameters

    def test_every_registered_model_routes_by_kind(self) -> None:
        from hef_lab.models import available_models

        for name in available_models():
            space = create(name).declared_space
            label = optimizer_label(space, "hef", "pso")
            if space.is_finite():
                assert label == "grid"
            else:
                assert label == "pso"


class TestRunExperiment:
    def test_budget_row_count(self, tmp_path) -> None:
        rng = np.random.default_rng(1)
        dataset = Dataset("d", (random_series(rng, "s0"),))
        config = tiny_config(models=("ses",), repetitions=3)
        summary = run_experiment(dataset, config, tmp_path / "r.csv")
        # 1 series x 1 model x 2 conditions x 3 reps = 6 result rows
        assert summary.total == 6 and summary.executed == 6
        store = ResultsStore(tmp_path / "r.csv")
        assert len(store) == 6
        # optimizer-guided tasks persist the bundle plus the trace summary
        assert len(store.rows) == 6 * len(required_metrics("hef"))

    def test_deterministic_modulo_exec_time(self, tmp_path, small_dataset) -> None:
        config = tiny_config()
        run_experiment(small_dataset, config, tmp_path / "a.csv")
        run_experiment(small_dataset, config, tmp_path / "b.csv")

        def essence(path):
            return [
                {k: v for k, v in row.items() if True}
                for row in ResultsStore(path).rows
                if row["metric"] != "exec_time"
            ]

        assert essence(tmp_path / "a.csv") == essence(tmp_path / "b.csv")

    def test_resume_skips_completed(self, tmp_path, small_dataset) -> None:
        config = tiny_config()
        first = run_experiment(small_dataset, config, tmp_path / "r.csv")
        assert first.skipped == 0
        again = run_experiment(small_dataset, config, tmp_path / "r.csv")
        assert again.executed == 0
        assert again.skipped == first.total

    def test_resume_after_interruption(self, tmp_path, small_dataset) -> None:
        config = tiny_config()
        run_experiment(small_dataset, config, tmp_path / "full.csv")
        full_rows = ResultsStore(tmp_path / "full.csv").rows

        # simulate an interrupted run: keep only the first 5 completed tasks
        kept = 5 * len(required_metrics("hef"))
        lines = (tmp_path / "full.csv").read_text().splitlines()
        (tmp_path / "partial.csv").write_text("\n".join(lines[: 1 + kept]) + "\n")

        summary = run_experiment(small_dataset, config, tmp_path / "partial.csv")
        assert summary.skipped == 5
        resumed_rows = ResultsStore(tmp_path / "partial.csv").rows
        strip = lambda rows: [
            {k: v for k, v in r.items() if k != "value"} if r["metric"] == "exec_time" else r
            for r in rows
        ]
        assert strip(resumed_rows) == strip(full_rows)

    def test_resume_after_a_cut_at_any_byte(self, tmp_path) -> None:
        # a crash may cut the store anywhere; resuming must rebuild the
        # uninterrupted file, apart from the wall-clock exec_time values
        rng = np.random.default_rng(8)
        dataset = Dataset("d", (random_series(rng, "s0"),))
        config = tiny_config(
            models=("ses", "lr"),
            conditions=("baseline", "hef"),  # task blocks of both lengths
            pso=PsoConfig(swarm_size=2, iterations=2),
        )
        full = tmp_path / "full.csv"
        run_experiment(dataset, config, full)
        data = full.read_bytes()

        def without_exec_time(path):
            with path.open(newline="") as fh:
                return [row[:-1] if row[6:7] == ["exec_time"] else row for row in csv.reader(fh)]

        ends = [0] + [i + 1 for i, byte in enumerate(data) if byte == ord("\n")]
        cuts = {end + d for end in ends for d in (-1, 0, 1)} | set(range(0, len(data), len(data) // 40))
        expected = without_exec_time(full)
        cut_store = tmp_path / "cut.csv"
        for cut in sorted(c for c in cuts if 0 <= c <= len(data)):
            cut_store.write_bytes(data[:cut])
            summary = run_experiment(dataset, config, cut_store)
            assert not summary.failures
            assert without_exec_time(cut_store) == expected, f"cut at byte {cut}"

    @pytest.mark.parametrize("optimizer, model", [("pso", "ses"), ("tpe", "rr")])
    def test_resume_with_pending_reps_apart_in_a_swarm_unit(
        self, tmp_path, small_dataset, monkeypatch, optimizer, model
    ) -> None:
        # reps 0 and 2 of one hef unit are missing, rep 1 is stored: the
        # searches of the two pending reps write their uninterrupted rows
        config = tiny_config(
            models=(model,), scs_optimizer=optimizer, repetitions=5, tpe=TpeConfig(trials=4, startup=2)
        )
        full = tmp_path / "full.csv"
        run_experiment(small_dataset, config, full)
        header, *lines = full.read_bytes().splitlines(keepends=True)
        dropped = tuple(f"s01,{model},hef,{optimizer},80:20,{rep},".encode() for rep in (0, 2))
        kept = [line for line in lines if not line.startswith(dropped)]
        assert len(lines) - len(kept) == 2 * len(required_metrics("hef"))
        resumed = tmp_path / "resumed.csv"
        resumed.write_bytes(header + b"".join(kept))

        calls = []
        name = f"{optimizer}_minimize"
        search = getattr(protocol, name)

        def recording(space, objective, settings, seed):
            calls.append(seed)
            return search(space, objective, settings, seed)

        monkeypatch.setattr(protocol, name, recording)
        summary = run_experiment(small_dataset, config, resumed)
        assert (summary.executed, summary.skipped) == (2, summary.total - 2) and not summary.failures
        seeds = [derive_seed(config.master_seed, "s01", model, "hef", rep) for rep in (0, 2)]
        # one lockstep swarm search for both reps, or one Parzen search each
        assert calls == ([seeds] if optimizer == "pso" else seeds)

        def essence(path):
            return sorted(
                (r["series_id"], r["condition"], r["rep"], r["metric"], r["value"])
                for r in ResultsStore(path).rows
                if r["metric"] != "exec_time"
            )

        assert essence(resumed) == essence(full)

    def test_store_opened_once_per_run(self, tmp_path, small_dataset, monkeypatch) -> None:
        modes: list[str] = []
        path_open = Path.open

        def recording_open(self, mode="r", *args, **kwargs):
            modes.append(mode)
            return path_open(self, mode, *args, **kwargs)

        monkeypatch.setattr(Path, "open", recording_open)
        summary = run_experiment(small_dataset, tiny_config(models=("ses",)), tmp_path / "r.csv")
        assert summary.executed == 24
        assert modes.count("a") == 1

    def test_append_after_close_keeps_earlier_tasks(self, tmp_path) -> None:
        store = ResultsStore(tmp_path / "r.csv")
        values = {name: 1.0 for name in required_metrics("hef")}
        first, second = (protocol.TaskKey("s0", "ses", "hef", "80:20", rep) for rep in (0, 1))
        store.append(first, "pso", values)
        store.close()
        store.append(second, "pso", values)
        store.close()
        reopened = ResultsStore(tmp_path / "r.csv")
        assert reopened.is_complete(first) and reopened.is_complete(second)
        assert len(reopened.rows) == 2 * len(required_metrics("hef"))

    def test_append_writes_what_a_csv_writer_row_per_metric_writes(self, tmp_path) -> None:
        # the key fields are quoted once per task, and each row is still the line csv.writer makes of it
        series_id = 'a,"b" c'
        tasks = [
            (protocol.TaskKey(series_id, "ses", "hef", "80:20", 0), "pso"),
            (protocol.TaskKey(series_id, "ses", "baseline", "80:20", 0), "fixed"),
        ]
        expected = io.StringIO()
        writer = csv.writer(expected)
        writer.writerow(protocol.STORE_COLUMNS)
        store = ResultsStore(tmp_path / "r.csv")
        for key, label in tasks:
            samples = itertools.cycle([-0.0, 0.1, 1e300, 2.5e-07, 3, 1 / 3])
            values = dict(zip(required_metrics(key.condition), samples))
            store.append(key, label, values)
            for metric, value in values.items():
                writer.writerow([*key.as_tuple()[:3], label, key.split, key.rep, metric, repr(float(value))])
        store.close()
        assert (tmp_path / "r.csv").read_bytes() == expected.getvalue().encode()
        reopened = ResultsStore(tmp_path / "r.csv")
        assert all(reopened.is_complete(key) for key, _ in tasks)
        rows = list(reopened.rows)
        assert [(row["series_id"], row["optimizer"]) for row in rows] == [
            (series_id, label) for key, label in tasks for _ in required_metrics(key.condition)
        ]
        first = rows[0]
        assert first["value"] == 0.0 and math.copysign(1.0, first["value"]) == -1.0

    def test_zero_byte_store_gets_its_header(self, tmp_path) -> None:
        # a store file created but never written, e.g. by a crash before the
        # first append, must resume like an absent one
        rng = np.random.default_rng(1)
        dataset = Dataset("d", (random_series(rng, "s0"),))
        config = tiny_config(models=("ses",))
        (tmp_path / "r.csv").touch()
        summary = run_experiment(dataset, config, tmp_path / "r.csv")
        assert summary.executed == 6 and not summary.failures
        run_experiment(dataset, config, tmp_path / "a.csv")
        assert len(ResultsStore(tmp_path / "r.csv")) == 6
        header = (tmp_path / "r.csv").read_text().splitlines()[0]
        assert header == (tmp_path / "a.csv").read_text().splitlines()[0]

    def test_failures_recorded_not_fatal(self, tmp_path) -> None:
        rng = np.random.default_rng(2)
        short = make_series("tiny", [1.0, 2.0, 3.0, 4.0])  # splits fine, but knn window needs more
        good = random_series(rng, "ok")
        dataset = Dataset("d", (short, good))
        config = tiny_config(models=("knn",))
        summary = run_experiment(dataset, config, tmp_path / "r.csv")
        assert summary.total == 12
        assert len(summary.failures) == 6  # every rep x condition of the short series
        assert all(f.key.series_id == "tiny" for f in summary.failures)
        store = ResultsStore(tmp_path / "r.csv")
        assert len(store) == 6

    @pytest.mark.parametrize("optimizer", ["pso", "tpe"])
    def test_a_series_the_model_refuses_fails_every_rep_with_the_checks_reason(self, tmp_path, optimizer) -> None:
        # the objective checks the training series when it is made, so the searched conditions fail with the
        # check's reason, as the baseline's final fit does, and not with "every candidate configuration failed"
        dataset = Dataset("d", (make_series("tiny", [1.0, 2.0, 3.0, 4.0]),))  # 3 training values
        config = tiny_config(models=("lr", "rr"), conditions=protocol.CONDITIONS, scs_optimizer=optimizer)
        summary = run_experiment(dataset, config, tmp_path / "r.csv")
        assert len(summary.failures) == summary.total == 2 * 3 * 3
        for model in ("lr", "rr"):  # lr on its grid, rr under the swarm or Parzen search
            reasons = {f.key.condition: f.reason for f in summary.failures if f.key.model == model}
            reason = f"InsufficientDataError: {model}: needs at least 4 observations, got 3"
            assert reasons == dict.fromkeys(protocol.CONDITIONS, reason)

    @pytest.mark.parametrize("optimizer", ["pso", "tpe"])
    def test_a_unit_makes_its_split_once(self, tmp_path, monkeypatch, optimizer) -> None:
        # a split that fails fails every pending rep of its unit with one reason, and no rep retries it
        splits = _count_calls(monkeypatch, protocol, "temporal_split")
        dataset = Dataset("d", (make_series("tiny", [1.0, 2.0, 3.0]),))
        config = tiny_config(scs_optimizer=optimizer, repetitions=21)  # ses searched, knn on its grid
        summary = run_experiment(dataset, config, tmp_path / "r.csv")
        assert len(summary.failures) == summary.total == 2 * 2 * 21
        assert splits[0] == 2 * 2  # one per (model, condition)
        assert {f.reason for f in summary.failures} == {
            "SeriesTooShortError: series 'tiny' has 3 observations; need at least 4"
        }

    def test_bundle_with_a_non_finite_metric_is_a_failure(self, tmp_path) -> None:
        rng = np.random.default_rng(4)
        dataset = Dataset("d", tuple(make_series(f"s{i}", 1e160 * random_series(rng, f"s{i}").values) for i in range(3)))
        config = tiny_config(models=("lr", "ses"), conditions=("baseline", "hef", "maef"), pso=PsoConfig(3, 2))
        summary = run_experiment(dataset, config, tmp_path / "r.csv")
        assert summary.total == len(summary.failures) == 54
        assert ResultsStore(tmp_path / "r.csv").rows == ()
        reasons = {f.key.condition: set() for f in summary.failures}
        for f in summary.failures:
            reasons[f.key.condition].add(f.reason)
        # r2 is NaN, as the test window's total sum of squares is infinite
        assert reasons["baseline"] == reasons["maef"] == {"NonFiniteInputError: r2 is not finite: nan"}
        assert reasons["hef"] == {"InvalidParameterError: every candidate configuration failed to score"}

    def test_parallel_matches_serial(self, tmp_path, small_dataset) -> None:
        # the too-short series fails at the split, so failures must match too
        short = make_series("short", [1.0, 2.0, 3.0])
        dataset = Dataset("toy", small_dataset.series + (short,))
        config = tiny_config(models=("ses",))
        serial = run_experiment(dataset, config, tmp_path / "serial.csv", jobs=1)
        pool = run_experiment(dataset, config, tmp_path / "pool.csv", jobs=2)

        def essence(path):
            return [r for r in ResultsStore(path).rows if r["metric"] != "exec_time"]

        assert essence(tmp_path / "serial.csv") == essence(tmp_path / "pool.csv")
        assert len(serial.failures) == 6
        assert all(f.key.series_id == "short" for f in serial.failures)
        assert pool == serial

    def test_parallel_matches_serial_with_a_grid_model(self, tmp_path, small_dataset) -> None:
        config = tiny_config()  # ses under PSO, knn on its grid
        serial = run_experiment(small_dataset, config, tmp_path / "serial.csv", jobs=1)
        pool = run_experiment(small_dataset, config, tmp_path / "pool.csv", jobs=2)

        def essence(path):
            return [r for r in ResultsStore(path).rows if r["metric"] != "exec_time"]

        assert essence(tmp_path / "serial.csv") == essence(tmp_path / "pool.csv")
        assert pool == serial and not serial.failures

    def test_dataset_sent_to_each_worker_at_most_once(self, tmp_path, small_dataset, monkeypatch) -> None:
        pickled: list[str] = []
        reduce_ex = Dataset.__reduce_ex__

        def counting_reduce_ex(self, protocol):
            pickled.append(self.name)
            return reduce_ex(self, protocol)

        monkeypatch.setattr(Dataset, "__reduce_ex__", counting_reduce_ex)
        config = tiny_config(models=("ses",))
        summary = run_experiment(small_dataset, config, tmp_path / "r.csv", jobs=2)
        assert summary.executed == 24 and not summary.failures
        # none under fork, one per worker where workers unpickle their inputs
        assert len(pickled) <= 2

    @needs_fork
    @pytest.mark.parametrize("n_series", [1, 3])
    def test_one_worker_per_pending_unit_at_most(self, tmp_path, small_dataset, monkeypatch, n_series) -> None:
        # each worker records its start in a file
        started = tmp_path / "workers.txt"
        init_worker = protocol._init_worker

        def recording_init(*args):
            with started.open("a") as fh:
                fh.write("started\n")
            init_worker(*args)

        monkeypatch.setattr(protocol, "_init_worker", recording_init)
        dataset = Dataset("d", small_dataset.series[:n_series])
        summary = run_experiment(dataset, tiny_config(models=("ses",)), tmp_path / "r.csv", jobs=4)
        assert summary.executed == n_series * 6 and not summary.failures
        # a unit is one (cell, condition): 2 per series, 6 for --jobs 4
        assert started.read_text().count("started") == min(4, n_series * 2)

    @pytest.mark.parametrize("jobs", [1, pytest.param(2, marks=needs_fork)])
    def test_cell_survives_a_failed_condition(self, tmp_path, monkeypatch, jobs) -> None:
        # every hef point fails to score; baseline and maef of the same cells complete
        def failing_scorer(*args, **kwargs):
            def score(*args):
                raise InsufficientDataError("no hef score")

            return score

        monkeypatch.setattr(protocol.evaluation, "hef_scorer", failing_scorer)
        rng = np.random.default_rng(4)
        dataset = Dataset("d", (random_series(rng, "s0"),))
        config = tiny_config(conditions=("baseline", "hef", "maef"))  # ses under PSO, knn on its grid
        summary = run_experiment(dataset, config, tmp_path / "r.csv", jobs=jobs)
        assert summary.executed == 2 * 3 * 3
        assert [f.key for f in summary.failures] == [
            protocol.TaskKey("s0", model, "hef", "80:20", rep) for model in ("ses", "knn") for rep in range(3)
        ]
        assert {f.reason for f in summary.failures} == {
            "InvalidParameterError: every candidate configuration failed to score"
        }
        store = ResultsStore(tmp_path / "r.csv")
        assert len(store) == 2 * 2 * 3
        assert {(r["model"], r["condition"], r["rep"]) for r in store.rows} == {
            (model, condition, rep)
            for model in ("ses", "knn")
            for condition in ("baseline", "maef")
            for rep in range(3)
        }

    @pytest.mark.parametrize(
        "fields, error, message",
        [
            (
                dict(models=("ses",), space_overrides={"ses": {"beta": IntervalDomain(0.1, 0.9)}}),
                InvalidParameterError,
                "ses declares no parameter beta",
            ),
            (
                dict(
                    models=("arima",),
                    space_overrides={"arima": {p: GridDomain(tuple(range(1001))) for p in ("p", "q")}},
                ),
                InvalidParameterError,
                "arima has 3006003 grid points, cap is 1000000",
            ),
            (
                dict(models=("enr",), space_overrides={"enr": {"l1_ratio": GridDomain((0.1, 0.5))}}),
                InvalidParameterError,
                "enr mixes grid and interval domains; pso searches intervals only",
            ),
            (dict(space_overrides={"prophet": {"x": IntervalDomain(0.1, 0.9)}}), UnknownModelError, "'prophet'"),
        ],
        ids=["undeclared-parameter", "grid-above-the-cap", "mixed-space-under-pso", "unregistered-model"],
    )
    def test_unrunnable_search_refused_while_the_config_is_built(
        self, tmp_path, small_dataset, fields, error, message
    ) -> None:
        with pytest.raises(error, match=re.escape(message)) as refused:
            run_experiment(small_dataset, tiny_config(**fields), tmp_path / "r.csv")
        assert any(entry.name == "__post_init__" for entry in refused.traceback)
        assert not (tmp_path / "r.csv").exists()

    def test_stub_model_aborts_before_any_work(self, tmp_path, small_dataset) -> None:
        with pytest.raises(UnknownModelError):
            run_experiment(small_dataset, tiny_config(models=("ses", "mlp")), tmp_path / "r.csv")
        assert not (tmp_path / "r.csv").exists()

    def test_baseline_ignores_optimizer_settings(self, tmp_path) -> None:
        rng = np.random.default_rng(3)
        dataset = Dataset("d", (random_series(rng, "s0"),))
        a = tiny_config(models=("ses",), conditions=("baseline", "maef"))
        b = tiny_config(
            models=("ses",),
            conditions=("baseline", "maef"),
            pso=PsoConfig(swarm_size=9, iterations=2),
        )
        run_experiment(dataset, a, tmp_path / "a.csv")
        run_experiment(dataset, b, tmp_path / "b.csv")
        base_rows = lambda path: [
            r
            for r in ResultsStore(path).rows
            if r["condition"] == "baseline" and r["metric"] != "exec_time"
        ]
        assert base_rows(tmp_path / "a.csv") == base_rows(tmp_path / "b.csv")


class TestStoreRows:
    @staticmethod
    def write_store(path: Path, series: int, reps: int) -> None:
        """A store of ses, lr and knn under hef and maef, written task by task."""
        rng = np.random.default_rng(6)
        store = ResultsStore(path)
        tasks = itertools.product(range(series), ("ses", "lr", "knn"), ("hef", "maef"), range(reps))
        for s, model, condition, rep in tasks:
            label = "pso" if model == "ses" else "grid"
            values = dict(zip(required_metrics(condition), rng.uniform(0.0, 100.0, 9)))
            store.append(protocol.TaskKey(f"m{s:03d}", model, condition, "80:20", rep), label, values)
        store.close()

    def test_rows_act_as_the_tuple_of_their_dicts(self, tmp_path) -> None:
        self.write_store(tmp_path / "r.csv", series=2, reps=3)
        rows = ResultsStore(tmp_path / "r.csv").rows
        with (tmp_path / "r.csv").open(newline="") as fh:
            expected = tuple(
                {**row, "rep": int(row["rep"]), "value": float(row["value"])} for row in csv.DictReader(fh)
            )
        assert len(expected) == 36 * 9
        assert rows == expected and expected == rows and rows == ResultsStore(tmp_path / "r.csv").rows
        assert rows != list(expected) and rows != expected[:-1]
        assert repr(rows) == repr(expected) and repr(list(rows)) == repr(list(expected))
        assert [rows[i] for i in (0, 8, 9, 100, -1, -324)] == [expected[i] for i in (0, 8, 9, 100, -1, -324)]
        assert rows[5:40:3] == expected[5:40:3] and rows[::-1] == expected[::-1]
        for i in (324, -325):
            with pytest.raises(IndexError):
                rows[i]
        with pytest.raises(TypeError):
            rows[0] = {}
        with pytest.raises(TypeError):
            hash(rows)
        rows[0]["value"] = -1.0  # each access builds its own dict
        assert rows[0] == expected[0]

    def test_opening_a_fleet_sized_store_retains_little(self, tmp_path) -> None:
        # 30 series x 3 models x 2 conditions x 21 reps = 3,780 tasks, 34,020 rows;
        # one dict per row retained about 20 MB
        self.write_store(tmp_path / "r.csv", series=30, reps=21)
        tracemalloc.start()
        try:
            store = ResultsStore(tmp_path / "r.csv")
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(store) == 3780 and len(store.rows) == 34020
        assert retained <= 8e6


class TestSearchBudget:
    @pytest.mark.parametrize("optimizer, search_evals", [("pso", 4 * 3), ("tpe", 7)])
    def test_opt_evals_matches_budget(self, tmp_path, optimizer, search_evals) -> None:
        rng = np.random.default_rng(5)
        dataset = Dataset("d", (random_series(rng, "s0"),))
        config = tiny_config(scs_optimizer=optimizer, tpe=TpeConfig(trials=7, startup=3))
        run_experiment(dataset, config, tmp_path / "r.csv")
        stored = {
            (r["model"], r["condition"], r["rep"]): r["value"]
            for r in ResultsStore(tmp_path / "r.csv").rows
            if r["metric"] == "opt_evals"
        }
        # ses searches its box under the optimizer, knn walks its whole grid
        expected = {"ses": search_evals, "knn": create("knn").declared_space.grid_size()}
        assert len(stored) == 2 * 2 * 3
        assert all(value == expected[model] for (model, _, _), value in stored.items())

    @pytest.mark.parametrize("optimizer, search_evals", [("pso", 4 * 3), ("tpe", 7)])
    def test_grid_model_over_an_interval_runs_the_configured_optimizer(
        self, tmp_path, optimizer, search_evals
    ) -> None:
        # the route follows the overridden domain, not the model
        rng = np.random.default_rng(5)
        dataset = Dataset("d", (random_series(rng, "s0"),))
        config = tiny_config(
            models=("knn",),
            scs_optimizer=optimizer,
            tpe=TpeConfig(trials=7, startup=3),
            space_overrides={"knn": {"n_neighbors": IntervalDomain(1, 9, integer=True)}},
        )
        summary = run_experiment(dataset, config, tmp_path / "r.csv")
        assert summary.executed == 6 and not summary.failures
        rows = ResultsStore(tmp_path / "r.csv").rows
        assert {r["optimizer"] for r in rows} == {optimizer}
        assert [r["value"] for r in rows if r["metric"] == "opt_evals"] == [search_evals] * 6

    def test_continuous_model_over_a_grid_runs_a_grid_search(self, tmp_path) -> None:
        rng = np.random.default_rng(5)
        dataset = Dataset("d", (random_series(rng, "s0"),))
        config = tiny_config(models=("ses",), space_overrides={"ses": {"alpha": GridDomain((0.1, 0.3, 0.5))}})
        summary = run_experiment(dataset, config, tmp_path / "r.csv")
        assert summary.executed == 6 and not summary.failures
        rows = ResultsStore(tmp_path / "r.csv").rows
        assert {r["optimizer"] for r in rows} == {"grid"}
        assert [r["value"] for r in rows if r["metric"] == "opt_evals"] == [3.0] * 6

    def test_search_where_every_point_fails(self, tmp_path, monkeypatch) -> None:
        def failing(self, point):
            raise InsufficientDataError("no point scores")

        results = []
        search = protocol.grid_search

        def recording_search(*args, **kwargs):
            results.append(search(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(protocol._Objective, "__call__", failing)
        monkeypatch.setattr(protocol, "grid_search", recording_search)
        rng = np.random.default_rng(6)
        dataset = Dataset("d", (random_series(rng, "s0"),))
        summary = run_experiment(dataset, tiny_config(models=("knn",)), tmp_path / "r.csv")
        assert len(summary.failures) == summary.total == 6
        assert all(
            f.reason == "InvalidParameterError: every candidate configuration failed to score"
            for f in summary.failures
        )
        grid_size = create("knn").declared_space.grid_size()
        # one grid search per (cell, condition); its reps reuse the result
        assert [(r.evals, r.failed_evals) for r in results] == [(grid_size, grid_size)] * 2


class TestSearchMemo:
    def test_one_grid_search_per_cell_and_condition(self, tmp_path, small_dataset, monkeypatch) -> None:
        calls = {"grid_search": 0, "pso_minimize": 0}
        for name in calls:

            def counting(*args, _search=getattr(protocol, name), _name=name, **kwargs):
                calls[_name] += 1
                return _search(*args, **kwargs)

            monkeypatch.setattr(protocol, name, counting)
        config = tiny_config()  # ses under PSO, knn on its grid
        summary = run_experiment(small_dataset, config, tmp_path / "r.csv")
        assert summary.executed == 48 and not summary.failures
        per_condition = len(small_dataset.series) * len(config.conditions)
        assert calls["grid_search"] == per_condition
        # one lockstep swarm search per (cell, condition), for all of its reps
        assert calls["pso_minimize"] == per_condition

    @needs_fork
    def test_resume_with_workers_runs_one_grid_search_per_pending_condition(
        self, tmp_path, small_dataset, monkeypatch
    ) -> None:
        config = tiny_config(models=("knn",), repetitions=5)
        full = tmp_path / "full.csv"
        run_experiment(small_dataset, config, full)
        # cut after 3 of the 5 reps of the first cell's hef condition
        lines = full.read_bytes().splitlines(keepends=True)
        cut = tmp_path / "cut.csv"
        cut.write_bytes(b"".join(lines[: 1 + 3 * len(required_metrics("hef"))]))

        # each grid search, in whichever worker, records itself in a file
        searches = tmp_path / "searches.txt"
        search = protocol.grid_search

        def recording_search(*args, **kwargs):
            with searches.open("a") as fh:
                fh.write("grid\n")
            return search(*args, **kwargs)

        monkeypatch.setattr(protocol, "grid_search", recording_search)
        summary = run_experiment(small_dataset, config, cut, jobs=2)
        assert summary.skipped == 3 and not summary.failures
        # every cell has both conditions pending, the first cell's hef for its last 2 reps
        assert searches.read_text().count("grid") == len(small_dataset.series) * len(config.conditions)

        def essence(path):
            return [r for r in ResultsStore(path).rows if r["metric"] != "exec_time"]

        assert essence(cut) == essence(full)

    def test_runs_do_not_share_searches(self, tmp_path, small_dataset) -> None:
        # the same series ids with other values: a grid search kept from the
        # run before would select and score on the wrong data
        rng = np.random.default_rng(9)
        other = Dataset("other", tuple(random_series(rng, s.id) for s in small_dataset.series))
        config = tiny_config(models=("knn",))

        def essence(path):
            return [r for r in ResultsStore(path).rows if r["metric"] != "exec_time"]

        run_experiment(small_dataset, config, tmp_path / "a.csv")
        run_experiment(other, config, tmp_path / "b.csv")
        run_experiment(small_dataset, config, tmp_path / "a-again.csv")
        assert essence(tmp_path / "a-again.csv") == essence(tmp_path / "a.csv")
        for path in (tmp_path / "a.csv", tmp_path / "b.csv"):
            maef: dict[tuple, dict[str, float]] = {}
            for r in essence(path):
                if r["condition"] == "maef":
                    maef.setdefault((r["series_id"], r["rep"]), {})[r["metric"]] = r["value"]
            # a maef search's best score is the MAE of the winner's final fit on this data
            assert all(m["opt_best_score"] == m["mae"] for m in maef.values())
        assert essence(tmp_path / "a.csv") != essence(tmp_path / "b.csv")


class TestSearchInputs:
    @pytest.mark.parametrize(
        "conditions, optimizer, objectives",
        [(("hef", "maef"), "pso", 2), (("hef", "maef"), "tpe", 2), (("baseline", "hef"), "pso", 1)],
    )
    def test_one_objective_per_unit_that_searches(
        self, tmp_path, monkeypatch, conditions, optimizer, objectives
    ) -> None:
        built = _count_calls(monkeypatch, protocol._Objective, "__init__")
        dataset = Dataset("d", (random_series(np.random.default_rng(8), "s0"),))
        config = tiny_config(
            models=("ses",), conditions=conditions, scs_optimizer=optimizer, tpe=TpeConfig(trials=4, startup=2)
        )
        summary = run_experiment(dataset, config, tmp_path / "r.csv")
        assert summary.executed == 6 and not summary.failures
        assert built[0] == objectives

    @pytest.mark.parametrize("optimizer", ["pso", "tpe"])
    def test_each_rep_searches_with_its_derived_seed(self, tmp_path, monkeypatch, optimizer) -> None:
        seeds = []
        name = f"{optimizer}_minimize"
        search = getattr(protocol, name)

        def recording(space, objective, settings, seed):
            # a swarm search takes the seeds of all its unit's reps, a Parzen search one rep's
            seeds.extend(seed if optimizer == "pso" else [seed])
            return search(space, objective, settings, seed)

        monkeypatch.setattr(protocol, name, recording)
        dataset = Dataset("d", (random_series(np.random.default_rng(8), "s0"),))
        config = tiny_config(models=("ses",), scs_optimizer=optimizer, tpe=TpeConfig(trials=4, startup=2))
        run_experiment(dataset, config, tmp_path / "r.csv")
        assert seeds == [
            derive_seed(config.master_seed, "s0", "ses", condition, rep)
            for condition in config.conditions
            for rep in range(config.repetitions)
        ]

    def test_negative_arima_orders_are_refused_when_the_config_is_built(self) -> None:
        # before, a negative order failed its points' evaluations, and a grid
        # with no other point failed its tasks
        overrides = {
            "experiment.models": ["arima"],
            "experiment.repetitions": 3,
            "models.arima.space.p": {"grid": [-1, 0]},
            "models.arima.space.d": {"grid": [0]},
        }
        # each refusal names the one key at fault, not every models.* key given
        with pytest.raises(ConfigError, match="^models.arima.space.p: arima: p must be an integer >= 0, got -1$"):
            build_experiment_config(overrides)
        overrides["models.arima.space.d"] = {"grid": [-1]}
        with pytest.raises(ConfigError, match="^models.arima.space.d: arima: d must be an integer >= 0, got -1$"):
            build_experiment_config({**overrides, "models.arima.space.p": {"grid": [0]}})

    @pytest.mark.parametrize(
        "model, param, grid, message",
        [
            ("plr", "degree", [0, 1], "an integer in [1, 10], got 0"),
            ("knn", "n_neighbors", [0], "an integer >= 1, got 0"),
            ("dtr", "max_depth", [0, -1], "an integer >= 1 or None, got 0"),
        ],
        ids=["plr", "knn", "dtr"],
    )
    def test_lag_parameters_below_one_are_refused_when_the_config_is_built(self, model, param, grid, message) -> None:
        # before, each such point failed its evaluation inside the task, and
        # before that degree 0 ended the sweep in a ValueError, k = 0 raised
        # numpy's empty-mean RuntimeWarning and depth 0 fitted a one-leaf tree
        key = f"models.{model}.space.{param}"
        overrides = {"experiment.models": [model], "experiment.repetitions": 3, key: {"grid": grid}}
        with pytest.raises(ConfigError, match=f"^{re.escape(f'{key}: {model}: {param} must be {message}')}$"):
            build_experiment_config(overrides)


def _record_scored(monkeypatch) -> list[np.ndarray]:
    """Every final forecast the run's bundle scorers score, in order."""
    scored: list[np.ndarray] = []
    compute = protocol.BundleScorer.__call__

    def recording(self, predicted_test, exec_time=0.0):
        scored.append(np.array(predicted_test))
        return compute(self, predicted_test, exec_time)

    monkeypatch.setattr(protocol.BundleScorer, "__call__", recording)
    return scored


def _count_calls(monkeypatch, owner, name: str) -> list[int]:
    count = [0]
    original = getattr(owner, name)

    def counting(*args, **kwargs):
        count[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return count


class TestFinalBundle:
    def test_grid_reps_score_their_equal_forecast_once(self, tmp_path, small_dataset, monkeypatch) -> None:
        scored = _record_scored(monkeypatch)
        fits = _count_calls(monkeypatch, model_class("knn"), "fit")
        evals = _count_calls(monkeypatch, protocol._Objective, "__call__")
        config = tiny_config(models=("knn",), repetitions=5)
        summary = run_experiment(small_dataset, config, tmp_path / "r.csv")
        units = len(small_dataset.series) * len(config.conditions)
        assert summary.executed == units * config.repetitions and not summary.failures
        assert len(scored) == units
        assert fits[0] - evals[0] == units  # one final fit per unit, written to each of its reps
        exec_times: dict[tuple, set[float]] = {}
        for r in ResultsStore(tmp_path / "r.csv").rows:
            if r["metric"] == "exec_time":
                exec_times.setdefault((r["series_id"], r["condition"]), set()).add(r["value"])
        assert len(exec_times) == units
        assert all(len(times) == 1 for times in exec_times.values())

    def test_resumed_grid_unit_writes_the_uninterrupted_rows(self, tmp_path, small_dataset, monkeypatch) -> None:
        config = tiny_config(models=("knn",), repetitions=21)
        full = tmp_path / "full.csv"
        run_experiment(small_dataset, config, full)
        lines = full.read_bytes().splitlines(keepends=True)
        cut = tmp_path / "cut.csv"
        cut.write_bytes(b"".join(lines[: 1 + 3 * len(required_metrics("hef"))]))  # reps 0-2 of the first unit

        scored = _record_scored(monkeypatch)
        summary = run_experiment(small_dataset, config, cut)
        assert summary.skipped == 3 and not summary.failures
        assert len(scored) == len(small_dataset.series) * len(config.conditions)

        def essence(path):
            return [r for r in ResultsStore(path).rows if r["metric"] != "exec_time"]

        assert essence(cut) == essence(full)

    def test_reps_with_different_forecasts_are_each_scored(self, tmp_path, small_dataset, monkeypatch) -> None:
        scored = _record_scored(monkeypatch)
        ses = model_class("ses")
        fit, drift = ses.fit, itertools.count()

        def drifting(self, train, config):  # every fit forecasts one unit above the one before
            return FittedSes(fit(self, train, config).level + next(drift))

        monkeypatch.setattr(ses, "fit", drifting)
        config = tiny_config(models=("ses",))  # under PSO, so each rep runs its own final fit
        store = tmp_path / "r.csv"
        summary = run_experiment(small_dataset, config, store)
        assert summary.executed == len(scored) and not summary.failures
        stored: dict[tuple, dict[str, float]] = {}
        for r in ResultsStore(store).rows:  # in task order, as the forecasts were scored
            stored.setdefault((r["series_id"], r["condition"], r["rep"]), {})[r["metric"]] = r["value"]
        # a copy: compute_bundle below computes metrics too, which the spy records
        for ((series_id, _, _), values), predicted in zip(stored.items(), list(scored), strict=True):
            split = temporal_split(small_dataset.get(series_id), SplitRatio.R80_20)
            expected = compute_bundle(split.train, split.test, predicted).as_dict()
            assert all(values[m] == expected[m] for m in METRIC_NAMES if m != "exec_time")

    @staticmethod
    def _squares_clock(monkeypatch) -> list[int]:
        """Make the final fit's clock read k * k at its k-th reading, so every
        timed fit lasts a different odd number of seconds; returns the count."""
        readings = [0]

        def perf_counter() -> float:
            readings[0] += 1
            return float(readings[0] ** 2)

        monkeypatch.setattr(protocol, "time", SimpleNamespace(perf_counter=perf_counter))
        return readings

    @staticmethod
    def _by_task(path) -> dict[tuple, dict[str, float]]:
        """(series, model, condition, optimizer, rep) -> metric -> stored value."""
        tasks: dict[tuple, dict[str, float]] = {}
        for r in ResultsStore(path).rows:
            key = (r["series_id"], r["model"], r["condition"], r["optimizer"], r["rep"])
            tasks.setdefault(key, {})[r["metric"]] = r["value"]
        return tasks

    def test_grid_and_fixed_units_run_their_final_fit_once(self, tmp_path, small_dataset, monkeypatch) -> None:
        readings = self._squares_clock(monkeypatch)
        fits = _count_calls(monkeypatch, model_class("knn"), "fit")
        evals = _count_calls(monkeypatch, protocol._Objective, "__call__")
        bundles = _count_calls(monkeypatch, protocol.BundleScorer, "__call__")
        config = tiny_config(models=("knn",), conditions=("baseline", "hef"), repetitions=5)
        summary = run_experiment(small_dataset, config, tmp_path / "r.csv")
        units = len(small_dataset.series) * len(config.conditions)  # a fixed and a grid unit per series
        assert summary.executed == units * config.repetitions and not summary.failures
        assert fits[0] - evals[0] == bundles[0] == units
        assert readings[0] == 2 * units
        tasks = self._by_task(tmp_path / "r.csv")
        assert len(tasks) == summary.executed
        assert {label for _, _, _, label, _ in tasks} == {"fixed", "grid"}
        for (*unit, rep), values in tasks.items():
            assert values == tasks[(*unit, 0)]  # exec_time included
        assert len({values["exec_time"] for values in tasks.values()}) == units

    def test_swarm_unit_fits_and_times_every_rep(self, tmp_path, small_dataset, monkeypatch) -> None:
        readings = self._squares_clock(monkeypatch)
        fits = _count_calls(monkeypatch, model_class("ses"), "fit")
        config = tiny_config(models=("ses",))
        summary = run_experiment(small_dataset, config, tmp_path / "r.csv")
        assert summary.executed == 24 and not summary.failures
        tasks = self._by_task(tmp_path / "r.csv")
        evals = sum(values["opt_evals"] for values in tasks.values())
        assert evals == summary.executed * 4 * 3  # the swarm's evaluations, one fit each
        assert fits[0] - evals == summary.executed
        assert readings[0] == 2 * summary.executed
        exec_times = [values["exec_time"] for values in tasks.values()]
        assert len(set(exec_times)) == summary.executed

    def test_grid_unit_where_every_point_fails_searches_once(self, tmp_path, monkeypatch) -> None:
        calls = [0]

        def failing(self, point):
            calls[0] += 1
            raise InsufficientDataError("no point scores")

        monkeypatch.setattr(protocol._Objective, "__call__", failing)
        dataset = Dataset("d", (random_series(np.random.default_rng(6), "s0"),))
        config = tiny_config(models=("knn",), repetitions=5)
        summary = run_experiment(dataset, config, tmp_path / "r.csv")
        assert len(summary.failures) == summary.total == 10
        assert calls[0] == create("knn").declared_space.grid_size() * len(config.conditions)
        assert [f.key.rep for f in summary.failures] == [*range(5)] * 2
        assert {f.reason for f in summary.failures} == {
            "InvalidParameterError: every candidate configuration failed to score"
        }

    def test_resumed_deterministic_units_run_once_and_write_the_uninterrupted_rows(
        self, tmp_path, small_dataset, monkeypatch
    ) -> None:
        config = tiny_config(models=("knn",), conditions=("baseline", "maef"), repetitions=21)
        full = tmp_path / "full.csv"
        run_experiment(small_dataset, config, full)
        lines = full.read_bytes().splitlines(keepends=True)
        cut = tmp_path / "cut.csv"
        cut.write_bytes(b"".join(lines[: 1 + 3 * len(required_metrics("baseline"))]))  # reps 0-2 of the first unit

        fits = _count_calls(monkeypatch, model_class("knn"), "fit")
        evals = _count_calls(monkeypatch, protocol._Objective, "__call__")
        summary = run_experiment(small_dataset, config, cut)
        assert summary.skipped == 3 and not summary.failures
        assert fits[0] - evals[0] == len(small_dataset.series) * len(config.conditions)
        resumed = self._by_task(cut)
        # the cut unit's reps 3-20 share the one final fit that rep 3 timed
        assert len({resumed[("s00", "knn", "baseline", "fixed", rep)]["exec_time"] for rep in range(3, 21)}) == 1

        def essence(path):
            return [r for r in ResultsStore(path).rows if r["metric"] != "exec_time"]

        assert essence(cut) == essence(full)

    def test_workers_write_what_one_process_writes(self, tmp_path, small_dataset) -> None:
        config = tiny_config(conditions=("baseline", "hef", "maef"))  # ses fixed and under PSO, knn on its grid
        serial = run_experiment(small_dataset, config, tmp_path / "serial.csv", jobs=1)
        pool = run_experiment(small_dataset, config, tmp_path / "pool.csv", jobs=2)
        assert pool == serial and not serial.failures

        def essence(path):
            return [r for r in ResultsStore(path).rows if r["metric"] != "exec_time"]

        assert essence(tmp_path / "serial.csv") == essence(tmp_path / "pool.csv")
        pooled = self._by_task(tmp_path / "pool.csv")
        assert {label for _, _, _, label, _ in pooled} == {"fixed", "grid", "pso"}
        for (*unit, label, rep), values in pooled.items():
            if label != "pso":
                assert values == pooled[(*unit, label, 0)]  # exec_time included

    def test_fleet_sized_grid_sweep_runs_one_final_fit_per_unit(self, tmp_path, monkeypatch) -> None:
        # a refactor that brings back the final fit in every rep shows as 1,260 fits here
        rng = np.random.default_rng(30)
        dataset = Dataset("fleet", tuple(random_series(rng, f"s{i:02d}", n=60) for i in range(30)))
        fits = _count_calls(monkeypatch, model_class("knn"), "fit")
        evals = _count_calls(monkeypatch, protocol._Objective, "__call__")
        config = tiny_config(models=("knn",), repetitions=21)
        summary = run_experiment(dataset, config, tmp_path / "r.csv")
        assert summary.executed == 30 * 2 * 21 == 1260 and not summary.failures
        assert evals[0] == 30 * 2 * create("knn").declared_space.grid_size()
        assert fits[0] - evals[0] == 60


def synth_rows(
    series_ids, model, values_by_condition, metric="mae", split="80:20", optimizer="pso"
):
    """Store rows with one varying metric; every other metric held identical."""
    rows = []
    for sid in series_ids:
        for condition, values in values_by_condition.items():
            for rep, value in enumerate(values):
                for name in METRIC_NAMES:
                    rows.append(
                        {
                            "series_id": sid,
                            "model": model,
                            "condition": condition,
                            "optimizer": optimizer,
                            "split": split,
                            "rep": rep,
                            "metric": name,
                            "value": value if name == metric else 1.0,
                        }
                    )
    return rows


class TestCountCases:
    def test_identical_conditions_all_no_change(self) -> None:
        base = list(np.linspace(3.0, 4.0, 21))
        rows = synth_rows(["s0", "s1"], "ses", {"hef": base, "maef": list(base)})
        table = count_cases(rows, ("hef", "maef"))
        for metric in METRIC_NAMES:
            a, b, none = table.improvements(metric)
            assert (a, b) == (0, 0)
            assert none == table.comparisons[metric] == 2

    def test_constant_pairs_are_counted_beside_the_verdicts(self) -> None:
        # s0 and s1 hold two different constants on mae, s2 a varying hef
        # side; every other metric is 1.0 in every rep
        rows = synth_rows(["s0", "s1"], "knn", {"hef": [1.0] * 21, "maef": [2.0] * 21})
        rows += synth_rows(["s2"], "knn", {"hef": list(np.linspace(1.0, 1.5, 21)), "maef": [2.0] * 21})
        table = count_cases(rows, ("hef", "maef"))
        assert table.constant == {m: 2 if m == "mae" else 3 for m in METRIC_NAMES}
        assert table.improvements("mae") == (3, 0, 0)  # the two constant pairs test significant too
        assert all(table.improvements(m) == (0, 0, 3) for m in METRIC_NAMES if m != "mae")
        assert "constant" not in repr(table)

    def test_forced_separation_improves_a(self) -> None:
        base = list(np.linspace(3.0, 4.0, 21))
        shifted = [v + 10.0 for v in base]
        rows = synth_rows(["s0", "s1", "s2"], "ses", {"hef": base, "maef": shifted})
        table = count_cases(rows, ("hef", "maef"))
        a, b, none = table.improvements("mae")  # lower mae is better: hef wins
        assert (a, b, none) == (3, 0, 0)

    def test_direction_respects_higher_better_metrics(self) -> None:
        base = list(np.linspace(0.2, 0.3, 21))
        shifted = [v + 0.5 for v in base]
        rows = synth_rows(["s0"], "ses", {"hef": base, "maef": shifted}, metric="r2")
        table = count_cases(rows, ("hef", "maef"))
        a, b, _ = table.improvements("r2")  # higher r2 is better: maef wins
        assert (a, b) == (0, 1)

    def test_outcomes_match_counts(self) -> None:
        base = list(np.linspace(3.0, 4.0, 21))
        shifted = [v + 10.0 for v in base]
        rows = synth_rows(["s0", "s1"], "ses", {"hef": base, "maef": shifted})
        table = count_cases(rows, ("hef", "maef"))
        from collections import Counter

        per_metric = Counter((o.metric, o.verdict) for o in table.outcomes)
        for metric in METRIC_NAMES:
            a, b, none = table.improvements(metric)
            assert per_metric[(metric, VERDICT_A)] == a
            assert per_metric[(metric, VERDICT_B)] == b
            assert per_metric[(metric, VERDICT_NONE)] == none
        # verdict is no-change exactly when the difference is not significant
        for outcome in table.outcomes:
            if outcome.verdict == VERDICT_NONE:
                assert outcome.p_value >= 0.05 or outcome.p_value == 1.0

    def test_partition_property(self) -> None:
        rng = np.random.default_rng(10)
        rows = []
        for sid in ("s0", "s1", "s2", "s3"):
            rows += synth_rows(
                [sid],
                "knn",
                {
                    "hef": list(rng.normal(5.0, 1.0, 21)),
                    "maef": list(rng.normal(5.0 + rng.uniform(-1, 1), 1.0, 21)),
                },
            )
        table = count_cases(rows, ("hef", "maef"))
        for metric in METRIC_NAMES:
            a, b, none = table.improvements(metric)
            assert a + b + none == table.comparisons[metric] == 4

    def test_missing_cells_skipped_and_reported(self) -> None:
        rows = synth_rows(["s0"], "ses", {"hef": [1.0] * 5, "maef": [1.0] * 5})
        rows += synth_rows(["s1"], "ses", {"hef": [1.0] * 5})  # no maef side
        table = count_cases(rows, ("hef", "maef"))
        assert table.comparisons["mae"] == 1
        assert any(cell[0] == "s1" for cell in table.skipped_cells)

    def test_group_tables_split_by_optimizer(self) -> None:
        rows = synth_rows(["s0"], "ses", {"hef": [1.0] * 5, "maef": [2.0] * 5}, optimizer="pso")
        rows += synth_rows(["s1"], "knn", {"hef": [1.0] * 5, "maef": [2.0] * 5}, optimizer="grid")
        tables = case_tables_by_group(rows, ("hef", "maef"))
        assert {(t.split, t.optimizer) for t in tables} == {("80:20", "pso"), ("80:20", "grid")}
        for table in tables:
            assert table.comparisons["mae"] == 1

    def test_same_condition_pair_rejected(self) -> None:
        with pytest.raises(InvalidParameterError):
            count_cases([], ("hef", "hef"))

    @pytest.mark.parametrize("pair", [("hef", "hef"), ("baseline", "baseline"), ("hef", "foo")])
    def test_every_analysis_refuses_a_bad_pair(self, pair) -> None:
        rows = synth_rows(["s0"], "ses", {"baseline": [1.0] * 3, "hef": [1.0] * 3, "maef": [2.0] * 3})
        for analysis in (count_cases, case_tables_by_group, improvement_rows):
            with pytest.raises(InvalidParameterError, match="two distinct conditions"):
                analysis(rows, pair)

    def test_cell_searched_under_two_labels_refused(self) -> None:
        # a resume that adds maef under another optimizer; each label's table
        # would count the cell once
        base = list(np.linspace(3.0, 4.0, 21))
        rows = synth_rows(["s0"], "ses", {"hef": base}, optimizer="pso")
        rows += synth_rows(["s0"], "ses", {"maef": [v + 10.0 for v in base]}, optimizer="tpe")
        message = "cell s0/ses/80:20 holds hef reps under pso and maef reps under tpe"
        for analysis in (count_cases, case_tables_by_group, improvement_rows):
            with pytest.raises(InvalidParameterError, match=message):
                analysis(rows, ("hef", "maef"))

    def test_baseline_label_is_not_a_second_label(self) -> None:
        base = list(np.linspace(3.0, 4.0, 21))
        rows = synth_rows(["s0"], "ses", {"baseline": base}, optimizer="fixed")
        rows += synth_rows(["s0"], "ses", {"hef": [v + 10.0 for v in base]}, optimizer="pso")
        assert count_cases(rows, ("baseline", "hef")).improvements("mae") == (1, 0, 0)
        assert [t.optimizer for t in case_tables_by_group(rows, ("baseline", "hef"))] == ["pso"]


def make_table(a: int, b: int, total: int) -> CaseTable:
    counts = {m: {VERDICT_A: 0, VERDICT_B: 0, VERDICT_NONE: 0} for m in METRIC_NAMES}
    comparisons = {m: 0 for m in METRIC_NAMES}
    counts["r2"] = {VERDICT_A: a, VERDICT_B: b, VERDICT_NONE: total - a - b}
    comparisons["r2"] = total
    return CaseTable(("hef", "maef"), "80:20", "grid", counts, comparisons)


class TestZSummary:
    def test_symmetric_counts_give_zero(self) -> None:
        result = z_summary(make_table(25, 25, 100), metric="r2")
        assert result.statistic == pytest.approx(0.0, abs=1e-12)

    def test_published_scale_table(self) -> None:
        # a 1673-vs-0 improvement split over 9478 comparisons is a |Z| > 30 event
        result = z_summary(make_table(1673, 0, 9478), metric="r2")
        assert result.statistic > 30.0
        assert result.log10_p is not None and result.log10_p < -200.0

    def test_pooled_scope_sums_metrics(self) -> None:
        table = make_table(10, 2, 50)
        pooled = z_summary(table, metric=None)
        single = z_summary(table, metric="r2")
        assert pooled.statistic == pytest.approx(single.statistic)

    def test_no_comparisons_rejected(self) -> None:
        with pytest.raises(InvalidParameterError):
            z_summary(make_table(1, 0, 10), metric="mae")


class TestImprovementRows:
    def test_sign_convention_positive_means_first_better(self) -> None:
        rows = synth_rows(["s0"], "ses", {"hef": [1.0] * 3, "maef": [2.0] * 3})
        out = improvement_rows(rows, ("hef", "maef"))
        assert out["mae"][0]["pct_improvement"] == pytest.approx(50.0)  # lower-better
        rows = synth_rows(["s0"], "ses", {"hef": [0.9] * 3, "maef": [0.6] * 3}, metric="r2")
        out = improvement_rows(rows, ("hef", "maef"))
        assert out["r2"][0]["pct_improvement"] == pytest.approx(50.0)  # higher-better

    def test_empty_store_yields_empty_tables(self) -> None:
        out = improvement_rows([], ("hef", "maef"))
        assert all(out[m] == [] for m in METRIC_NAMES)
