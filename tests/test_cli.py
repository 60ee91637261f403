"""Command-line workflows end to end, exit codes included."""

from __future__ import annotations

import csv
import json
import re
from dataclasses import fields, is_dataclass

import numpy as np
import pytest

from hef_lab.cli import main
from hef_lab.config import _SCALAR_KEYS, SEED_ENV_VAR, build_experiment_config, parse_config_file, parse_override
from hef_lab.errors import ConfigError
from hef_lab.metrics import METRIC_NAMES
from hef_lab.models import create
from hef_lab.protocol import ExperimentConfig, ResultsStore, TaskKey
from hef_lab.series import Dataset, load_dataset_csv, write_dataset_csv

from conftest import random_series

CONFIG_TEXT = """
# minimal sweep for CLI tests
experiment.models = ["ses", "knn"]
experiment.splits = ["80:20"]
experiment.conditions = ["hef", "maef"]
experiment.repetitions = 3
experiment.seed = 11
opt.pso.swarm_size = 4
opt.pso.iterations = 3
"""

# Each scalar key, the settings field it sets (written out here independently of
# the config module's own table) and a valid value that differs from the default.
SCALAR_KEYS = [
    ("experiment.scs_optimizer", ("scs_optimizer",), "tpe"),
    ("experiment.repetitions", ("repetitions",), 5),
    ("experiment.seed", ("master_seed",), 9),
    ("experiment.alpha", ("alpha",), 0.1),
    ("opt.pso.swarm_size", ("pso", "swarm_size"), 7),
    ("opt.pso.iterations", ("pso", "iterations"), 9),
    ("opt.tpe.trials", ("tpe", "trials"), 30),
    ("opt.tpe.startup", ("tpe", "startup"), 5),
]


# settings that are module constants of ``hef_lab.optimizers`` and
# ``hef_lab.evaluation``, no longer keys
REMOVED_KEYS = [
    "opt.pso.inertia",
    "opt.pso.cognitive",
    "opt.pso.social",
    "opt.pso.velocity_clamp",
    "opt.tpe.gamma",
    "opt.tpe.candidates",
    "opt.tpe.bandwidth_factor",
    "opt.grid.cap",
    "hef.weights.r2",
    "hef.weights.mae",
    "hef.weights.rmse",
    "hef.penalties.l1",
    "hef.penalties.l2",
    "hef.penalties.l3",
    "hef.penalties.l4",
]

# the legal values of each parameter these tests override, as refusals state them
LEGAL = {
    ("ses", "alpha"): "in [0, 1]",
    ("rr", "alpha"): ">= 0",
    ("lsr", "alpha"): ">= 0",
    ("hr", "epsilon"): "> 0",
    ("knn", "n_neighbors"): "an integer >= 1",
    ("dtr", "max_depth"): "an integer >= 1 or None",
    ("plr", "degree"): "an integer in [1, 10]",
    ("arima", "p"): "an integer >= 0",
    ("arima", "d"): "an integer >= 0",
}

# p and q over 1,001 orders each, times arima's 3 declared d values: 3,006,003 grid points
ARIMA_ORDERS = {f"models.arima.space.{p}": {"grid": list(range(1001))} for p in ("p", "q")}


def settings_by_path(config: ExperimentConfig) -> dict[tuple[str, ...], object]:
    """Every setting of a config, nested settings objects opened one level."""
    out: dict[tuple[str, ...], object] = {}
    for f in fields(config):
        value = getattr(config, f.name)
        if is_dataclass(value):
            out.update({(f.name, g.name): getattr(value, g.name) for g in fields(value)})
        else:
            out[(f.name,)] = value
    return out


@pytest.fixture
def workdir(tmp_path):
    rng = np.random.default_rng(99)
    dataset = Dataset("toy", tuple(random_series(rng, f"p{i}", n=36) for i in range(3)))
    write_dataset_csv(dataset, tmp_path / "data.csv")
    (tmp_path / "exp.cfg").write_text(CONFIG_TEXT)
    return tmp_path


def run_cli(*argv: str) -> int:
    return main(list(argv))


class TestValidate:
    def test_clean_file(self, workdir, capsys) -> None:
        code = run_cli("validate", "--data", str(workdir / "data.csv"))
        assert code == 0
        assert "0 issue(s)" in capsys.readouterr().out

    def test_gap_fails_with_issue_list(self, workdir, capsys) -> None:
        bad = workdir / "bad.csv"
        bad.write_text("series_id,frequency,t,value\na,monthly,1,5\na,monthly,3,6\n")
        code = run_cli("validate", "--data", str(bad), "--out", str(workdir / "out"))
        assert code == 1
        assert "gap" in capsys.readouterr().out
        issues = [
            json.loads(line)
            for line in (workdir / "out" / "issues.jsonl").read_text().splitlines()
        ]
        assert issues[0]["series_id"] == "a"
        assert issues[0]["line"] == 3


# a byte that is not utf-8, and a field past the csv module's size limit
UNREADABLE = {
    "undecodable": (b"series_id,frequency,t,value\nsk\xff1,monthly,1,3.0\n", "not utf-8 text"),
    "huge_field": (
        b"series_id,frequency,t,value\nsk1,monthly,1," + b"9" * 200_000 + b"\n",
        "field larger than field limit",
    ),
}


class TestUnreadableData:
    @pytest.mark.parametrize("kind", UNREADABLE)
    def test_validate_reports_and_exits_1(self, workdir, capsys, kind) -> None:
        data, message = UNREADABLE[kind]
        (workdir / "bad.csv").write_bytes(data)
        assert run_cli("validate", "--data", str(workdir / "bad.csv")) == 1
        out = capsys.readouterr().out
        assert "0 series parsed, 1 issue(s)" in out
        assert f"line 2: {message}" in out

    @pytest.mark.parametrize("kind", UNREADABLE)
    @pytest.mark.parametrize("command", ["sample", "run"])
    def test_sample_and_run_exit_1(self, workdir, capsys, kind, command) -> None:
        data, message = UNREADABLE[kind]
        (workdir / "bad.csv").write_bytes(data)
        extra = ("--config", str(workdir / "exp.cfg")) if command == "run" else ()
        assert run_cli(command, "--data", str(workdir / "bad.csv"), "--out", str(workdir / "out"), *extra) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"line 2: {message}" in err
        assert not (workdir / "out").exists()


class TestSample:
    def test_negative_seed_exits_1(self, workdir, capsys) -> None:
        out = workdir / "out"
        assert run_cli("sample", "--data", str(workdir / "data.csv"), "--out", str(out), "--seed", "-1") == 1
        assert capsys.readouterr().err == "error: seed must be a non-negative integer, got -1\n"
        assert not out.exists()

    def test_writes_loadable_sample(self, workdir) -> None:
        code = run_cli(
            "sample", "--data", str(workdir / "data.csv"), "--out", str(workdir / "out"),
            "--seed", "3",
        )
        assert code == 0
        sampled = load_dataset_csv(workdir / "out" / "sample.csv")
        assert len(sampled) == 3  # population 3 -> capped target 3

    def test_deterministic(self, workdir) -> None:
        for sub in ("a", "b"):
            run_cli(
                "sample", "--data", str(workdir / "data.csv"),
                "--out", str(workdir / sub), "--seed", "42",
            )
        assert (workdir / "a" / "sample.csv").read_text() == (workdir / "b" / "sample.csv").read_text()


class TestRun:
    def test_run_then_resume(self, workdir, capsys) -> None:
        args = (
            "run", "--config", str(workdir / "exp.cfg"),
            "--data", str(workdir / "data.csv"), "--out", str(workdir / "out"),
        )
        assert run_cli(*args) == 0
        out = capsys.readouterr().out
        assert "budget: 36 tasks" in out  # 3 series x 2 models x 2 conditions x 3 reps
        assert (workdir / "out" / "results.csv").exists()
        assert (workdir / "out" / "failures.jsonl").exists()

        assert run_cli(*args) == 0
        assert "resumed-skip 36" in capsys.readouterr().out

    def test_set_override(self, workdir, capsys) -> None:
        code = run_cli(
            "run", "--config", str(workdir / "exp.cfg"),
            "--data", str(workdir / "data.csv"), "--out", str(workdir / "out"),
            "--set", "experiment.repetitions=4",
        )
        assert code == 0
        assert "budget: 48 tasks" in capsys.readouterr().out

    def test_bad_config_exits_1(self, workdir, capsys) -> None:
        (workdir / "broken.cfg").write_text("experiment.models = []\n")
        code = run_cli(
            "run", "--config", str(workdir / "broken.cfg"),
            "--data", str(workdir / "data.csv"), "--out", str(workdir / "out"),
        )
        assert code == 1

    def test_config_that_is_not_utf8_exits_1(self, workdir, capsys) -> None:
        config = workdir / "latin1.cfg"
        config.write_bytes(CONFIG_TEXT.encode() + b"# caf\xe9\n")
        code = run_cli("run", "--config", str(config), "--data", str(workdir / "data.csv"), "--out", str(workdir / "out"))
        assert code == 1
        line = CONFIG_TEXT.count("\n") + 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {config}:{line}: not utf-8 text (invalid continuation byte)\n"
        assert not (workdir / "out").exists()

    def test_misspelled_override_exits_1(self, workdir, capsys) -> None:
        assert self._run_with(workdir, "opt.pso.swarmsize=3") == 1
        assert "opt.pso.swarmsize" in capsys.readouterr().err
        assert not (workdir / "out" / "results.csv").exists()

    def _run_with(self, workdir, *overrides: str) -> int:
        return run_cli(
            "run", "--config", str(workdir / "exp.cfg"),
            "--data", str(workdir / "data.csv"), "--out", str(workdir / "out"),
            *(arg for o in overrides for arg in ("--set", o)),
        )

    def test_unknown_model_exits_1(self, workdir, capsys) -> None:
        assert self._run_with(workdir, 'experiment.models=["ses", "prophet"]') == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "prophet" in err and "available" in err
        assert not (workdir / "out" / "results.csv").exists()

    def test_repeated_model_exits_1(self, workdir, capsys) -> None:
        assert self._run_with(workdir, 'experiment.models=["ses", "knn", "ses"]') == 1
        assert capsys.readouterr().err == "error: experiment.models: models repeat ses\n"
        assert not (workdir / "out" / "results.csv").exists()

    @pytest.mark.parametrize(
        "override",
        [
            'models.ses.space.alpha={"min": "x", "max": 1}',
            'models.knn.space.n_neighbors={"grid": [[1], [2]]}',
        ],
    )
    def test_malformed_domain_exits_1(self, workdir, capsys, override) -> None:
        assert self._run_with(workdir, override) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: models.") and err.count("\n") == 1
        assert not (workdir / "out" / "results.csv").exists()

    @pytest.mark.parametrize(
        "override, named",
        [
            ('models.ses.space.alpah={"min": 0.1, "max": 0.5}', "alpah"),
            ('models.prophet.space.x={"min": 0.1, "max": 0.5}', "prophet"),
            ('models.zzz.space.alpha={"min": 0.1, "max": 0.5}', "zzz"),
            ('models.ses.space.beta={"min": 0.1, "max": 0.5}', "beta"),
        ],
    )
    def test_override_of_undeclared_name_exits_1(self, workdir, capsys, override, named) -> None:
        assert self._run_with(workdir, override) == 1
        err = capsys.readouterr().err
        model_key = override.split("=")[0].rsplit(".", 1)[0]
        assert err.startswith(f"error: {model_key}") and named in err and err.count("\n") == 1
        assert not (workdir / "out" / "results.csv").exists()

    def test_too_few_repetitions_exits_1(self, workdir, capsys) -> None:
        # compare needs 3 repetitions per group, so 2 must fail before any work
        assert self._run_with(workdir, "experiment.repetitions=2") == 1
        assert "repetitions" in capsys.readouterr().err
        assert not (workdir / "out" / "results.csv").exists()

    def test_partial_override_keeps_other_params(self, workdir, capsys) -> None:
        code = self._run_with(
            workdir,
            'experiment.models=["enr"]',
            'models.enr.space.alpha={"min": 0.01, "max": 1.0, "scale": "log"}',
        )
        assert code == 0
        assert "failed 0" in capsys.readouterr().out

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_jobs_below_one_exits_1(self, workdir, capsys, jobs) -> None:
        code = run_cli(
            "run", "--config", str(workdir / "exp.cfg"),
            "--data", str(workdir / "data.csv"), "--out", str(workdir / "out"), "--jobs", jobs,
        )
        assert code == 1
        assert "--jobs" in capsys.readouterr().err
        assert not (workdir / "out").exists()

    @pytest.mark.parametrize("key", REMOVED_KEYS)
    def test_removed_key_exits_1(self, workdir, capsys, key) -> None:
        assert self._run_with(workdir, f"{key}=1") == 1
        assert capsys.readouterr().err == f"error: unknown config keys: {key}\n"
        assert not (workdir / "out" / "results.csv").exists()

    @pytest.mark.parametrize(
        "key, raw",
        [
            ("experiment.alpha", "NaN"),
            ("experiment.alpha", "Infinity"),
            ("experiment.alpha", "-Infinity"),
            ("experiment.alpha", "1" + "0" * 400),
            ("opt.pso.iterations", "1" * 5000),  # past the integer parser's digit limit
            ("models.ses.space.alpha", '{"min": 0, "max": 1' + "0" * 400 + "}"),
            ("models.ses.space.alpha", '{"min": NaN, "max": 1}'),
            ("models.ses.space.alpha", '{"grid": [NaN, 0.5]}'),
            ("models.ses.space.alpha", '{"grid": [Infinity]}'),
        ],
        ids=lambda v: v if len(v) < 40 else f"{v[:12]}...({len(v)} chars)",
    )
    def test_non_finite_or_overflowing_number_exits_1(self, workdir, capsys, key, raw) -> None:
        assert self._run_with(workdir, f"{key}={raw}") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and key in err.split(": ")[1] and err.count("\n") == 1
        assert not (workdir / "out" / "results.csv").exists()

    @pytest.mark.parametrize(
        "override, label",
        [
            ('models.knn.space.n_neighbors={"min": 1, "max": 9, "integer": true}', "pso"),
            ('models.ses.space.alpha={"grid": [0.1, 0.3, 0.5]}', "grid"),
        ],
    )
    def test_override_that_changes_the_domain_kind_completes(self, workdir, capsys, override, label) -> None:
        model = override.split(".")[1]
        assert self._run_with(workdir, f'experiment.models=["{model}"]', override) == 0
        assert "failed 0" in capsys.readouterr().out
        rows = ResultsStore(workdir / "out" / "results.csv").rows
        assert len(rows) == 18 * 9 and {r["optimizer"] for r in rows} == {label}

    def test_mixed_space_under_pso_exits_1(self, workdir, capsys) -> None:
        models = 'experiment.models=["enr"]'
        mixed = 'models.enr.space.l1_ratio={"grid": [0.1, 0.5]}'
        assert self._run_with(workdir, models, mixed) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: models.enr.space.l1_ratio: ") and err.count("\n") == 1
        assert not (workdir / "out" / "results.csv").exists()
        tpe = ('experiment.scs_optimizer="tpe"', "opt.tpe.trials=5", "opt.tpe.startup=2")
        assert self._run_with(workdir, models, mixed, *tpe) == 0
        assert "failed 0" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "model, param, grid, held",
        [
            ("rr", "alpha", '[1, "a"]', "'a'"),  # was a ValueError traceback
            ("ses", "alpha", '[null, "a"]', "None"),  # was a TypeError traceback
            ("arima", "d", "[null]", "None"),  # was a TypeError traceback
            ("dtr", "max_depth", '["x"]', "'x'"),  # was a ValueError traceback
            ("knn", "n_neighbors", '["3"]', "'3'"),  # was read through int("3")
            ("ses", "alpha", "[true]", "True"),  # was read through float(True)
        ],
    )
    def test_grid_value_that_is_not_a_number_exits_1(self, workdir, capsys, model, param, grid, held) -> None:
        key = f"models.{model}.space.{param}"
        assert self._run_with(workdir, f'experiment.models=["{model}"]', f'{key}={{"grid": {grid}}}') == 1
        legal = LEGAL[model, param]
        assert capsys.readouterr().err == f"error: {key}: {model}: {param} must be {legal}, got {held}\n"
        assert not (workdir / "out" / "results.csv").exists()

    @pytest.mark.parametrize(
        "override, got",
        [
            ('models.ses.space.alpha={"min": 0.01, "max": 5}', "IntervalDomain(lower=0.01, upper=5.0"),
            ('models.knn.space.n_neighbors={"grid": [0, 1]}', "0"),
            ('models.knn.space.n_neighbors={"min": 0, "max": 0}', "IntervalDomain(lower=0.0, upper=0.0"),
            ('models.dtr.space.max_depth={"grid": [0, -1]}', "0"),
            ('models.lsr.space.alpha={"min": -1, "max": 1}', "IntervalDomain(lower=-1.0, upper=1.0"),
            ('models.hr.space.epsilon={"min": -3, "max": 0.5}', "IntervalDomain(lower=-3.0, upper=0.5"),
            ('models.plr.space.degree={"min": 0.01, "max": 5, "scale": "log"}', "IntervalDomain(lower=0.01"),
            ('models.plr.space.degree={"grid": [800]}', "800"),
            ('models.arima.space.p={"grid": [-1, 0]}', "-1"),
            ('models.arima.space.d={"grid": [-1]}', "-1"),
            # fractional values of integer parameters, which int() used to truncate
            ('models.knn.space.n_neighbors={"grid": [2.5]}', "2.5"),
            ('models.arima.space.d={"grid": [0.5]}', "0.5"),
            ('models.plr.space.degree={"grid": [1.5]}', "1.5"),
            ('models.dtr.space.max_depth={"grid": [2.5]}', "2.5"),
        ],
    )
    def test_override_outside_the_legal_values_exits_1(self, workdir, capsys, override, got) -> None:
        key, _ = override.split("=", 1)
        _, model, _, param = key.split(".")
        legal_override = 'models.rr.space.alpha={"grid": [0.1, 1.0]}'  # another model's key stays unnamed
        assert self._run_with(workdir, f'experiment.models=["{model}"]', legal_override, override) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {key}: {model}: {param} must be {LEGAL[model, param]}, got {got}")
        assert err.count("\n") == 1
        assert not (workdir / "out").exists()

    @pytest.mark.parametrize(
        "override",
        ['models.knn.space.n_neighbors={"grid": [1, 5, 9]}', 'models.dtr.space.max_depth={"grid": [2, 4, 8, null]}'],
    )
    def test_legal_grid_override_completes(self, workdir, capsys, override) -> None:
        model = override.split(".")[1]
        assert self._run_with(workdir, f'experiment.models=["{model}"]', override) == 0
        assert "failed 0" in capsys.readouterr().out

    def test_none_on_a_grid_that_declares_it_completes(self, workdir, capsys) -> None:
        override = 'models.dtr.space.max_depth={"grid": [3, null]}'
        assert self._run_with(workdir, 'experiment.models=["dtr"]', override) == 0
        assert "failed 0" in capsys.readouterr().out

    def test_grid_above_the_cap_exits_1(self, workdir, capsys) -> None:
        orders = (f"{key}={json.dumps(domain)}" for key, domain in ARIMA_ORDERS.items())
        assert self._run_with(workdir, 'experiment.models=["arima"]', *orders) == 1
        err = capsys.readouterr().err
        assert err == (
            "error: models.arima.space.p, models.arima.space.q: arima has 3006003 grid points, cap is 1000000\n"
        )
        assert not (workdir / "out" / "results.csv").exists()

    def test_bad_dataset_exits_1(self, workdir) -> None:
        bad = workdir / "bad.csv"
        bad.write_text("series_id,frequency,t,value\na,monthly,1,oops\n")
        code = run_cli(
            "run", "--config", str(workdir / "exp.cfg"),
            "--data", str(bad), "--out", str(workdir / "out"),
        )
        assert code == 1


class TestCompareAndReport:
    @pytest.fixture
    def finished_run(self, workdir):
        run_cli(
            "run", "--config", str(workdir / "exp.cfg"),
            "--data", str(workdir / "data.csv"), "--out", str(workdir / "out"),
        )
        return workdir

    def test_compare_writes_tables_and_z(self, finished_run, capsys) -> None:
        out = finished_run / "out"
        assert run_cli("compare", "--out", str(out)) == 0
        case_files = sorted(p.name for p in out.glob("cases_*.csv"))
        assert case_files == [
            "cases_hef_vs_maef_80-20_grid.csv",
            "cases_hef_vs_maef_80-20_pso.csv",
        ]
        with (out / case_files[0]).open() as fh:
            reader = csv.DictReader(fh)
            assert reader.fieldnames == [
                "metric", "improves_hef", "improves_maef", "no_change", "comparisons", "constant",
            ]
            rows = list(reader)
        assert [r["metric"] for r in rows] == list(METRIC_NAMES)
        z = (out / "z_summary_hef_vs_maef.csv").read_text().splitlines()
        assert z[0] == "pair,optimizer,split,metric_scope,Z,log10_p"

    def test_compare_without_results_exits_nonzero(self, workdir) -> None:
        (workdir / "empty").mkdir()
        code = run_cli("compare", "--out", str(workdir / "empty"))
        assert code in (1, 2)  # no store present

    def test_report_without_results_exits_1(self, workdir, capsys) -> None:
        empty = workdir / "empty"
        empty.mkdir()
        assert run_cli("compare", "--out", str(empty)) == 1
        compare_err = capsys.readouterr().err
        assert run_cli("report", "--out", str(empty)) == 1
        assert capsys.readouterr().err == compare_err
        assert "no completed results" in compare_err
        assert list(empty.iterdir()) == []

    def test_report_emits_per_metric_csvs(self, finished_run) -> None:
        out = finished_run / "out"
        assert run_cli("report", "--out", str(out)) == 0
        for metric in METRIC_NAMES:
            path = out / "report" / f"improvement_{metric}.csv"
            lines = path.read_text().splitlines()
            assert lines[0] == "series_id,model,split,optimizer,metric,pct_improvement"

    def test_report_on_absent_pair_is_header_only(self, finished_run) -> None:
        out = finished_run / "out"
        assert run_cli("report", "--out", str(out), "--pair", "baseline,maef") == 0
        for metric in METRIC_NAMES:
            lines = (out / "report" / f"improvement_{metric}.csv").read_text().splitlines()
            assert len(lines) == 1  # baseline never ran in this sweep


class TestStrayCarriageReturn:
    """A ``\\r`` inside a line, which the csv module refuses to read."""

    @pytest.fixture
    def stores(self, workdir):
        """The store of a finished run, the same store with a ``\\r`` inside the
        fourth row of task 24 (the first task of p2), and its first 24 tasks only."""
        out = workdir / "out"
        assert run_cli("run", "--config", str(workdir / "exp.cfg"), "--data", str(workdir / "data.csv"),
                       "--out", str(out)) == 0
        whole = (out / "results.csv").read_bytes()
        lines = whole.split(b"\r\n")
        damaged = b"\r\n".join(lines[:220] + [lines[220][:1] + b"\r" + lines[220][1:]] + lines[221:])
        prefix = b"\r\n".join(lines[:217]) + b"\r\n"
        return out, whole, damaged, prefix

    @staticmethod
    def _outputs(out, command, capsys):
        """The exit code, stdout and files of ``command`` on ``out``."""
        code = run_cli(command, "--out", str(out))
        stdout = capsys.readouterr().out.replace(str(out), "OUT")
        written = {str(p.relative_to(out)): p.read_bytes() for p in out.rglob("*.csv") if p.name != "results.csv"}
        return code, stdout, written

    @pytest.mark.parametrize("command", ["compare", "report"])
    def test_in_a_row_analysis_reads_the_whole_tasks_before_it(self, tmp_path, stores, capsys, command) -> None:
        out, _, damaged, prefix = stores
        expected_dir, damaged_dir = tmp_path / "expected", tmp_path / "damaged"
        for directory, data in ((expected_dir, prefix), (damaged_dir, damaged)):
            directory.mkdir()
            (directory / "results.csv").write_bytes(data)
        expected = self._outputs(expected_dir, command, capsys)
        assert expected[0] == 0
        assert self._outputs(damaged_dir, command, capsys) == expected
        assert (damaged_dir / "results.csv").read_bytes() == damaged

    def test_in_a_row_run_drops_and_reruns_the_tasks_from_it(self, workdir, stores, capsys, caplog) -> None:
        out, whole, damaged, prefix = stores
        (out / "results.csv").write_bytes(damaged)
        args = ("run", "--config", str(workdir / "exp.cfg"), "--data", str(workdir / "data.csv"), "--out", str(out))
        assert run_cli(*args) == 0
        assert "executed 12, resumed-skip 24, failed 0" in capsys.readouterr().out
        assert f"dropping {len(damaged) - len(prefix)} bytes after the last whole task" in caplog.text
        rerun = (out / "results.csv").read_bytes()
        assert rerun.startswith(prefix)
        without_exec_time = lambda data: [line for line in data.split(b"\r\n") if b",exec_time," not in line]
        assert without_exec_time(rerun) == without_exec_time(whole)

    @pytest.mark.parametrize("command", ["compare", "report", "run"])
    def test_in_the_header_is_not_a_results_store(self, workdir, stores, capsys, command) -> None:
        out, whole, _, _ = stores
        damaged = whole[:3] + b"\r" + whole[3:]
        (out / "results.csv").write_bytes(damaged)
        args = ("--config", str(workdir / "exp.cfg"), "--data", str(workdir / "data.csv")) if command == "run" else ()
        assert run_cli(command, *args, "--out", str(out)) == 1
        assert capsys.readouterr().err == f"error: {out / 'results.csv'}: not a results store\n"
        assert (out / "results.csv").read_bytes() == damaged


def write_store(path, label_of=lambda model, rep: {"ses": "pso", "knn": "grid"}[model]) -> None:
    """Five reps of p0 and p1 under ses and knn, hef and maef. The maef side of
    ses is worse on mae, rmse, rmsse and mase; that of knn is better on p1 and
    equal on p0; r2, gra and exec_time are equal throughout."""
    store = ResultsStore(path)
    for i, sid in enumerate(("p0", "p1")):
        for model in ("ses", "knn"):
            for condition, shift in (("hef", 0.0), ("maef", 1.0 + i if model == "ses" else -1.0 * i)):
                for rep in range(5):
                    values = {
                        m: 2.0 + k + shift * (k % 3) + 0.1 * ((3 * rep + k) % 5)
                        for k, m in enumerate(METRIC_NAMES)
                    }
                    values.update(opt_evals=20.0, opt_best_score=1.0)
                    store.append(TaskKey(sid, model, condition, "80:20", rep), label_of(model, rep), values)
    store.close()


# what ``compare`` printed and wrote for ``write_store`` before its two loops
# over each table became one
COMPARE_STDOUT = """\
cases_hef_vs_maef_80-20_grid.csv:
         r2: improves_hef=0 improves_maef=0 no_change=2 constant=0
        mae: improves_hef=0 improves_maef=1 no_change=1 constant=0
       rmse: improves_hef=0 improves_maef=1 no_change=1 constant=0
        gra: improves_hef=0 improves_maef=0 no_change=2 constant=0
      rmsse: improves_hef=0 improves_maef=1 no_change=1 constant=0
       mase: improves_hef=0 improves_maef=1 no_change=1 constant=0
  exec_time: improves_hef=0 improves_maef=0 no_change=2 constant=0
cases_hef_vs_maef_80-20_pso.csv:
         r2: improves_hef=0 improves_maef=0 no_change=2 constant=0
        mae: improves_hef=2 improves_maef=0 no_change=0 constant=0
       rmse: improves_hef=2 improves_maef=0 no_change=0 constant=0
        gra: improves_hef=0 improves_maef=0 no_change=2 constant=0
      rmsse: improves_hef=2 improves_maef=0 no_change=0 constant=0
       mase: improves_hef=2 improves_maef=0 no_change=0 constant=0
  exec_time: improves_hef=0 improves_maef=0 no_change=2 constant=0
wrote OUT/z_summary_hef_vs_maef.csv
"""
COMPARE_FILES = {
    "cases_hef_vs_maef_80-20_grid.csv": (
        b"metric,improves_hef,improves_maef,no_change,comparisons,constant\r\nr2,0,0,2,2,0\r\nmae,0,1,1,2,0\r\n"
        b"rmse,0,1,1,2,0\r\ngra,0,0,2,2,0\r\nrmsse,0,1,1,2,0\r\nmase,0,1,1,2,0\r\nexec_time,0,0,2,2,0\r\n"
    ),
    "cases_hef_vs_maef_80-20_pso.csv": (
        b"metric,improves_hef,improves_maef,no_change,comparisons,constant\r\nr2,0,0,2,2,0\r\nmae,2,0,0,2,0\r\n"
        b"rmse,2,0,0,2,0\r\ngra,0,0,2,2,0\r\nrmsse,2,0,0,2,0\r\nmase,2,0,0,2,0\r\nexec_time,0,0,2,2,0\r\n"
    ),
    "z_summary_hef_vs_maef.csv": (
        b"pair,optimizer,split,metric_scope,Z,log10_p\r\n"
        b"hef_vs_maef,grid,80:20,pooled,-2.1602,-1.5121\r\nhef_vs_maef,grid,80:20,mae,-1.1547,-0.6052\r\n"
        b"hef_vs_maef,grid,80:20,rmse,-1.1547,-0.6052\r\nhef_vs_maef,grid,80:20,rmsse,-1.1547,-0.6052\r\n"
        b"hef_vs_maef,grid,80:20,mase,-1.1547,-0.6052\r\nhef_vs_maef,pso,80:20,pooled,3.3466,-3.0873\r\n"
        b"hef_vs_maef,pso,80:20,mae,2.0000,-1.3420\r\nhef_vs_maef,pso,80:20,rmse,2.0000,-1.3420\r\n"
        b"hef_vs_maef,pso,80:20,rmsse,2.0000,-1.3420\r\nhef_vs_maef,pso,80:20,mase,2.0000,-1.3420\r\n"
    ),
}


class TestCompareOutput:
    def test_stdout_and_files_are_the_frozen_bytes(self, tmp_path, capsys) -> None:
        write_store(tmp_path / "results.csv")
        assert run_cli("compare", "--out", str(tmp_path)) == 0
        assert capsys.readouterr().out.replace(str(tmp_path), "OUT") == COMPARE_STDOUT
        written = {p.name: p.read_bytes() for p in tmp_path.glob("*.csv") if p.name != "results.csv"}
        assert written == COMPARE_FILES

    def test_constant_column_counts_pairs_of_constant_groups(self, tmp_path, capsys) -> None:
        # knn's reps are one value per run, as a grid unit stores them; on
        # p1 its maef side is another constant on the metrics that shift
        store = ResultsStore(tmp_path / "results.csv")
        for i, sid in enumerate(("p0", "p1")):
            for condition, shift in (("hef", 0.0), ("maef", -1.0 * i)):
                for rep in range(5):
                    values = {m: 2.0 + k + shift * (k % 3) for k, m in enumerate(METRIC_NAMES)}
                    values.update(opt_evals=15.0, opt_best_score=1.0)
                    store.append(TaskKey(sid, "knn", condition, "80:20", rep), "grid", values)
        store.close()
        assert run_cli("compare", "--out", str(tmp_path)) == 0
        out = capsys.readouterr().out
        assert "        mae: improves_hef=0 improves_maef=1 no_change=1 constant=2\n" in out
        assert "         r2: improves_hef=0 improves_maef=0 no_change=2 constant=2\n" in out
        with (tmp_path / "cases_hef_vs_maef_80-20_grid.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert [(r["comparisons"], r["constant"]) for r in rows] == [("2", "2")] * len(METRIC_NAMES)

    @pytest.mark.parametrize("command", ["compare", "report"])
    def test_run_under_two_labels_exits_1(self, tmp_path, capsys, command) -> None:
        def label_of(model: str, rep: int) -> str:  # reps 0-2 of each ses run under pso, 3-4 under tpe
            return "grid" if model == "knn" else "pso" if rep < 3 else "tpe"

        write_store(tmp_path / "results.csv", label_of)
        assert run_cli(command, "--out", str(tmp_path)) == 1
        err = capsys.readouterr().err
        assert "p0/ses/80:20/hef holds reps under two optimizer labels, pso and tpe" in err
        assert [p.name for p in tmp_path.iterdir()] == ["results.csv"]


    @pytest.mark.parametrize(
        "command, pair", [("report", "hef,hef"), ("compare", "baseline,baseline"), ("compare", "hef,foo")]
    )
    def test_bad_pair_exits_1(self, tmp_path, capsys, command, pair) -> None:
        write_store(tmp_path / "results.csv")
        assert run_cli(command, "--out", str(tmp_path), "--pair", pair) == 1
        assert "two distinct conditions" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["results.csv"]

    @pytest.mark.parametrize("alpha", ["1.5", "nan", "0", "1", "-0.05"])
    def test_alpha_outside_the_unit_interval_exits_1(self, tmp_path, capsys, alpha) -> None:
        write_store(tmp_path / "results.csv")
        assert run_cli("compare", "--out", str(tmp_path), "--alpha", alpha) == 1
        assert capsys.readouterr().err == f"error: alpha must lie in (0, 1), got {float(alpha)!r}\n"
        assert [p.name for p in tmp_path.iterdir()] == ["results.csv"]

    @pytest.mark.parametrize("command", ["compare", "report"])
    def test_cell_under_two_labels_exits_1(self, tmp_path, capsys, command) -> None:
        store = ResultsStore(tmp_path / "results.csv")
        values = {m: 1.0 for m in METRIC_NAMES} | {"opt_evals": 20.0, "opt_best_score": 1.0}
        for condition, label in (("hef", "pso"), ("maef", "tpe")):
            for rep in range(3):
                store.append(TaskKey("p0", "ses", condition, "80:20", rep), label, values)
        store.close()
        assert run_cli(command, "--out", str(tmp_path)) == 1
        assert "cell p0/ses/80:20 holds hef reps under pso and maef reps under tpe" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["results.csv"]

    @pytest.mark.parametrize("command", ["compare", "report"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_stored_value_exits_1(self, tmp_path, capsys, command, value) -> None:
        path = tmp_path / "results.csv"
        write_store(path)
        data = path.read_bytes()
        row = b"p1,knn,maef,grid,80:20,2,rmse,"
        start = data.index(row) + len(row)
        path.write_bytes(data[:start] + value.encode() + data[data.index(b"\r\n", start) :])
        assert len(ResultsStore(path)) == 40  # the edited store is whole
        assert run_cli(command, "--out", str(tmp_path)) == 1
        assert capsys.readouterr().err == f"error: run p1/knn/80:20/maef holds rmse = {value} at rep 2\n"
        assert [p.name for p in tmp_path.iterdir()] == ["results.csv"]


class TestConfigModule:
    def test_parse_file_and_overrides(self, tmp_path) -> None:
        path = tmp_path / "c.cfg"
        path.write_text("a.b = 3\nname = bare # trailing comment\nlist = [1, 2]\n")
        flat = parse_config_file(path)
        assert flat == {"a.b": 3, "name": "bare", "list": [1, 2]}
        key, value = parse_override("opt.pso.swarm_size=12")
        assert key == "opt.pso.swarm_size" and value == 12

    def test_parse_errors_carry_line_numbers(self, tmp_path) -> None:
        path = tmp_path / "c.cfg"
        path.write_text("fine = 1\nnot a pair\n")
        with pytest.raises(ConfigError, match=":2:"):
            parse_config_file(path)

    def test_build_defaults(self) -> None:
        config = build_experiment_config({"experiment.models": ["ses"]})
        assert config.repetitions == 21
        assert config.pso.swarm_size == 20
        assert config.tpe.trials == 60
        assert config.splits[0].label == "80:20"

    def test_defaults_are_the_dataclass_defaults(self, monkeypatch) -> None:
        monkeypatch.delenv(SEED_ENV_VAR, raising=False)
        built = build_experiment_config({"experiment.models": ["ses"]})
        expected = ExperimentConfig(models=("ses",))
        for f in fields(ExperimentConfig):
            assert getattr(built, f.name) == getattr(expected, f.name), f.name

    @pytest.mark.parametrize("key, path, value", SCALAR_KEYS, ids=[k for k, _, _ in SCALAR_KEYS])
    def test_each_scalar_key_sets_its_field(self, monkeypatch, key, path, value) -> None:
        monkeypatch.delenv(SEED_ENV_VAR, raising=False)
        before = settings_by_path(ExperimentConfig(models=("ses",)))
        after = settings_by_path(build_experiment_config({"experiment.models": ["ses"], key: value}))
        assert before[path] != value
        assert after[path] == value and type(after[path]) is type(before[path])
        assert [p for p in before if after[p] != before[p]] == [path]

    @pytest.mark.parametrize(
        "key, value",
        [
            ("opt.pso.swarm_size", None),
            ("experiment.alpha", None),
            ("experiment.seed", None),
            ("opt.tpe.trials", 30.0),
            ("opt.tpe.startup", "big"),
            ("experiment.scs_optimizer", "grid"),
            ("opt.pso.iterations", 0),
            ("opt.tpe.trials", 5),  # fewer than the default 10 startup trials
            ("experiment.conditions", ["hef"]),
            ("experiment.splits", []),
        ],
    )
    def test_rejections_name_the_key(self, key, value) -> None:
        with pytest.raises(ConfigError, match=re.escape(key)):
            build_experiment_config({"experiment.models": ["ses"], key: value})

    def test_seed_precedence(self, monkeypatch) -> None:
        flat = {"experiment.models": ["ses"], "experiment.seed": 5}
        assert build_experiment_config(flat).master_seed == 5
        monkeypatch.setenv(SEED_ENV_VAR, "6")
        assert build_experiment_config(flat).master_seed == 6
        assert build_experiment_config(flat, seed_override=7).master_seed == 7

    def test_space_override_round_trip(self) -> None:
        flat = {
            "experiment.models": ["ses"],
            "models.ses.space.alpha": {"min": 0.1, "max": 0.5},
            "models.knn.space.n_neighbors": {"grid": [1, 2, 3]},
        }
        config = build_experiment_config(flat)
        assert set(config.space_overrides) == {"ses", "knn"}
        assert config.space_overrides["ses"]["alpha"].upper == 0.5
        assert config.space_overrides["knn"]["n_neighbors"].values == (1, 2, 3)

    def test_partial_override_merges_into_declared_space(self) -> None:
        flat = {
            "experiment.models": ["enr"],
            "models.enr.space.alpha": {"min": 0.01, "max": 1.0},
        }
        space = build_experiment_config(flat).search_space("enr")
        assert space.names == ("alpha", "l1_ratio")
        assert space["alpha"].upper == 1.0
        assert space["l1_ratio"] == create("enr").declared_space["l1_ratio"]

    @pytest.mark.parametrize("key, named", [("models.zzz.space.alpha", "zzz"), ("models.ses.space.beta", "beta")])
    def test_override_of_undeclared_name_refused(self, key, named) -> None:
        with pytest.raises(ConfigError, match=re.escape(key.rsplit(".", 1)[0]) + ".*" + named):
            build_experiment_config({"experiment.models": ["ses"], key: {"min": 0.1, "max": 0.5}})

    @pytest.mark.parametrize(
        "key, value",
        [
            ("experiment.models", ["ses", "ses"]),
            ("experiment.splits", ["80:20", "70:30", "80:20"]),
            ("experiment.conditions", ["hef", "hef", "maef"]),
        ],
    )
    def test_repeated_list_value_refused(self, key, value) -> None:
        with pytest.raises(ConfigError, match=re.escape(key)):
            build_experiment_config({"experiment.models": ["ses"], key: value})

    def test_unknown_keys_rejected(self) -> None:
        for key in ("opt.pso.swarmsize", "hef.stack_level4", "experiment.model", "models.ses.alpha"):
            with pytest.raises(ConfigError, match=key):
                build_experiment_config({"experiment.models": ["ses"], key: 3})

    @pytest.mark.parametrize(
        "key", ["opt.tpe.startup", "experiment.alpha", "opt.pso.iterations", "experiment.seed"]
    )
    def test_booleans_are_not_numbers(self, key) -> None:
        with pytest.raises(ConfigError, match=key):
            build_experiment_config({"experiment.models": ["ses"], key: True})

    @pytest.mark.parametrize(
        "domain",
        [{"min": 1.2, "max": 1.8, "integer": True}, {"min": 1, "max": 9, "integer": "false"}],
    )
    def test_bad_integer_interval_rejected(self, domain) -> None:
        flat = {"experiment.models": ["knn"], "models.knn.space.n_neighbors": domain}
        with pytest.raises(ConfigError, match="models.knn.space.n_neighbors"):
            build_experiment_config(flat)

    def test_mixed_space_needs_tpe(self) -> None:
        # pso searches intervals only; tpe searches grids and intervals together
        flat = {"experiment.models": ["enr"], "models.enr.space.l1_ratio": {"grid": [0.1, 0.5]}}
        with pytest.raises(ConfigError, match="models.enr.space.l1_ratio"):
            build_experiment_config(flat)
        space = build_experiment_config({**flat, "experiment.scs_optimizer": "tpe"}).search_space("enr")
        assert space["l1_ratio"].values == (0.1, 0.5)
        assert space["alpha"] == create("enr").declared_space["alpha"]

    @pytest.mark.parametrize(
        "flat, keys",
        [
            (
                {"experiment.models": ["ses", "arima"], **ARIMA_ORDERS},
                "models.arima.space.p, models.arima.space.q: arima has 3006003 grid points, cap is 1000000",
            ),
            (
                {"experiment.models": ["arima"], "experiment.scs_optimizer": "tpe", **ARIMA_ORDERS},
                "experiment.scs_optimizer, models.arima.space.p, models.arima.space.q: arima has 3006003",
            ),
        ],
    )
    def test_grid_above_the_cap_refused(self, flat, keys) -> None:
        with pytest.raises(ConfigError, match=re.escape(keys)):
            build_experiment_config(flat)
        # a grid of exactly the cap, or a grid the run does not search, is accepted
        at_the_cap = {f"models.arima.space.{p}": {"grid": list(range(1000))} for p in ("p", "q")}
        build_experiment_config({**flat, **at_the_cap, "models.arima.space.d": {"grid": [0]}})
        build_experiment_config({**flat, "experiment.models": ["lsr"]})

    @pytest.mark.parametrize("key", REMOVED_KEYS)
    def test_removed_search_setting_is_an_unknown_key(self, key) -> None:
        with pytest.raises(ConfigError, match=f"^unknown config keys: {re.escape(key)}$"):
            build_experiment_config({"experiment.models": ["ses"], key: 1})

    def test_each_settings_field_is_set_by_exactly_one_key(self) -> None:
        config = ExperimentConfig(models=("ses",))
        set_by_keys = list(_SCALAR_KEYS.values())
        assert {key for key, _, _ in SCALAR_KEYS} == set(_SCALAR_KEYS)  # each key's row is checked above
        for name in ("pso", "tpe"):
            for f in fields(getattr(config, name)):
                assert set_by_keys.count((name, f.name)) == 1, (name, f.name)

    def test_bad_space_override(self) -> None:
        flat = {"experiment.models": ["ses"], "models.ses.space.alpha": {"grid": "oops"}}
        with pytest.raises(ConfigError):
            build_experiment_config(flat)
