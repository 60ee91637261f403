"""Command-line workflows end to end, exit codes included."""

from __future__ import annotations

import csv
import json
import re
from dataclasses import fields, is_dataclass

import numpy as np
import pytest

from hef_lab.cli import main
from hef_lab.config import SEED_ENV_VAR, build_experiment_config, parse_config_file, parse_override
from hef_lab.errors import ConfigError
from hef_lab.metrics import METRIC_NAMES
from hef_lab.models import create
from hef_lab.protocol import ExperimentConfig
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
# the config module's own table) and a valid value that differs from the default;
# the integer values for the r2 and mae weights stand for floats.
SCALAR_KEYS = [
    ("experiment.scs_optimizer", ("scs_optimizer",), "tpe"),
    ("experiment.repetitions", ("repetitions",), 5),
    ("experiment.seed", ("master_seed",), 9),
    ("experiment.alpha", ("alpha",), 0.1),
    ("opt.pso.swarm_size", ("pso", "swarm_size"), 7),
    ("opt.pso.iterations", ("pso", "iterations"), 9),
    ("opt.pso.inertia", ("pso", "inertia"), 0.5),
    ("opt.pso.cognitive", ("pso", "cognitive"), 2.0),
    ("opt.pso.social", ("pso", "social"), 1.0),
    ("opt.pso.velocity_clamp", ("pso", "velocity_clamp"), 0.25),
    ("opt.tpe.trials", ("tpe", "trials"), 30),
    ("opt.tpe.startup", ("tpe", "startup"), 5),
    ("opt.tpe.gamma", ("tpe", "gamma"), 0.3),
    ("opt.tpe.candidates", ("tpe", "candidates"), 10),
    ("opt.tpe.bandwidth_factor", ("tpe", "bandwidth_factor"), 2.0),
    ("opt.grid.cap", ("grid_cap",), 500),
    ("hef.weights.r2", ("hef_weights", "r2"), 2),
    ("hef.weights.mae", ("hef_weights", "mae"), 3),
    ("hef.weights.rmse", ("hef_weights", "rmse"), 0.75),
    ("hef.penalties.l1", ("hef_penalties", "level_1"), 1.1),
    ("hef.penalties.l2", ("hef_penalties", "level_2"), 1.35),
    ("hef.penalties.l3", ("hef_penalties", "level_3"), 1.6),
    ("hef.penalties.l4", ("hef_penalties", "level_4"), 2.5),
]


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


class TestSample:
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
        ],
    )
    def test_override_of_undeclared_name_exits_1(self, workdir, capsys, override, named) -> None:
        assert self._run_with(workdir, override) == 1
        assert named in capsys.readouterr().err
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

    @pytest.mark.parametrize(
        "key, raw",
        [
            ("hef.weights.r2", "NaN"),
            ("hef.weights.mae", "Infinity"),
            ("hef.weights.r2", "1" + "0" * 400),
            ("opt.grid.cap", "1" * 5000),  # past the integer parser's digit limit
            ("hef.penalties.l1", "NaN"),
            ("hef.penalties.l4", "Infinity"),
            ("opt.pso.cognitive", "Infinity"),
            ("opt.pso.social", "NaN"),
            ("opt.pso.inertia", "NaN"),
            ("opt.tpe.bandwidth_factor", "Infinity"),
            ("experiment.alpha", "-Infinity"),
            ("models.ses.space.alpha", '{"min": 0, "max": 1' + "0" * 400 + "}"),
            ("models.ses.space.alpha", '{"min": NaN, "max": 1}'),
        ],
        ids=lambda v: v if len(v) < 40 else f"{v[:12]}...({len(v)} chars)",
    )
    def test_non_finite_or_overflowing_number_exits_1(self, workdir, capsys, key, raw) -> None:
        assert self._run_with(workdir, f"{key}={raw}") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and key in err.split(": ")[1] and err.count("\n") == 1
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
                "metric", "improves_hef", "improves_maef", "no_change", "comparisons",
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
        assert config.hef_weights.rmse == 0.5
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
            ("opt.grid.cap", "big"),
            ("experiment.scs_optimizer", "grid"),
            ("opt.pso.inertia", 1.0),
            ("opt.tpe.trials", 5),  # fewer than the default 10 startup trials
            ("hef.penalties.l2", 1.6),  # above the default l3 of 1.5
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
        space = build_experiment_config(flat).space_overrides["enr"]
        assert space.names == ("alpha", "l1_ratio")
        assert space["alpha"].upper == 1.0
        assert space["l1_ratio"] == create("enr").space()["l1_ratio"]

    def test_unknown_keys_rejected(self) -> None:
        for key in ("opt.pso.swarmsize", "hef.stack_level4", "experiment.model", "models.ses.alpha"):
            with pytest.raises(ConfigError, match=key):
                build_experiment_config({"experiment.models": ["ses"], key: 3})

    @pytest.mark.parametrize(
        "key", ["opt.grid.cap", "hef.weights.r2", "opt.pso.iterations", "experiment.seed"]
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

    def test_bad_space_override(self) -> None:
        flat = {"experiment.models": ["ses"], "models.ses.space.alpha": {"grid": "oops"}}
        with pytest.raises(ConfigError):
            build_experiment_config(flat)
