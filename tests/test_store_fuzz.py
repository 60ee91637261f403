"""Seeded mutations of a small valid results store: ``compare``, ``report`` and
``run`` each end in an exit code on every one, with no traceback and no warning.

Each seed applies one mutation to the store of a finished run: a byte replaced
by ``\\r``, ``\\n``, ``\\0``, ``,``, ``"`` or a byte that is not UTF-8; a field
replaced; or a line deleted or duplicated. Every call goes through ``cli.main``
in-process with every warning raised as an error. Before the commands run,
the store is opened once more, and what it read must equal what
``_ReferenceStore``, a verbatim copy of the reader that built one dict per
row, reads from the same bytes.
"""

from __future__ import annotations

import csv
import warnings
from pathlib import Path

import numpy as np
import pytest

from hef_lab.cli import main
from hef_lab.errors import InvalidParameterError
from hef_lab.protocol import _HEADER_LINE, STORE_COLUMNS, ResultsStore, required_metrics
from hef_lab.series import Dataset, write_dataset_csv

from conftest import random_series

CONFIG_TEXT = """
experiment.models = ["ses", "knn"]
experiment.conditions = ["baseline", "hef", "maef"]
experiment.repetitions = 3
experiment.seed = 5
opt.pso.swarm_size = 2
opt.pso.iterations = 2
models.knn.space.n_neighbors = {"grid": [1, 2]}
"""

SEEDS = range(150)
BYTES = (b"\r", b"\n", b"\0", b",", b'"', b"\xff")
FIELDS = (b"", b"nan", b"-inf", b"-1", b"1e999", b"9" * 30, b"x", b"baseline", b"maef", b"tpe", b"grid",
          b"70:30", b"mae", b"opt_evals")


class _ReferenceStore:
    """The state ``ResultsStore`` read from a file when it kept one dict per row."""

    def __init__(self, path: Path) -> None:
        self.path = path
        self._rows: list[dict] = []
        self._completed: set[tuple] = set()
        self._size = 0
        self._read()

    def __len__(self) -> int:
        return len(self._completed)

    @property
    def rows(self) -> tuple[dict, ...]:
        return tuple(self._rows)

    def _read(self) -> None:
        consumed = 0  # bytes of the whole lines handed to the reader so far

        def whole_lines(fh):
            nonlocal consumed
            for line in fh:
                if not line.endswith(b"\n"):
                    return  # a line torn by a crash
                consumed += len(line)
                yield line.decode("utf-8", "surrogateescape")

        def records(fh):  # a line the csv module refuses, such as one with a stray \r, ends the prefix
            try:
                yield from csv.reader(whole_lines(fh))
            except csv.Error:
                return

        with self.path.open("rb") as fh:
            reader = records(fh)
            columns = next(reader, None)
            if columns is None:  # no whole, readable header line: an empty store at most
                fh.seek(0)
                if not _HEADER_LINE.encode().startswith(fh.read()):
                    raise InvalidParameterError(f"{self.path}: not a results store")
                return
            if tuple(columns) != STORE_COLUMNS:
                raise InvalidParameterError(f"{self.path}: unexpected store columns {columns}")
            self._size = consumed
            block: list[dict] = []
            for fields in reader:
                try:
                    series_id, model, condition, optimizer, split, rep, metric, value = fields
                    row = dict(zip(STORE_COLUMNS, fields), rep=int(rep), value=float(value))
                except ValueError:  # a malformed line, such as rows glued onto a torn one
                    break
                key = (series_id, model, condition, split, row["rep"])
                if not block:
                    block_key, names = key, required_metrics(condition)
                elif key != block_key:
                    break  # the task before this row was cut short
                block.append(row)
                if len(block) == len(names):
                    if {r["metric"] for r in block} != set(names):
                        break
                    self._rows.extend(block)
                    self._completed.add(key)
                    block = []
                    self._size = consumed


def read(store_type, path: Path):
    """What a store of ``store_type`` reads from ``path``: its rows (by
    ``repr``, so that NaN values compare), task count, completed keys and
    the offset ``run`` truncates to; or the refusal."""
    try:
        store = store_type(path)
    except InvalidParameterError as exc:
        return str(exc)
    return repr(tuple(store.rows)), len(store.rows), len(store), store._completed, store._size


def mutate(data: bytes, seed: int) -> tuple[str, bytes]:
    """One seeded mutation of ``data`` and a description of it."""
    rng = np.random.default_rng(seed)
    kind = ("byte", "field", "delete", "duplicate")[seed % 4]
    if kind == "byte":
        at, new = int(rng.integers(len(data))), BYTES[int(rng.integers(len(BYTES)))]
        return f"byte {at} -> {new!r}", data[:at] + new + data[at + 1 :]
    lines = data.split(b"\r\n")[:-1]
    at = int(rng.integers(len(lines)))
    if kind == "field":
        fields = lines[at].split(b",")
        column, new = int(rng.integers(len(fields))), FIELDS[int(rng.integers(len(FIELDS)))]
        fields[column] = new
        lines[at] = b",".join(fields)
        description = f"line {at} field {column} -> {new!r}"
    elif kind == "delete":
        del lines[at]
        description = f"line {at} deleted"
    else:
        lines.insert(at, lines[at])
        description = f"line {at} duplicated"
    return description, b"".join(line + b"\r\n" for line in lines)


@pytest.fixture(scope="module")
def valid(tmp_path_factory) -> tuple[tuple[str, ...], bytes]:
    """The ``run`` command of the valid store and the store's bytes."""
    tmp_path = tmp_path_factory.mktemp("valid")
    rng = np.random.default_rng(3)
    write_dataset_csv(Dataset("d", (random_series(rng, "s0", n=36),)), tmp_path / "data.csv")
    (tmp_path / "exp.cfg").write_text(CONFIG_TEXT)
    run = ("run", "--config", str(tmp_path / "exp.cfg"), "--data", str(tmp_path / "data.csv"))
    assert main([*run, "--out", str(tmp_path / "valid")]) == 0
    return run, (tmp_path / "valid" / "results.csv").read_bytes()


def test_every_mutated_store_ends_in_an_exit_code(valid, tmp_path, capsys) -> None:
    run, data_valid = valid
    failures = []
    for seed in SEEDS:
        description, data = mutate(data_valid, seed)
        out = tmp_path / str(seed)
        out.mkdir()
        (out / "results.csv").write_bytes(data)
        if read(ResultsStore, out / "results.csv") != read(_ReferenceStore, out / "results.csv"):
            failures.append(f"seed {seed} ({description}): the store reads otherwise than the reference")
        for command in (["compare"], ["report"], list(run)):  # run last: it rewrites the store
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    code = main([*command, "--out", str(out)])
            except Exception as exc:  # noqa: BLE001  (any escape is the failure reported)
                code = f"{type(exc).__name__}: {exc}"
            if code not in (0, 1, 2):
                failures.append(f"seed {seed} ({description}), {command[0]}: {code}")
    capsys.readouterr()
    assert not failures, "\n".join(failures)


@pytest.mark.parametrize(
    "line, column, new, tasks",
    [
        (2, 7, b"nan", 18),  # non-finite values stay in their whole block
        (3, 7, b"-inf", 18),
        (4, 7, b"1e999", 18),
        (2, 3, b"tpe", 18),  # a label that differs inside a block
        (5, 3, b"grid", 18),
        (1, 6, b"mae", 0),  # a metric repeated in a block ends the prefix before it
        (30, 6, b"opt_evals", 3),
    ],
)
def test_reader_keeps_what_the_reference_kept(valid, tmp_path, line, column, new, tasks) -> None:
    lines = valid[1].split(b"\r\n")
    fields = lines[line].split(b",")
    fields[column] = new
    lines[line] = b",".join(fields)
    path = tmp_path / "results.csv"
    path.write_bytes(b"\r\n".join(lines))
    assert read(ResultsStore, path) == read(_ReferenceStore, path)
    assert len(ResultsStore(path)) == tasks
