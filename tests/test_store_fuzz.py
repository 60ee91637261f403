"""Seeded mutations of a small valid results store: ``compare``, ``report`` and
``run`` each end in an exit code on every one, with no traceback and no warning.

Each seed applies one mutation to the store of a finished run: a byte replaced
by ``\\r``, ``\\n``, ``\\0``, ``,``, ``"`` or a byte that is not UTF-8; a field
replaced; or a line deleted or duplicated. Every call goes through ``cli.main``
in-process with every warning raised as an error.
"""

from __future__ import annotations

import warnings

import numpy as np

from hef_lab.cli import main
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


def test_every_mutated_store_ends_in_an_exit_code(tmp_path, capsys) -> None:
    rng = np.random.default_rng(3)
    write_dataset_csv(Dataset("d", (random_series(rng, "s0", n=36),)), tmp_path / "data.csv")
    (tmp_path / "exp.cfg").write_text(CONFIG_TEXT)
    run = ("run", "--config", str(tmp_path / "exp.cfg"), "--data", str(tmp_path / "data.csv"))
    assert main([*run, "--out", str(tmp_path / "valid")]) == 0
    valid = (tmp_path / "valid" / "results.csv").read_bytes()

    failures = []
    for seed in SEEDS:
        description, data = mutate(valid, seed)
        out = tmp_path / str(seed)
        out.mkdir()
        (out / "results.csv").write_bytes(data)
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
