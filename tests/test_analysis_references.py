"""The analysis of a results store against frozen copies of its earlier forms.

Each ``_reference_*`` function below is the code as it stood when every
analysis grouped the store's rows on its own, copied verbatim. The analysis
now reads one index of the rows; on stores where no run holds two optimizer
labels it must give the same tables, verdicts, p-values and improvement rows,
so every comparison here is by ``repr``. The Mann-Whitney ranks are checked
the same way against the loop they replaced, and Shapiro-Wilk against the
function that computed its coefficients on every call.
"""

from __future__ import annotations

import csv
import math

import numpy as np
import pytest
from scipy.special import ndtr

from hef_lab import stats
from hef_lab.errors import (
    DegenerateSampleError,
    HefLabError,
    InvalidParameterError,
    SampleTooLargeError,
    SampleTooSmallError,
)
from hef_lab.metrics import HIGHER_BETTER, METRIC_NAMES
from hef_lab.protocol import (
    STORE_COLUMNS,
    VERDICT_A,
    VERDICT_B,
    VERDICT_NONE,
    CaseOutcome,
    CaseTable,
    ResultsStore,
    case_tables_by_group,
    count_cases,
    improvement_rows,
    required_metrics,
    z_summary,
)
from hef_lab.stats import _C_LAST, _C_SECOND, _poly, _unit_scaled, compare_paired_runs


def _reference_group_cells(rows):
    """(series, model, split, optimizer, condition, metric) -> rep -> value."""
    cells = {}
    for row in rows:
        key = (
            row["series_id"],
            row["model"],
            row["split"],
            row["optimizer"],
            row["condition"],
            row["metric"],
        )
        cells.setdefault(key, {})[int(row["rep"])] = float(row["value"])
    return cells


def _reference_count_cases(rows, pair, alpha=0.05, split=None, optimizer=None):
    cond_a, cond_b = pair
    if cond_a == cond_b:
        raise InvalidParameterError("pair must name two distinct conditions")
    grouped = _reference_group_cells(rows)

    by_cell = {}
    cell_ids = set()
    for (series_id, model, row_split, row_opt, condition, metric), reps in grouped.items():
        if condition not in pair:
            continue
        if split is not None and row_split != split:
            continue
        by_cell[(series_id, model, row_split, condition, metric)] = reps
        if optimizer is not None and (condition == "baseline" or row_opt != optimizer):
            continue
        cell_ids.add((series_id, model, row_split))

    counts = {m: {VERDICT_A: 0, VERDICT_B: 0, VERDICT_NONE: 0} for m in METRIC_NAMES}
    comparisons = {m: 0 for m in METRIC_NAMES}
    skipped = []
    outcomes = []
    for series_id, model, row_split in sorted(cell_ids):
        for metric in METRIC_NAMES:
            reps_a = by_cell.get((series_id, model, row_split, cond_a, metric))
            reps_b = by_cell.get((series_id, model, row_split, cond_b, metric))
            if reps_a is None or reps_b is None or set(reps_a) != set(reps_b):
                skipped.append((series_id, model, row_split, metric))
                continue
            order = sorted(reps_a)
            sample_a = [reps_a[r] for r in order]
            sample_b = [reps_b[r] for r in order]
            result = compare_paired_runs(sample_a, sample_b, alpha)
            comparisons[metric] += 1
            if not result.significant:
                verdict = VERDICT_NONE
            else:
                a_better = (result.direction == "a_greater") == (metric in HIGHER_BETTER)
                verdict = VERDICT_A if a_better else VERDICT_B
            counts[metric][verdict] += 1
            outcomes.append(
                CaseOutcome(series_id, model, row_split, metric, verdict, result.p_value)
            )

    return CaseTable(
        pair=pair,
        split=split,
        optimizer=optimizer,
        counts=counts,
        comparisons=comparisons,
        skipped_cells=tuple(skipped),
        outcomes=tuple(outcomes),
    )


def _reference_case_tables_by_group(rows, pair, alpha=0.05):
    groups = set()
    for row in rows:
        if row["condition"] in pair and row["condition"] != "baseline":
            groups.add((row["split"], row["optimizer"]))
    return [
        _reference_count_cases(rows, pair, alpha, split=split, optimizer=optimizer)
        for split, optimizer in sorted(groups)
    ]


def _reference_improvement_rows(rows, pair):
    cond_a, cond_b = pair
    cells = _reference_group_cells(rows)
    means = {}
    for (series_id, model, split, _opt, condition, metric), reps in cells.items():
        if condition not in pair:
            continue
        cell = (series_id, model, split, metric)
        means.setdefault(cell, {})[condition] = sum(reps.values()) / len(reps)
    opt_by_cell = {}
    for (series_id, model, split, opt, condition, metric), _reps in cells.items():
        if condition in pair and condition != "baseline":
            opt_by_cell[(series_id, model, split, metric)] = opt

    out = {m: [] for m in METRIC_NAMES}
    for (series_id, model, split, metric), by_cond in sorted(means.items()):
        if metric not in out:
            continue
        if cond_a not in by_cond or cond_b not in by_cond:
            continue
        reference = by_cond[cond_b]
        if abs(reference) < 1e-12:
            continue
        delta = by_cond[cond_a] - by_cond[cond_b]
        if metric not in HIGHER_BETTER:
            delta = -delta
        out[metric].append(
            {
                "series_id": series_id,
                "model": model,
                "split": split,
                "optimizer": opt_by_cell.get((series_id, model, split, metric), "fixed"),
                "metric": metric,
                "pct_improvement": 100.0 * delta / abs(reference),
            }
        )
    return out


def _reference_average_ranks(values):
    order = np.argsort(values, kind="stable")
    ranks = np.empty(len(values))
    sorted_vals = values[order]
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def _reference_mann_whitney(a, b):
    n1, n2 = len(a), len(b)
    pooled = np.concatenate([a, b])
    ranks = _reference_average_ranks(pooled)
    u1 = float(ranks[:n1].sum()) - n1 * (n1 + 1) / 2.0
    mu = n1 * n2 / 2.0
    total = n1 + n2
    _, counts = np.unique(pooled, return_counts=True)
    tie_term = float(((counts**3) - counts).sum())
    sigma2 = n1 * n2 / 12.0 * ((total + 1) - tie_term / (total * (total - 1)))
    if sigma2 <= 0.0:
        return 0.0, 1.0, u1
    shift = u1 - mu
    corrected = shift - math.copysign(0.5, shift) if shift != 0 else 0.0
    z = corrected / math.sqrt(sigma2)
    p = min(2.0 * float(ndtr(-abs(z))), 1.0)
    return z, p, u1


# --- synthetic stores ----------------------------------------------------------

# the label each model runs under when searched: a swarm, a Parzen search, a grid
LABELS = {"ses": "pso", "rr": "tpe", "knn": "grid"}
SPLITS = ("80:20", "70:30")


def _block(series_id, model, condition, split, rep, values):
    """The rows of one task, in store order."""
    optimizer = "fixed" if condition == "baseline" else LABELS[model]
    return [
        {
            "series_id": series_id,
            "model": model,
            "condition": condition,
            "optimizer": optimizer,
            "split": split,
            "rep": rep,
            "metric": metric,
            "value": values[metric],
        }
        for metric in required_metrics(condition)
    ]


def synthetic_store(seed: int, reps: int = 8) -> list[dict]:
    """Task blocks over three series, both splits, every label and condition.

    Each (series, split, model, condition) draws its own location per metric,
    so that verdicts of every kind occur; some cells copy one side onto the
    other (identical groups) or give a metric one value throughout (ties and
    zero-variance groups). s2/knn/80:20 has no maef side, s1/rr/70:30 lacks
    maef's last rep, s2/ses/80:20 numbers maef's reps from 1, and
    s0/ses/70:30's maef side has a zero mean MAE.
    """
    rng = np.random.default_rng(seed)
    rows = []
    for series_id in ("s0", "s1", "s2"):
        for split in SPLITS:
            for model in LABELS:
                shared = {m: rng.normal(5.0, 1.0, reps) for m in METRIC_NAMES}
                for condition in ("baseline", "hef", "maef"):
                    run = (series_id, model, split, condition)
                    if run == ("s2", "knn", "80:20", "maef"):
                        continue  # a missing side
                    mode = rng.integers(4)
                    values = {}
                    for metric in METRIC_NAMES:
                        if mode == 0:  # the same draws as every other condition of the cell
                            values[metric] = shared[metric]
                        elif mode == 1:  # a constant group, tied throughout
                            values[metric] = np.full(reps, float(rng.integers(3, 6)))
                        else:
                            values[metric] = rng.normal(rng.uniform(3.0, 7.0), rng.uniform(0.1, 2.0), reps)
                    if run == ("s0", "ses", "70:30", "maef"):
                        values["mae"] = np.zeros(reps)  # a zero reference mean
                    rep_ids = {
                        ("s1", "rr", "70:30", "maef"): range(reps - 1),  # one rep short
                        ("s2", "ses", "80:20", "maef"): range(1, reps + 1),  # as many reps, numbered from 1
                    }.get(run, range(reps))
                    for i, rep in enumerate(rep_ids):
                        task = {m: float(v[i]) for m, v in values.items()}
                        task.update(opt_evals=20.0, opt_best_score=float(rng.normal(1.0, 0.1)))
                        rows += _block(series_id, model, condition, split, rep, task)
    return rows


PAIRS = [("hef", "maef"), ("maef", "hef"), ("baseline", "hef"), ("hef", "baseline"), ("baseline", "maef")]


def _z_summaries(table):
    out = []
    for scope in (None, *METRIC_NAMES):
        try:
            out.append(repr(z_summary(table, metric=scope)))
        except HefLabError as exc:
            out.append(type(exc).__name__)
    return out


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("pair", PAIRS, ids="-".join)
class TestAgainstReference:
    def test_tables_by_group(self, seed, pair) -> None:
        rows = synthetic_store(seed)
        tables = case_tables_by_group(rows, pair)
        expected = _reference_case_tables_by_group(rows, pair)
        assert repr(tables) == repr(expected)
        assert [_z_summaries(t) for t in tables] == [_z_summaries(t) for t in expected]

    def test_count_cases_in_every_scope(self, seed, pair) -> None:
        rows = synthetic_store(seed)
        for split in (None, *SPLITS):
            for optimizer in (None, "pso", "tpe", "grid", "fixed"):
                table = count_cases(rows, pair, split=split, optimizer=optimizer)
                expected = _reference_count_cases(rows, pair, split=split, optimizer=optimizer)
                assert repr(table) == repr(expected)
                assert _z_summaries(table) == _z_summaries(expected)

    def test_improvement_rows(self, seed, pair) -> None:
        rows = synthetic_store(seed)
        assert repr(improvement_rows(rows, pair)) == repr(_reference_improvement_rows(rows, pair))


class TestSyntheticStore:
    def test_covers_what_the_reference_must_agree_on(self) -> None:
        rows = synthetic_store(0)
        table = count_cases(rows, ("hef", "maef"))
        verdicts = {o.verdict for o in table.outcomes}
        assert verdicts == {VERDICT_A, VERDICT_B, VERDICT_NONE}
        skipped = {cell[:3] for cell in table.skipped_cells}
        assert skipped == {("s2", "knn", "80:20"), ("s1", "rr", "70:30"), ("s2", "ses", "80:20")}
        assert {t.optimizer for t in case_tables_by_group(rows, ("hef", "maef"))} == {"pso", "tpe", "grid"}
        assert {r["optimizer"] for r in rows} == {"pso", "tpe", "grid", "fixed"}
        mae_rows = improvement_rows(rows, ("hef", "maef"))["mae"]
        mae_cells = {(r["series_id"], r["model"], r["split"]) for r in mae_rows}
        assert ("s0", "ses", "70:30") not in mae_cells  # its reference mean is zero


class TestMixedLabels:
    """A run whose reps were stored under two optimizer labels, as a resume
    with another ``experiment.scs_optimizer`` writes."""

    @staticmethod
    def mixed_store() -> list[dict]:
        rows = []
        for condition, shift in (("hef", 0.0), ("maef", 5.0)):
            for rep in range(21):
                label = "pso" if rep < 10 else "tpe"
                values = {m: 1.0 + shift + 0.1 * rep for m in METRIC_NAMES}
                values.update(opt_evals=20.0, opt_best_score=1.0)
                block = _block("s0", "ses", condition, "80:20", rep, values)
                rows += [{**row, "optimizer": label} for row in block]
        return rows

    @pytest.mark.parametrize(
        "analysis",
        [
            lambda rows: count_cases(rows, ("hef", "maef")),
            lambda rows: case_tables_by_group(rows, ("hef", "maef")),
            lambda rows: improvement_rows(rows, ("hef", "maef")),
        ],
        ids=["count_cases", "case_tables_by_group", "improvement_rows"],
    )
    def test_refused_naming_the_run(self, analysis) -> None:
        with pytest.raises(InvalidParameterError, match="s0/ses/80:20/hef.*pso and tpe"):
            analysis(self.mixed_store())

    def test_one_label_per_run_is_accepted(self) -> None:
        rows = [{**row, "optimizer": "pso"} for row in self.mixed_store()]
        table = count_cases(rows, ("hef", "maef"))
        assert table.comparisons["mae"] == 1


# --- the store's records and plain row mappings ----------------------------------


def _write_store(rows, path) -> None:
    """The rows as a results store file, values written as ``append`` writes them."""
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(STORE_COLUMNS)
        writer.writerows([*(row[c] for c in STORE_COLUMNS[:-1]), repr(float(row["value"]))] for row in rows)


def _edited(rows, at, **fields):
    return [{**row, **fields} if i in at else row for i, row in enumerate(rows)]


def _stores():
    rows = synthetic_store(0)
    maef = [i for i, row in enumerate(rows) if row["condition"] == "maef" and row["model"] == "rr"]
    return {
        "synthetic-0": rows,
        "synthetic-1": synthetic_store(1),
        "nan": _edited(rows, {40}, value=math.nan),
        "-inf": _edited(rows, {41}, value=-math.inf),
        "1e999": _edited(rows, {len(rows) - 3}, value=1e999),
        "run-under-two-labels": TestMixedLabels.mixed_store(),
        "label-inside-a-task": _edited(rows, {43}, optimizer="grid"),
        "cell-under-two-labels": _edited(rows, set(maef), optimizer="pso"),
    }


def _analyses(rows, pair) -> list:
    """Every analysis of ``rows`` for ``pair`` by ``repr``, and each refusal by its message."""
    out = []
    for analysis in (
        lambda: [(repr(table), _z_summaries(table)) for table in case_tables_by_group(rows, pair)],
        lambda: [
            (repr(table), _z_summaries(table))
            for split in (None, *SPLITS)
            for optimizer in (None, "pso", "tpe", "grid", "fixed")
            for table in [count_cases(rows, pair, split=split, optimizer=optimizer)]
        ],
        lambda: repr(improvement_rows(rows, pair)),
    ):
        try:
            out.append(analysis())
        except InvalidParameterError as exc:
            out.append(f"refused: {exc}")
    return out


@pytest.mark.parametrize("store", list(_stores()))
def test_store_records_and_row_mappings_give_the_same_analysis(tmp_path, store) -> None:
    # the store's rows are read from its task records, a list of dicts is grouped into records first
    written = _stores()[store]
    _write_store(written, tmp_path / "results.csv")
    rows = ResultsStore(tmp_path / "results.csv").rows
    assert len(rows) == len(written)
    refusals = 0
    for pair in PAIRS:
        analyses = _analyses(rows, pair)
        assert analyses == _analyses([dict(r) for r in rows], pair)
        refusals += sum(isinstance(a, str) and a.startswith("refused: ") for a in analyses)
    assert (refusals > 0) == (store not in ("synthetic-0", "synthetic-1"))


# --- Mann-Whitney ranks -----------------------------------------------------------


def _draws(rng: np.random.Generator, n: int) -> np.ndarray:
    """Values with many ties, infinities and signed zeros."""
    kind = rng.integers(3)
    if kind == 0:
        values = rng.normal(0.0, 1.0, n)
    elif kind == 1:
        values = rng.integers(-3, 4, n).astype(float)
    else:
        values = rng.choice([-np.inf, -1.5, -0.0, 0.0, 2.0, np.inf], n)
    return values


class TestMannWhitneyRanks:
    def test_equals_the_rank_loop_bitwise(self) -> None:
        rng = np.random.default_rng(2024)
        for _ in range(2000):
            n1, n2 = int(rng.integers(1, 25)), int(rng.integers(1, 25))
            a, b = _draws(rng, n1), _draws(rng, n2)
            got = stats._mann_whitney(a, b)
            expected = _reference_mann_whitney(a, b)
            assert repr(got) == repr(expected), (a, b)

    @pytest.mark.parametrize(
        "a, b",
        [
            ([0.0, -0.0, 1.0], [-0.0, 0.0, 2.0]),
            ([np.inf, -np.inf, 1.0, 1.0], [1.0, np.inf, np.inf, -np.inf]),
            ([3.0] * 5, [3.0] * 5),
            ([1.0, 2.0, 3.0], [4.0, 5.0, 6.0]),
        ],
    )
    def test_signed_zeros_infinities_and_full_ties(self, a, b) -> None:
        a, b = np.array(a), np.array(b)
        assert repr(stats._mann_whitney(a, b)) == repr(_reference_mann_whitney(a, b))


# --- Shapiro-Wilk coefficients ------------------------------------------------------


def _reference_shapiro_wilk(sample, alpha=0.05):
    """W statistic and upper-tail p for normality, 3 <= n <= 5000."""
    from scipy.special import ndtr, ndtri

    x = np.sort(np.asarray(sample, dtype=float))
    n = len(x)
    if n < 3:
        raise SampleTooSmallError(f"shapiro_wilk needs n >= 3, got {n}")
    if n > 5000:
        raise SampleTooLargeError(f"shapiro_wilk needs n <= 5000, got {n}")
    if x[-1] == x[0]:
        raise DegenerateSampleError("all sample values are identical")
    (x,) = _unit_scaled(max(-float(x[0]), float(x[-1])), x)  # W does not depend on scale

    m = ndtri((np.arange(1, n + 1) - 0.375) / (n + 0.25))
    msq = float(m @ m)
    a = np.empty(n)
    if n == 3:
        a[0], a[1], a[2] = -math.sqrt(0.5), 0.0, math.sqrt(0.5)
    else:
        u = 1.0 / math.sqrt(n)
        c = m / math.sqrt(msq)
        a_last = float(c[-1]) + _poly(u, _C_LAST)
        if n > 5:
            a_second = float(c[-2]) + _poly(u, _C_SECOND)
            phi = (msq - 2.0 * m[-1] ** 2 - 2.0 * m[-2] ** 2) / (
                1.0 - 2.0 * a_last**2 - 2.0 * a_second**2
            )
            a[2:-2] = m[2:-2] / math.sqrt(phi)
            a[-1], a[-2], a[0], a[1] = a_last, a_second, -a_last, -a_second
        else:
            phi = (msq - 2.0 * m[-1] ** 2) / (1.0 - 2.0 * a_last**2)
            a[1:-1] = m[1:-1] / math.sqrt(phi)
            a[-1], a[0] = a_last, -a_last

    w_num = float(a @ x) ** 2
    w_den = float(((x - x.mean()) ** 2).sum())
    w = min(w_num / w_den, 1.0 - 1e-15)

    if n == 3:
        p = 6.0 / math.pi * (math.asin(math.sqrt(w)) - math.asin(math.sqrt(0.75)))
        p = min(max(p, 0.0), 1.0)
    elif n <= 11:
        gamma = -2.273 + 0.459 * n
        y = math.log1p(-w)
        if y >= gamma:  # W below the approximation's domain: reject, as AS R94 does
            p = 1e-99
        else:
            stat = -math.log(gamma - y)
            mu = 0.5440 - 0.39978 * n + 0.025054 * n**2 - 0.0006714 * n**3
            sigma = math.exp(1.3822 - 0.77857 * n + 0.062767 * n**2 - 0.0020322 * n**3)
            p = float(ndtr(-(stat - mu) / sigma))
    else:
        stat = math.log1p(-w)
        log_n = math.log(n)
        mu = -1.5861 - 0.31082 * log_n - 0.083751 * log_n**2 + 0.0038915 * log_n**3
        sigma = math.exp(-0.4803 - 0.082676 * log_n + 0.0030302 * log_n**2)
        p = float(ndtr(-(stat - mu) / sigma))

    return stats.TestResult(  # named through its module, so that pytest does not collect it here
        statistic=w, p_value=p, test_name="shapiro_wilk", alpha=alpha, significant=p < alpha
    )


def _shapiro_samples(rng: np.random.Generator, n: int) -> list[np.ndarray]:
    """Normal, skewed, tied and far-scaled samples of n values."""
    return [
        rng.normal(5.0, 1.0, n),
        rng.exponential(1.0, n),
        rng.integers(0, 4, n).astype(float),
        rng.normal(0.0, 1.0, n) * 1e250,
    ]


class TestShapiroWilk:
    def test_equals_the_frozen_function_bitwise(self) -> None:
        rng = np.random.default_rng(77)
        for n in range(3, 61):
            for _ in range(5):
                for sample in _shapiro_samples(rng, n):
                    try:
                        expected = repr(_reference_shapiro_wilk(sample))
                    except HefLabError as exc:
                        expected = f"{type(exc).__name__}: {exc}"
                    try:
                        got = repr(stats.shapiro_wilk(sample))
                    except HefLabError as exc:
                        got = f"{type(exc).__name__}: {exc}"
                    assert got == expected, (n, sample)

    def test_coefficients_are_computed_once_per_n_and_read_only(self) -> None:
        first = stats._shapiro_coefficients(21)
        assert stats._shapiro_coefficients(21) is first
        assert not first.flags.writeable
        with pytest.raises(ValueError):
            first[0] = 0.0

    def test_three_values_need_no_normal_quantiles(self, monkeypatch) -> None:
        import scipy.special

        sample = [1.0, 2.5, 2.0]
        expected = repr(_reference_shapiro_wilk(sample))

        def refused(*args):
            raise AssertionError("ndtri called at n = 3")

        monkeypatch.setattr(scipy.special, "ndtri", refused)
        stats._shapiro_coefficients.cache_clear()
        assert repr(stats.shapiro_wilk(sample)) == expected
