"""Series model, temporal splits, sample sizing, stratified sampling, CSV I/O."""

from __future__ import annotations

import math

import numpy as np
import pytest

from hef_lab.errors import (
    DatasetFormatError,
    InvalidParameterError,
    SeriesTooShortError,
    TargetTooLargeError,
)
from hef_lab.series import (
    Dataset,
    Frequency,
    Issue,
    SplitRatio,
    TimeSeries,
    load_dataset_csv,
    sample_size,
    scan_dataset_csv,
    stratified_sample,
    temporal_split,
    write_dataset_csv,
)

from conftest import make_series


class TestTypes:
    def test_periods_per_year(self) -> None:
        assert Frequency.DAILY.periods_per_year == 365
        assert Frequency.WEEKLY.periods_per_year == 52
        assert Frequency.MONTHLY.periods_per_year == 12

    def test_frequency_parse(self) -> None:
        assert Frequency.parse(" Weekly ") is Frequency.WEEKLY
        with pytest.raises(InvalidParameterError):
            Frequency.parse("hourly")

    def test_series_rejects_empty_and_nonfinite(self) -> None:
        with pytest.raises(InvalidParameterError):
            TimeSeries("a", Frequency.DAILY, ())
        with pytest.raises(InvalidParameterError):
            TimeSeries("a", Frequency.DAILY, (1.0, math.nan))
        with pytest.raises(InvalidParameterError):
            TimeSeries("", Frequency.DAILY, (1.0,))
        with pytest.raises(InvalidParameterError):
            TimeSeries("a", Frequency.DAILY, [[1.0, 2.0], [3.0, 4.0]])

    def test_series_preserves_order(self) -> None:
        s = make_series("a", [3, 1, 2])
        assert np.array_equal(s.values, [3.0, 1.0, 2.0])
        assert len(s) == 3

    def test_values_and_split_views_are_read_only(self) -> None:
        s = make_series("a", range(10))
        split = temporal_split(s, SplitRatio.R80_20)
        for arr in (s.values, split.train, split.test):
            with pytest.raises(ValueError):
                arr[0] = 99.0
        assert np.shares_memory(split.train, s.values)
        assert np.shares_memory(split.test, s.values)

    def test_series_copies_the_callers_array(self) -> None:
        raw = np.array([1.0, 2.0, 3.0])
        s = TimeSeries("a", Frequency.DAILY, raw)
        raw[0] = 50.0
        assert np.array_equal(s.values, [1.0, 2.0, 3.0])
        assert raw.flags.writeable
        assert s.values.dtype == np.float64

    def test_dataset_unique_ids_and_default_strata(self) -> None:
        a = make_series("a", [1, 2], Frequency.DAILY)
        b = make_series("b", [1, 2], Frequency.MONTHLY)
        ds = Dataset("d", (a, b))
        assert ds.strata == {"a": "daily", "b": "monthly"}
        assert ds.get("b") is b
        with pytest.raises(KeyError):
            ds.get("ghost")
        with pytest.raises(InvalidParameterError):
            Dataset("d", (a, make_series("a", [5])))
        with pytest.raises(InvalidParameterError):
            Dataset("d", (a,), strata={"a": "x", "ghost": "y"})


class TestTemporalSplit:
    def test_exact_division(self) -> None:
        s = make_series("a", range(100))
        split = temporal_split(s, SplitRatio.R80_20)
        assert len(split.train) == 80 and len(split.test) == 20
        assert np.array_equal(np.concatenate([split.train, split.test]), s.values)

    def test_rounding_small_series(self) -> None:
        # round(0.09 * 10) = 1 under half-up rounding
        split = temporal_split(make_series("a", range(10)), SplitRatio.R91_9)
        assert len(split.train) == 9 and len(split.test) == 1

    def test_too_short(self) -> None:
        for ratio in SplitRatio:
            with pytest.raises(SeriesTooShortError):
                temporal_split(make_series("a", [1, 2, 3]), ratio)

    def test_reconstruction_property(self) -> None:
        rng = np.random.default_rng(42)
        for _ in range(200):
            n = int(rng.integers(4, 300))
            s = make_series("a", rng.normal(size=n))
            for ratio in SplitRatio:
                split = temporal_split(s, ratio)
                assert np.array_equal(np.concatenate([split.train, split.test]), s.values)
                assert len(split.test) >= 1
                assert len(split.train) >= 3
                expected_h = max(1, math.floor(ratio.test_fraction * n + 0.5))
                assert split.horizon == expected_h


class TestSampleSize:
    def test_published_targets(self) -> None:
        assert sample_size(294, 0.99, 0.05, 0.5) == 204
        assert sample_size(1428, 0.99, 0.05, 0.5) == 454

    def test_formula_disagrees_with_published_m5_row(self) -> None:
        # the stated formula gives 456 for N=1454, not the published 650
        assert sample_size(1454, 0.99, 0.05, 0.5) == 456

    def test_capped_at_population(self) -> None:
        assert sample_size(1, 0.99, 0.05, 0.5) == 1
        assert sample_size(2, 0.99, 0.05, 0.5) == 2
        # N=46 stays under the cap: the corrected estimate is 44
        assert sample_size(46, 0.99, 0.05, 0.5) == 44

    def test_large_population_limit(self) -> None:
        assert sample_size(10**9, 0.99, 0.05, 0.5) == 664

    def test_monotone_and_bounded(self) -> None:
        rng = np.random.default_rng(7)
        previous = 0
        for n in sorted(int(v) for v in rng.integers(1, 10**6, size=50)):
            size = sample_size(n)
            assert size <= n
            assert size >= previous
            previous = size

    def test_invalid_parameters(self) -> None:
        with pytest.raises(InvalidParameterError):
            sample_size(0)
        with pytest.raises(InvalidParameterError):
            sample_size(10, confidence=1.0)
        with pytest.raises(InvalidParameterError):
            sample_size(10, margin=0.0)
        with pytest.raises(InvalidParameterError):
            sample_size(10, proportion=1.5)


def _dataset_with_strata(sizes: dict[str, int]) -> Dataset:
    series = []
    strata = {}
    for label, count in sizes.items():
        for i in range(count):
            sid = f"{label}{i:03d}"
            series.append(make_series(sid, [1.0, 2.0, 3.0, 4.0]))
            strata[sid] = label
    return Dataset("strat", tuple(series), strata)


class TestStratifiedSample:
    def test_proportional_allocation(self) -> None:
        ds = _dataset_with_strata({"x": 60, "y": 40})
        sampled = stratified_sample(ds, 10, seed=1)
        labels = [sampled.strata[s.id] for s in sampled.series]
        assert labels.count("x") == 6 and labels.count("y") == 4

    def test_deterministic(self) -> None:
        ds = _dataset_with_strata({"x": 30, "y": 20, "z": 11})
        a = stratified_sample(ds, 17, seed=99)
        b = stratified_sample(ds, 17, seed=99)
        assert a.ids() == b.ids()
        c = stratified_sample(ds, 17, seed=100)
        assert a.ids() != c.ids()  # overwhelmingly likely for these sizes

    def test_full_population(self) -> None:
        ds = _dataset_with_strata({"x": 5, "y": 5})
        assert stratified_sample(ds, 10, seed=0) is ds

    def test_target_too_large(self) -> None:
        ds = _dataset_with_strata({"x": 5})
        with pytest.raises(TargetTooLargeError):
            stratified_sample(ds, 6, seed=0)
        with pytest.raises(InvalidParameterError):
            stratified_sample(ds, 0, seed=0)

    @pytest.mark.parametrize("seed", [-1, 1.5, "3", True, None])
    def test_bad_seed(self, seed) -> None:
        ds = _dataset_with_strata({"x": 6, "y": 4})
        with pytest.raises(InvalidParameterError, match=f"seed must be a non-negative integer, got {seed!r}"):
            stratified_sample(ds, 5, seed=seed)

    def test_proportions_within_one(self) -> None:
        rng = np.random.default_rng(11)
        for _ in range(25):
            sizes = {f"g{j}": int(rng.integers(5, 60)) for j in range(int(rng.integers(2, 5)))}
            ds = _dataset_with_strata(sizes)
            total = len(ds)
            target = int(rng.integers(1, total))
            sampled = stratified_sample(ds, target, seed=int(rng.integers(1 << 30)))
            assert len(sampled) == target
            for label, size in sizes.items():
                got = sum(1 for s in sampled.series if sampled.strata[s.id] == label)
                assert abs(got - target * size / total) <= 1.0

    def test_sample_preserves_dataset_order(self) -> None:
        ds = _dataset_with_strata({"x": 20, "y": 20})
        sampled = stratified_sample(ds, 13, seed=5)
        original_order = {sid: i for i, sid in enumerate(ds.ids())}
        positions = [original_order[sid] for sid in sampled.ids()]
        assert positions == sorted(positions)


class TestCsv:
    def test_round_trip(self, tmp_path, small_dataset) -> None:
        path = tmp_path / "data.csv"
        write_dataset_csv(small_dataset, path)
        loaded = load_dataset_csv(path)
        assert loaded.ids() == small_dataset.ids()
        for mine, theirs in zip(loaded.series, small_dataset.series):
            assert np.array_equal(mine.values, theirs.values)
            assert mine.frequency is theirs.frequency

    def _write(self, tmp_path, text: str):
        path = tmp_path / "data.csv"
        path.write_text(text)
        return path

    def test_gap_in_t(self, tmp_path) -> None:
        path = self._write(tmp_path, "series_id,frequency,t,value\na,monthly,1,5\na,monthly,3,6\n")
        _, issues = scan_dataset_csv(path)
        assert len(issues) == 1
        assert issues[0].series_id == "a"
        assert "gap" in issues[0].message
        with pytest.raises(DatasetFormatError):
            load_dataset_csv(path)

    def test_non_contiguous_series(self, tmp_path) -> None:
        path = self._write(
            tmp_path,
            "series_id,frequency,t,value\n"
            "a,monthly,1,5\nb,monthly,1,7\na,monthly,2,6\n",
        )
        _, issues = scan_dataset_csv(path)
        assert any("contiguous" in issue.message for issue in issues)

    def test_non_numeric_value_cites_line(self, tmp_path) -> None:
        path = self._write(tmp_path, "series_id,frequency,t,value\na,monthly,1,oops\n")
        _, issues = scan_dataset_csv(path)
        assert issues[0].line == 2
        assert "not numeric" in issues[0].message

    def test_non_finite_value(self, tmp_path) -> None:
        path = self._write(tmp_path, "series_id,frequency,t,value\na,monthly,1,inf\n")
        _, issues = scan_dataset_csv(path)
        assert any("not finite" in issue.message for issue in issues)

    def test_bad_header(self, tmp_path) -> None:
        path = self._write(tmp_path, "id,freq,t,v\na,monthly,1,5\n")
        _, issues = scan_dataset_csv(path)
        assert issues and issues[0].line == 1

    def test_unknown_frequency(self, tmp_path) -> None:
        path = self._write(tmp_path, "series_id,frequency,t,value\na,hourly,1,5\n")
        _, issues = scan_dataset_csv(path)
        assert any("frequency" in issue.message for issue in issues)

    @pytest.mark.parametrize(
        "data, line, message",
        [
            (b"series_id,frequency,t,value\nsk\xff1,monthly,1,3.0\n", 2, "not utf-8 text (invalid start byte)"),
            (
                b"series_id,frequency,t,value\na,monthly,1,3.0\nb,monthly,1," + b"9" * 200_000 + b"\n",
                3,
                "field larger than field limit (131072)",
            ),
        ],
    )
    def test_unreadable_input_ends_the_scan(self, tmp_path, data, line, message) -> None:
        path = tmp_path / "data.csv"
        path.write_bytes(data + b"c,monthly,1,2.0\n")
        series, issues = scan_dataset_csv(path)
        assert series == []
        assert issues == [Issue(line, None, f"{message}; scan stopped here")]
        with pytest.raises(DatasetFormatError, match=f"line {line}: "):
            load_dataset_csv(path)

    def test_undecodable_byte_past_the_first_chunk(self, tmp_path) -> None:
        rows = [f"{sid},daily,{t},{t}.25\n" for sid in ("a", "b") for t in range(1, 2001)]
        rows[3499] = "b,daily,1500,\xff\n"
        path = tmp_path / "data.csv"
        path.write_bytes(("series_id,frequency,t,value\n" + "".join(rows)).encode("latin-1"))
        series, issues = scan_dataset_csv(path)
        assert [s.id for s in series] == ["a"]  # b's rows were not all read
        assert issues == [Issue(3501, None, "not utf-8 text (invalid start byte); scan stopped here")]

    def test_every_finding_in_order(self, tmp_path) -> None:
        path = self._write(
            tmp_path,
            "series_id,frequency,t,value\n"  # 1
            "a,monthly,1,10\n"  # 2
            "a,monthly,2\n"  # 3
            ",monthly,2,11\n"  # 4
            "\n"  # 5
            "a,monthly,2,11\n"  # 6
            "b,weekly,1,5\n"  # 7
            "a,monthly,3,12\n"  # 8
            "b,weekly,x,6\n"  # 9
            "b,weekly,2,oops\n"  # 10
            "b,weekly,2,inf\n"  # 11
            "b,hourly,2,6\n"  # 12
            "b,daily,2,6\n"  # 13
            "b, Weekly ,2,6\n"  # 14
            "b,weekly,4,7\n"  # 15
            "b,weekly,5,oops\n"  # 16
            "c,monthly,1,1\n"  # 17
            "c,monthly,1,2\n"  # 18
            "d,monthly,1,nan\n"  # 19
            "e,daily,1,3\n"  # 20
            "e,DAILY,2,4.5\n",  # 21
        )
        series, issues = scan_dataset_csv(path)
        assert [(i.line, i.series_id, i.message) for i in issues] == [
            (3, None, "expected 4 columns, got 3"),
            (4, None, "empty series_id"),
            (8, "a", "rows for this series are not contiguous"),
            (9, "b", "t is not an integer: 'x'"),
            (10, "b", "value is not numeric: 'oops'"),
            (11, "b", "value is not finite: 'inf'"),
            (12, "b", "unknown frequency: 'hourly'"),
            (13, "b", "frequency changed within series: 'weekly' -> 'daily'"),
            (16, "b", "value is not numeric: 'oops'"),
            (19, "d", "value is not finite: 'nan'"),
            (15, "b", "gap in t: expected 3, got 4"),
            (18, "c", "out-of-order or duplicate t in t: expected 2, got 1"),
        ]
        assert [(s.id, s.frequency, s.values.tolist()) for s in series] == [
            ("a", Frequency.MONTHLY, [10.0, 11.0]),
            ("e", Frequency.DAILY, [3.0, 4.5]),
        ]

    def test_frequency_parsed_once_per_series(self, tmp_path, monkeypatch) -> None:
        dataset = Dataset(
            "mixed",
            (
                make_series("m", range(1, 9)),
                make_series("w", range(1, 6), Frequency.WEEKLY),
                make_series("d", range(1, 12), Frequency.DAILY),
            ),
        )
        path = tmp_path / "data.csv"
        write_dataset_csv(dataset, path)
        parse = Frequency.parse
        labels: list[str] = []

        def spy(label: str) -> Frequency:
            labels.append(label)
            return parse(label)

        monkeypatch.setattr(Frequency, "parse", spy)
        series, issues = scan_dataset_csv(path)
        assert not issues and len(series) == 3
        assert labels == ["monthly", "weekly", "daily"]
