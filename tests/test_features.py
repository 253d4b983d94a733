import numpy as np
import pytest

from addcast.config import (
    HolidaySpec,
    ModelConfig,
    RegressorSpec,
    SeasonalitySpec,
    TrendSpec,
    load_holiday_calendar,
)
from addcast.errors import DuplicateTimestamp, MissingRegressorValue, ParseError
from addcast.estimator import row_dot
from addcast.features import (
    TimeScaling,
    _day_scope,
    build_design,
    changepoint_basis,
    design_for_grid,
    fourier_features,
    gamma_from_delta,
    holiday_features,
    linear_trend,
    logistic_trend,
    place_changepoints,
    shared_day_columns,
)
from addcast.timeseries import TimeSeries, filter_weekdays, parse_iso_date

from conftest import daily_days, make_series


class TestPlaceChangepoints:
    def test_zero_count(self):
        out = place_changepoints(daily_days("2020-01-01", 10), 0)
        assert len(out) == 0

    def test_uniform_index_quantiles(self):
        # brute-force oracle: eligible window is the first floor(0.8*101)=80
        # observations; the j-th of 4 changepoints sits at index j*80//5.
        days = daily_days("2020-01-01", 101)
        eligible = int(np.floor(0.8 * 101))
        expected_idx = [j * eligible // 5 for j in range(1, 5)]
        assert expected_idx == [16, 32, 48, 64]
        out = place_changepoints(days, 4, 0.8)
        assert list(out) == [int(days[i]) for i in expected_idx]

    def test_short_series_collapses(self):
        out = place_changepoints(daily_days("2020-01-01", 3), 25, 0.8)
        assert len(out) <= 1

    def test_strictly_after_first_observation(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 50))
            count = int(rng.integers(0, 30))
            days = daily_days("2020-01-01", n)
            out = place_changepoints(days, count, 0.8)
            assert np.all(out > days[0])
            assert len(np.unique(out)) == len(out)

    @pytest.mark.parametrize("range_fraction", [0.5, 0.8, 1.0])
    def test_matches_unique_definition(self, range_fraction):
        # dropping adjacent repeats of the non-decreasing indices gives what
        # np.unique of them did
        for n in range(2, 150, 7):
            days = daily_days("2020-01-01", n)
            eligible = int(np.floor(range_fraction * n))
            for count in range(1, 2 * n, 3):
                idx = (np.arange(1, count + 1, dtype=np.int64) * eligible) // (count + 1)
                expected = days[np.unique(idx[idx >= 1])]
                out = place_changepoints(days, count, range_fraction)
                assert out.dtype == expected.dtype
                assert np.array_equal(out, expected)


class TestChangepointBasis:
    def test_before_all(self):
        assert list(changepoint_basis(0.1, [0.3, 0.6])) == [0.0, 0.0]

    def test_closed_boundary(self):
        assert list(changepoint_basis(0.3, [0.3, 0.6])) == [1.0, 0.0]

    def test_after_all(self):
        assert list(changepoint_basis(0.9, [0.3, 0.6])) == [1.0, 1.0]


class TestLinearTrend:
    def test_identity_line(self):
        t = np.linspace(0, 1, 11)
        assert np.array_equal(linear_trend(t, 1.0, 0.0, [], []), t)

    def test_hand_evaluated_changepoint(self):
        # k=1, m=0, changepoint at 5 with delta 2: gamma=-10, so
        # g(5)=5 from both pieces and g(6)=3*6-10=8.
        assert linear_trend(5.0, 1.0, 0.0, [2.0], [5.0]) == 5.0
        assert linear_trend(6.0, 1.0, 0.0, [2.0], [5.0]) == 8.0

    def test_zero_delta_collapse(self, rng):
        t = rng.uniform(0, 1, 50)
        cps = np.sort(rng.uniform(0, 1, 5))
        out = linear_trend(t, 1.3, -0.2, np.zeros(5), cps)
        assert np.array_equal(out, 1.3 * t + -0.2)

    def test_continuity_at_changepoints(self, rng):
        # The finite-difference floor is 2*eps*slope even for a perfectly
        # continuous function, so draws keep |2k + sum|delta|| below 1 to make
        # the 1e-9 budget measure the jump, not the slope.
        eps = 1e-9
        for _ in range(200):
            n_cp = int(rng.integers(1, 6))
            cps = np.sort(rng.uniform(0.05, 0.95, n_cp))
            delta = rng.uniform(-0.05, 0.05, n_cp)
            k = float(rng.uniform(-0.2, 0.2))
            m = float(rng.uniform(-5.0, 5.0))
            for tj in cps:
                left = linear_trend(tj - eps, k, m, delta, cps)
                right = linear_trend(tj + eps, k, m, delta, cps)
                assert abs(left - right) <= 1e-9


class TestGammaFromDelta:
    def test_single(self):
        assert list(gamma_from_delta([5.0], [2.0])) == [-10.0]

    def test_zeros(self):
        assert list(gamma_from_delta([0.3, 0.7], [0.0, 0.0])) == [0.0, 0.0]

    def test_elementwise(self):
        out = gamma_from_delta([0.2, 0.6], [1.0, -1.0])
        assert np.allclose(out, [-0.2, 0.6], atol=1e-15)


class TestLogisticTrend:
    def test_zero_rate_gives_half_capacity(self):
        t = np.linspace(0, 1, 5)
        out = logistic_trend(t, 0.0, 0.0, [], [], [], 8.0)
        assert np.allclose(out, 4.0, atol=1e-12)

    def test_saturation(self):
        out = logistic_trend(50.0, 1.0, 0.0, [], [], [], 10.0)
        assert abs(out - 10.0) < 1e-9

    def test_direct_evaluation(self):
        assert logistic_trend(0.0, 1.0, 0.0, [], [], [], 10.0) == 5.0

    def test_zero_delta_collapse(self, rng):
        t = rng.uniform(0, 1, 30)
        cps = np.sort(rng.uniform(0, 1, 4))
        zero = np.zeros(4)
        out = logistic_trend(t, 2.0, 0.4, zero, gamma_from_delta(cps, zero), cps, 3.0)
        expected = 3.0 / (1.0 + np.exp(-2.0 * (t - 0.4)))
        assert np.allclose(out, expected, rtol=1e-12)


class TestFourierFeatures:
    def test_at_zero(self):
        row = fourier_features(0.0, 7.0, 3)
        assert np.array_equal(row[0::2], np.ones(3))
        assert np.array_equal(row[1::2], np.zeros(3))

    def test_quarter_period(self):
        row = fourier_features(7.0 / 4.0, 7.0, 1)
        assert abs(row[0]) < 1e-12
        assert abs(row[1] - 1.0) < 1e-12

    def test_full_period_identity(self):
        assert np.allclose(
            fourier_features(7.0, 7.0, 5), fourier_features(0.0, 7.0, 5), atol=1e-9
        )

    def test_periodicity_over_large_times(self, rng):
        for _ in range(50):
            t = float(rng.uniform(-1e6, 1e6))
            period = float(rng.choice([7.0, 30.5, 365.25]))
            a = fourier_features(t, period, 10)
            b = fourier_features(t + period, period, 10)
            assert np.max(np.abs(a - b)) <= 1e-9

    def test_layout_matches_manual(self):
        t = 13.0
        row = fourier_features(t, 7.0, 2)
        expected = [
            np.cos(2 * np.pi * t / 7),
            np.sin(2 * np.pi * t / 7),
            np.cos(4 * np.pi * t / 7),
            np.sin(4 * np.pi * t / 7),
        ]
        assert np.allclose(row, expected, atol=1e-15)


class TestHolidayFeatures:
    def test_exact_date(self):
        d = parse_iso_date("2020-07-04")
        spec = HolidaySpec(name="july4", dates=frozenset([d]))
        out = holiday_features(np.array([d]), [spec])
        assert out[0, 0] == 1.0

    def test_upper_window(self):
        d = parse_iso_date("2020-07-04")
        spec = HolidaySpec(name="july4", dates=frozenset([d]), upper_window=1)
        out = holiday_features(np.array([d + 1]), [spec])
        assert out[0, 0] == 1.0

    def test_outside_window(self):
        d = parse_iso_date("2020-07-04")
        spec = HolidaySpec(name="july4", dates=frozenset([d]), lower_window=1, upper_window=1)
        out = holiday_features(np.array([d + 2, d - 2]), [spec])
        assert np.array_equal(out, np.zeros((2, 1)))

    def test_binary_and_counts_match_scan(self, rng):
        days = daily_days("2020-01-01", 120)
        specs = [
            HolidaySpec(
                name=f"h{i}",
                dates=frozenset(int(d) for d in rng.choice(days, 3, replace=False)),
                lower_window=int(rng.integers(0, 3)),
                upper_window=int(rng.integers(0, 3)),
            )
            for i in range(3)
        ]
        out = holiday_features(days, specs)
        assert set(np.unique(out)) <= {0.0, 1.0}
        for j, spec in enumerate(specs):
            # brute-force date scan
            hits = sum(1 for d in days if int(d) in spec.expanded_dates())
            assert out[:, j].sum() == hits

    def test_overlapping_holidays_keep_separate_columns(self):
        d = parse_iso_date("2020-11-27")
        a = HolidaySpec(name="a", dates=frozenset([d]), upper_window=3)
        b = HolidaySpec(name="b", dates=frozenset([d + 2]))
        out = holiday_features(np.array([d + 2]), [a, b])
        assert list(out[0]) == [1.0, 1.0]


    @staticmethod
    def isin_definition(timestamps, specs):
        out = np.zeros((len(timestamps), len(specs)))
        for j, spec in enumerate(specs):
            expanded = np.fromiter(spec.expanded_dates(), dtype=np.int64)
            out[:, j] = np.isin(timestamps, expanded)
        return out

    @pytest.mark.parametrize("grid", ["sorted", "shuffled", "no_holidays", "empty"])
    def test_matches_isin_definition(self, rng, grid):
        start = parse_iso_date("2021-01-01")
        days = daily_days("2021-01-01", 400)
        specs = [
            # overlapping windows, within and across specs
            HolidaySpec(name="a", dates=frozenset([start + 10, start + 12]),
                        lower_window=2, upper_window=3),
            HolidaySpec(name="b", dates=frozenset([start + 13]), upper_window=1),
            # dates before, across and after the grid's ends
            HolidaySpec(name="c", dates=frozenset([start - 50, start - 1, start + 399]),
                        lower_window=1, upper_window=2),
            HolidaySpec(name="d", dates=frozenset([start + 1000])),
            *(
                HolidaySpec(name=f"r{i}",
                            dates=frozenset(int(d) for d in rng.choice(days, 4)),
                            lower_window=int(rng.integers(0, 3)),
                            upper_window=int(rng.integers(0, 3)))
                for i in range(4)
            ),
        ]
        if grid == "shuffled":
            days = rng.permutation(days)
        elif grid == "no_holidays":
            days = daily_days("2026-01-01", 60)
        elif grid == "empty":
            days = days[:0]
        out = holiday_features(days, specs)
        expected = self.isin_definition(days, specs)
        assert out.shape == expected.shape and out.dtype == np.float64
        assert np.array_equal(out, expected)
        if grid == "no_holidays":
            assert not out.any()

    def test_no_specs(self):
        assert holiday_features(daily_days("2021-01-01", 5), []).shape == (5, 0)

    def test_repeated_timestamp_rejected(self):
        d = parse_iso_date("2021-01-01")
        spec = HolidaySpec(name="a", dates=frozenset([d]))
        with pytest.raises(DuplicateTimestamp):
            holiday_features(np.array([d, d + 1, d]), [spec])

class TestBuildDesign:
    def test_single_seasonal_block_width(self):
        ts = make_series("2020-01-01", np.arange(50.0))
        config = ModelConfig(
            trend=TrendSpec(n_changepoints=0),
            seasonalities=(SeasonalitySpec(name="weekly", period=7.0, fourier_order=3),),
        )
        design = build_design(ts, config)
        block = design.layout.block("seasonal", "weekly")
        assert block.width == 6
        assert design.X.shape[1] == 6

    def test_default_config_widths(self):
        ts = make_series("2020-01-01", np.arange(120.0))
        design = build_design(ts, ModelConfig())
        assert design.layout.block("seasonal", "yearly").width == 20
        assert design.layout.block("seasonal", "weekly").width == 8

    def test_block_order_and_total_width(self, rng):
        days = daily_days("2020-01-01", 60)
        values = {int(d): float(v) for d, v in zip(days, rng.normal(0, 1, 60))}
        config = ModelConfig(
            trend=TrendSpec(n_changepoints=5),
            seasonalities=(
                SeasonalitySpec(name="weekly", period=7.0, fourier_order=2),
                SeasonalitySpec(name="monthly", period=30.5, fourier_order=3),
            ),
            holidays=(
                HolidaySpec(name="h1", dates=frozenset([int(days[10])])),
                HolidaySpec(name="h2", dates=frozenset([int(days[20])]), prior_scale=3.0),
            ),
            regressors=(RegressorSpec(name="x", prior_scale=2.0, values=values),),
        )
        ts = TimeSeries(days, rng.normal(0, 1, 60))
        design = build_design(ts, config)
        kinds = [b.kind for b in design.layout.blocks]
        assert kinds == ["trend", "seasonal", "seasonal", "holidays", "regressors"]
        names = [b.name for b in design.layout.blocks[1:3]]
        assert names == ["weekly", "monthly"]
        n_cp = design.layout.trend.width
        assert design.X.shape[1] == n_cp + 4 + 6 + 2 + 1
        # prior scales attached per column
        assert np.all(design.layout.trend.prior_scales == 0.05)
        assert np.all(design.layout.block("seasonal", "weekly").prior_scales == 10.0)
        assert list(design.layout.block("holidays").prior_scales) == [10.0, 3.0]
        assert list(design.layout.block("regressors").prior_scales) == [2.0]

    def test_missing_regressor_value(self):
        days = daily_days("2020-01-01", 30)
        values = {int(d): 1.0 for d in days[:-1]}  # one timestamp uncovered
        config = ModelConfig(
            trend=TrendSpec(n_changepoints=0),
            seasonalities=(),
            regressors=(RegressorSpec(name="x", prior_scale=1.0, values=values),),
        )
        ts = TimeSeries(days, np.arange(30.0))
        with pytest.raises(MissingRegressorValue):
            build_design(ts, config)

    def test_time_scaling_maps_span_to_unit_interval(self):
        ts = make_series("2020-01-01", np.arange(80.0))
        design = build_design(ts, ModelConfig())
        assert design.t_scaled[0] == 0.0
        assert design.t_scaled[-1] == 1.0


class TestHolidayCalendarCsv:
    def test_load_groups_by_name(self, tmp_path):
        p = tmp_path / "holidays.csv"
        p.write_text(
            "holiday,ds,lower_window,upper_window\n"
            "black_friday,2015-11-27,0,1\n"
            "black_friday,2016-11-25,0,1\n"
            "quarter_end,2015-03-31,0,0\n"
        )
        specs = load_holiday_calendar(p)
        assert [s.name for s in specs] == ["black_friday", "quarter_end"]
        assert len(specs[0].dates) == 2
        assert specs[0].upper_window == 1

    def test_window_mismatch_rejected(self, tmp_path):
        p = tmp_path / "holidays.csv"
        p.write_text(
            "holiday,ds,lower_window,upper_window\n"
            "a,2015-11-27,0,1\n"
            "a,2016-11-25,0,2\n"
        )
        with pytest.raises(ParseError, match="window"):
            load_holiday_calendar(p)

    @pytest.mark.parametrize(
        "row, fragment",
        [("x,2020-01-01", "missing field 'lower_window'"), ("x", "missing field 'ds'")],
    )
    def test_short_row_names_file_and_row(self, tmp_path, row, fragment):
        # a row shorter than the header was a TypeError from int(None)
        p = tmp_path / "holidays.csv"
        p.write_text("holiday,ds,lower_window,upper_window\na,2015-11-27,0,1\n" + row + "\n")
        with pytest.raises(ParseError, match=f"holidays.csv: row 3: {fragment}"):
            load_holiday_calendar(p)

    def test_missing_column_rejected(self, tmp_path):
        p = tmp_path / "holidays.csv"
        p.write_text("holiday,ds\na,2015-11-27\n")
        with pytest.raises(ParseError):
            load_holiday_calendar(p)


def scope_configs(days):
    """Configs that cover both growths, both seasonal modes (adjacent and
    interleaved), holidays and a regressor."""
    holidays = (
        HolidaySpec(name="h1", dates=frozenset(int(d) for d in days[::45]), upper_window=1),
        HolidaySpec(name="h2", dates=frozenset(int(d) for d in days[7::60])),
    )
    values = {int(d): float(np.sin(0.1 * d)) for d in range(int(days[0]), int(days[-1]) + 40)}
    weekly = SeasonalitySpec(name="weekly", period=7.0, fourier_order=3)
    monthly = SeasonalitySpec(name="monthly", period=30.5, fourier_order=2)
    return {
        "linear_holidays_regressor": ModelConfig(
            trend=TrendSpec(n_changepoints=6),
            seasonalities=(weekly, monthly),
            holidays=holidays,
            regressors=(RegressorSpec(name="x", prior_scale=2.0, values=values),),
        ),
        "logistic_multiplicative_holidays": ModelConfig(
            trend=TrendSpec(growth="logistic", capacity=10.0, n_changepoints=6),
            seasonalities=(
                SeasonalitySpec(name="weekly", period=7.0, fourier_order=3, mode="multiplicative"),
                monthly,
            ),
            holidays=holidays,
        ),
        "interleaved_modes": ModelConfig(
            trend=TrendSpec(growth="logistic", capacity=10.0, n_changepoints=4),
            seasonalities=(
                SeasonalitySpec(name="weekly", period=7.0, fourier_order=2, mode="multiplicative"),
                monthly,
                SeasonalitySpec(name="quarterly", period=91.3, fourier_order=2,
                                mode="multiplicative"),
            ),
        ),
        "no_day_columns": ModelConfig(trend=TrendSpec(n_changepoints=3), seasonalities=()),
    }


class TestSharedDayColumns:
    """Inside ``shared_day_columns`` a design takes its seasonal and holiday
    columns from one build over the series' days, and equals its own build
    bit for bit: X, and the mode columns as ``row_dot`` reads them."""

    @staticmethod
    def assert_same_design(shared, alone, rng):
        assert shared.X.flags.c_contiguous
        assert shared.X.tobytes() == alone.X.tobytes()
        assert shared.t_scaled.tobytes() == alone.t_scaled.tobytes()
        for a, b in zip(shared.mode_columns, alone.mode_columns):
            assert a.shape == b.shape
            if a.size:  # column-major, the layout of the gather
                assert a.strides[0] == b.strides[0] == 8
            assert np.array_equal(a, b)
            v = rng.normal(0, 1, a.shape[1])
            assert row_dot(a, v).tobytes() == row_dot(b, v).tobytes()

    @pytest.mark.parametrize("weekdays", [False, True])
    @pytest.mark.parametrize(
        "name",
        ["linear_holidays_regressor", "logistic_multiplicative_holidays",
         "interleaved_modes", "no_day_columns"],
    )
    def test_fold_designs_equal_their_own_build(self, rng, name, weekdays):
        days = daily_days("2021-03-01", 400)
        config = scope_configs(days)[name]
        ts = TimeSeries(days, rng.normal(5.0, 1.0, len(days)))
        if weekdays:
            ts = filter_weekdays(ts)
        first, last = int(ts.timestamps[0]), int(ts.timestamps[-1])
        for cutoff in (first + 200, first + 290, last - 30):
            train = ts.slice_mask(ts.timestamps <= cutoff)
            alone = build_design(train, config)
            scaling = TimeScaling(float(train.timestamps[0]),
                                  float(train.timestamps[-1] - train.timestamps[0]))
            # Every calendar day after the cutoff (weekends are not series
            # days of a filter_weekdays series), and the series days.
            grids = (
                np.arange(int(train.timestamps[-1]) + 1, cutoff + 31, dtype=np.int64),
                ts.timestamps[(ts.timestamps > cutoff) & (ts.timestamps <= cutoff + 30)],
            )
            grids_alone = [
                design_for_grid(g, config, scaling, alone.changepoints_scaled) for g in grids
            ]
            with shared_day_columns(config, ts.timestamps):
                shared = build_design(train, config)
                grids_shared = [
                    design_for_grid(g, config, scaling, alone.changepoints_scaled) for g in grids
                ]
                built = _day_scope.entry.columns
            assert built.shape == (
                len(ts), alone.X.shape[1] - alone.layout.trend.width - len(config.regressors)
            )
            self.assert_same_design(shared, alone, rng)
            for a, b in zip(grids_shared, grids_alone):
                self.assert_same_design(a, b, rng)

    @pytest.mark.parametrize("step", [1, 7, 30])
    def test_build_has_one_row_per_series_day(self, rng, step):
        """The build follows the number of series days, not their span: a
        mistyped early date, or weekly or monthly data, adds no rows."""
        days = daily_days("2020-01-01", 1095)[::step]
        config = scope_configs(days)["logistic_multiplicative_holidays"]
        days = np.concatenate(([parse_iso_date("1020-01-01")], days))
        ts = TimeSeries(days, rng.normal(5.0, 1.0, len(days)))
        alone = build_design(ts, config)
        with shared_day_columns(config, ts.timestamps):
            shared = build_design(ts, config)
            built = _day_scope.entry.columns
        assert built.shape == (len(ts), alone.X.shape[1] - alone.layout.trend.width)
        self.assert_same_design(shared, alone, rng)

    def test_days_outside_the_series_or_another_config_are_built_alone(self, rng):
        days = daily_days("2021-03-01", 120)
        config = scope_configs(days)["logistic_multiplicative_holidays"]
        ts = TimeSeries(days, rng.normal(5.0, 1.0, len(days)))
        alone = build_design(ts, config)
        with shared_day_columns(config, days[10:]):
            # The first ten days are not in the scope's series.
            self.assert_same_design(build_design(ts, config), alone, rng)
            assert _day_scope.entry.columns is None
            other = scope_configs(days)["logistic_multiplicative_holidays"]
            self.assert_same_design(build_design(ts, other), alone, rng)
            assert _day_scope.entry.columns is None
            grid = design_for_grid(days[20:40], config, TimeScaling(0.0, 1.0), np.empty(0))
            assert _day_scope.entry.columns is not None
        assert grid.X.shape == (20, alone.X.shape[1] - alone.layout.trend.width)

    def test_regressor_error_keeps_its_message(self):
        days = daily_days("2020-01-01", 30)
        values = {int(d): 1.0 for d in days[:-1]}
        config = ModelConfig(
            trend=TrendSpec(n_changepoints=0),
            regressors=(RegressorSpec(name="x", prior_scale=1.0, values=values),),
        )
        ts = TimeSeries(days, np.arange(30.0))
        with pytest.raises(MissingRegressorValue) as alone:
            build_design(ts, config)
        with shared_day_columns(config, days):
            with pytest.raises(MissingRegressorValue) as shared:
                build_design(ts, config)
        assert str(shared.value) == str(alone.value)

    def test_scope_is_dropped_and_an_enclosing_one_restored(self):
        config = ModelConfig()
        assert not hasattr(_day_scope, "entry")
        with shared_day_columns(config, np.arange(0, 10)):
            outer = _day_scope.entry
            with shared_day_columns(config, np.arange(5, 20)):
                assert _day_scope.entry is not outer
                assert _day_scope.entry.days[0] == 5
            assert _day_scope.entry is outer
        assert not hasattr(_day_scope, "entry")
        with pytest.raises(RuntimeError):
            with shared_day_columns(config, np.arange(0, 10)):
                raise RuntimeError
        assert not hasattr(_day_scope, "entry")
