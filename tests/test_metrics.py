import pytest
from hypothesis import given, strategies as st

from loadshed.metrics import (
    IncompleteSeriesError,
    MissionWindow,
    ServiceSums,
    integral_operability,
)


def instant(weights, statuses, demands):
    """(operability, weighted demand) of loads 0, 1, ..., as the run recorder
    computes them from aligned columns."""
    den, _, _, op_cmd, _ = ServiceSums([1.0] * len(weights))(weights, demands, statuses, statuses)
    return op_cmd, den


class TestInstantaneous:
    def test_all_loads_at_demand(self):
        value, den = instant([5, 2.5], [1, 1], [1, 1])
        assert value == 1.0 and den > 0

    def test_symmetric_halves(self):
        assert instant([5, 5], [1, 0], [1, 1])[0] == 0.5

    def test_hand_evaluated_mix(self):
        value, _ = instant([8, 5, 2.5], [1, 0.5, 0], [1, 1, 1])
        assert value == pytest.approx(10.5 / 15.5, abs=1e-12)

    def test_zero_demand_is_vacuously_one(self):
        value, den = instant([5, 5], [0, 0], [0, 0])
        assert value == 1.0 and den <= 0

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=1e-3, max_value=100.0),  # weight
                st.floats(min_value=0.0, max_value=1.0),     # status
                st.floats(min_value=0.01, max_value=1.0),    # demand
            ),
            min_size=1,
            max_size=10,
        ),
        st.floats(min_value=1e-3, max_value=1e3),
    )
    def test_weight_scaling_invariance(self, loads, c):
        weights = [w for w, _, _ in loads]
        statuses = [s for _, s, _ in loads]
        demands = [d for _, _, d in loads]
        a, _ = instant(weights, statuses, demands)
        b, _ = instant([c * w for w in weights], statuses, demands)
        assert a == pytest.approx(b, abs=1e-12)

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.1, max_value=10.0),
                st.floats(min_value=0.0, max_value=1.0),
                st.floats(min_value=0.1, max_value=1.0),
            ),
            min_size=1,
            max_size=8,
        ),
        st.floats(min_value=0.0, max_value=1.0),
    )
    def test_zero_demand_load_is_inert(self, loads, extra_status):
        weights = [w for w, _, _ in loads] + [7.0]
        statuses = [min(s, d) for _, s, d in loads] + [extra_status]
        demands = [d for _, _, d in loads] + [0.0]
        with_extra = instant(weights, statuses, demands)
        without = instant(weights[:-1], statuses[:-1], demands[:-1])
        assert with_extra == without

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.1, max_value=10.0),
                st.floats(min_value=0.0, max_value=1.0),
                st.floats(min_value=0.1, max_value=1.0),
            ),
            min_size=1,
            max_size=8,
        )
    )
    def test_unity_iff_every_demand_met(self, loads):
        weights = [w for w, _, _ in loads]
        statuses = [min(s, d) for _, s, d in loads]
        demands = [d for _, _, d in loads]
        value, _ = instant(weights, statuses, demands)
        met = all(s == d for s, d in zip(statuses, demands))
        if met:
            assert value == pytest.approx(1.0, abs=1e-12)
        else:
            assert value < 1.0


class TestIntegral:
    def test_constant_unity(self):
        window = MissionWindow(0.0, 10.0, 0.1)
        samples = [(0.1 * k, 5.0, 5.0) for k in range(1, 101)]
        assert integral_operability(samples, window) == 1.0

    def test_two_interval_hand_integration(self):
        window = MissionWindow(0.0, 2.0, 0.1)
        samples = [(round(0.1 * k, 10), 1.0 if k <= 10 else 0.8, 1.0) for k in range(1, 21)]
        assert integral_operability(samples, window) == pytest.approx(0.9, abs=1e-12)

    def test_gap_raises(self):
        window = MissionWindow(0.0, 1.0, 0.1)
        samples = [(0.1 * k, 1.0, 1.0) for k in range(1, 11) if k != 4]
        with pytest.raises(IncompleteSeriesError):
            integral_operability(samples, window)

    def test_off_grid_sample_raises(self):
        window = MissionWindow(0.0, 1.0, 0.1)
        samples = [(0.1 * k + 0.33, 1.0, 1.0) for k in range(1, 11)]
        with pytest.raises(IncompleteSeriesError):
            integral_operability(samples, window)

    def test_zero_denominator_ticks_drop_out(self):
        window = MissionWindow(0.0, 1.0, 0.1)
        samples = [(0.1 * k, 0.8 if k <= 5 else 123.0, 1.0 if k <= 5 else 0.0)
                   for k in range(1, 11)]
        assert integral_operability(samples, window) == pytest.approx(0.8)

    @given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=2, max_size=50))
    def test_bounded_by_instantaneous_extremes_when_denominator_constant(self, values):
        window = MissionWindow(0.0, 0.1 * len(values), 0.1)
        samples = [(0.1 * (k + 1), v * 3.0, 3.0) for k, v in enumerate(values)]
        result = integral_operability(samples, window)
        assert min(values) - 1e-12 <= result <= max(values) + 1e-12


class TestMissionWindow:
    def test_rejects_bad_windows(self):
        with pytest.raises(ValueError):
            MissionWindow(10.0, 10.0, 0.1)
        with pytest.raises(ValueError):
            MissionWindow(0.0, 1.0, -0.1)
        with pytest.raises(ValueError):
            MissionWindow(0.0, 1.05, 0.1)

    def test_tick_count(self):
        assert MissionWindow(0.0, 600.0, 0.1).n_ticks == 6000


def test_service_sums_skip_zero_demand_even_if_status_nonzero():
    value, den = instant([5.0, 5.0], [1.0, 0.7], [1.0, 0.0])
    assert value == 1.0 and den == 5.0
