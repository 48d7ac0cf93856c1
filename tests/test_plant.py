import logging
import math

import pytest
from hypothesis import given, strategies as st

from loadshed.model import (
    GenerationModule,
    LoadGroup,
    LoadSpec,
    ShedCommand,
    Variability,
)
from loadshed.plant import (
    GeneratorRestore,
    GeneratorTrip,
    LoadFailure,
    LoadProfile,
    Plant,
    sample_profile,
)

MW = 1e6


class TestSampleProfile:
    profile = LoadProfile(((0.0, 1.0), (395.0, 0.6)))

    def test_hold_between_breakpoints(self):
        assert sample_profile(self.profile, 100.0) == 1.0

    def test_boundary_is_inclusive(self):
        assert sample_profile(self.profile, 395.0) == 0.6

    def test_hold_to_end(self):
        assert sample_profile(self.profile, 600.0) == 0.6

    def test_before_first_breakpoint_is_zero(self):
        late = LoadProfile(((10.0, 1.0),))
        assert sample_profile(late, 5.0) == 0.0

    def test_breakpoints_must_ascend(self):
        with pytest.raises(ValueError):
            LoadProfile(((1.0, 0.5), (1.0, 0.7)))


def simple_plant(tau=0.2, loss_fraction=0.0, events=(), profiles=None):
    fleet = (
        LoadSpec(1, "A", LoadGroup.ACLC_VITAL, 10 * MW, Variability.binary()),
        LoadSpec(2, "P", LoadGroup.PMM, 20 * MW, Variability.continuous()),
    )
    generation = (
        GenerationModule(1, "MPGM1", 36 * MW),
        GenerationModule(2, "MPGM2", 36 * MW),
        GenerationModule(3, "APGM1", 12 * MW),
        GenerationModule(4, "APGM2", 12 * MW),
    )
    if profiles is None:
        profiles = {1: LoadProfile(((0.0, 1.0),)), 2: LoadProfile(((0.0, 1.0),))}
    return Plant(fleet, generation, profiles, events=events, tau_s=tau,
                 loss_fraction=loss_fraction)


class TestLag:
    def test_single_step_toward_target(self):
        # step from 0 to 10 MW with tau=0.2 s and dt=0.1 s
        profiles = {1: LoadProfile(((0.05, 1.0),)), 2: LoadProfile(((0.0, 0.0),))}
        plant = simple_plant(profiles=profiles)
        snap = plant.tick(0.1)
        expected = 10 * MW * (1 - math.exp(-0.5))
        assert snap.measured_w[0] == pytest.approx(expected)
        assert snap.measured_w[0] == pytest.approx(3.934693 * MW, rel=1e-6)

    def test_converges_within_one_percent_after_five_tau(self):
        profiles = {1: LoadProfile(((0.05, 1.0),)), 2: LoadProfile(((0.0, 0.0),))}
        plant = simple_plant(profiles=profiles)
        for _ in range(10):  # 1.0 s = 5 tau
            snap = plant.tick(0.1)
        assert abs(snap.measured_w[0] - 10 * MW) <= 0.01 * 10 * MW

    def test_zero_tau_is_instant(self):
        plant = simple_plant(tau=0.0)
        plant.apply_commands([ShedCommand(2, 0.25)])
        snap = plant.tick(0.1)
        assert snap.measured_w[1] == 0.25 * 20 * MW

    def test_fixed_point_when_measured_equals_target(self):
        plant = simple_plant()
        for _ in range(100):
            snap = plant.tick(0.1)
        settled = snap.measured_w
        snap = plant.tick(0.1)
        assert snap.measured_w == settled


class TestCommands:
    def test_command_caps_by_demand(self):
        profiles = {1: LoadProfile(((0.0, 0.6),)), 2: LoadProfile(((0.0, 1.0),))}
        fleet_binaryless = (
            LoadSpec(1, "C", LoadGroup.PMM, 10 * MW, Variability.continuous()),
            LoadSpec(2, "P", LoadGroup.PMM, 20 * MW, Variability.continuous()),
        )
        plant = Plant(fleet_binaryless, (GenerationModule(1, "G", 96 * MW),),
                      profiles, tau_s=0.0)
        plant.apply_commands([ShedCommand(1, 1.0), ShedCommand(2, 0.5)])
        snap = plant.tick(0.1)
        assert snap.measured_w[0] == pytest.approx(0.6 * 10 * MW)  # demand limited
        assert snap.measured_w[1] == pytest.approx(0.5 * 20 * MW)  # command limited

    def test_binary_cut_to_zero(self):
        plant = simple_plant(tau=0.0)
        plant.apply_commands([ShedCommand(1, 0.0)])
        snap = plant.tick(0.1)
        assert snap.measured_w[0] == 0.0

    def test_unknown_load_logged_not_raised(self, caplog):
        plant = simple_plant()
        with caplog.at_level(logging.WARNING):
            plant.apply_commands([ShedCommand(99, 0.0)])
        assert any("99" in rec.message for rec in caplog.records)


class TestEventsAndSnapshot:
    def test_trip_reflected_in_snapshot_at_event_time(self):
        plant = simple_plant(events=(GeneratorTrip(1.0, 2),))
        snap = None
        for _ in range(10):
            snap = plant.tick(0.1)
        assert snap.time_s == pytest.approx(1.0)
        assert snap.total_capacity_w == 60 * MW

    def test_restore_brings_capacity_back(self):
        plant = simple_plant(events=(GeneratorTrip(0.1, 2), GeneratorRestore(0.3, 2)))
        assert plant.tick(0.1).total_capacity_w == 60 * MW
        plant.tick(0.1)
        assert plant.tick(0.1).total_capacity_w == 96 * MW

    def test_load_failure_forces_demand_and_power_to_zero(self):
        plant = simple_plant(tau=0.0, events=(LoadFailure(0.2, 1),))
        plant.tick(0.1)
        snap = plant.tick(0.1)
        assert snap.demands[0] == 0.0
        assert snap.measured_w[0] == 0.0

    def test_loading_books_balance_exactly(self):
        plant = simple_plant(loss_fraction=0.02)
        snap = plant.tick(0.1)
        total = sum(snap.measured_w)
        assert snap.total_loss_w == 0.02 * total
        assert snap.loading_pu == (total + snap.total_loss_w) / snap.total_capacity_w

    def test_zero_capacity_loading_convention(self):
        plant = simple_plant(events=(GeneratorTrip(0.1, 1), GeneratorTrip(0.1, 2),
                                     GeneratorTrip(0.1, 3), GeneratorTrip(0.1, 4)))
        snap = plant.tick(0.1)
        assert snap.total_capacity_w == 0.0
        assert math.isinf(snap.loading_pu)

    def test_determinism_bit_identical(self):
        def run():
            plant = simple_plant(tau=0.13, loss_fraction=0.02,
                                 events=(GeneratorTrip(0.5, 2),))
            plant.apply_commands([ShedCommand(2, 0.7)])
            return [plant.tick(0.1) for _ in range(50)]

        assert run() == run()

    def test_measured_stays_within_rating(self):
        plant = simple_plant()
        plant.apply_commands([ShedCommand(1, 1.0), ShedCommand(2, 1.0)])
        for _ in range(200):
            snap = plant.tick(0.1)
            for spec, p in zip(plant.fleet, snap.measured_w):
                assert 0.0 <= p <= spec.rated_power_w


class TestOnlineCapacity:
    """Snapshot capacity is the total rating of the modules online."""

    def test_default_generation_totals(self):
        plant = simple_plant(events=(GeneratorTrip(0.2, 2),))
        assert plant.tick(0.1).total_capacity_w == 96 * MW
        assert plant.tick(0.1).total_capacity_w == 60 * MW

    def test_empty_sum(self):
        plant = Plant(simple_plant().fleet, (), {})
        snap = plant.tick(0.1)
        assert snap.total_capacity_w == 0.0
        assert snap.loading_pu == 0.0  # nothing demanded, nothing loaded

    @given(st.lists(st.floats(min_value=1.0, max_value=1e8), min_size=1, max_size=8),
           st.data())
    def test_offline_decrease_matches_rating(self, ratings, data):
        modules = [GenerationModule(i, f"G{i}", r) for i, r in enumerate(ratings)]
        k = data.draw(st.integers(min_value=0, max_value=len(modules) - 1))
        plant = Plant(simple_plant().fleet, modules, {}, events=(GeneratorTrip(0.2, k),))
        before = plant.tick(0.1).total_capacity_w
        after = plant.tick(0.1).total_capacity_w
        assert after <= before
        # cancellation noise scales with the fleet total, not the one rating
        assert before - after == pytest.approx(ratings[k], abs=1e-12 * max(before, 1.0))
