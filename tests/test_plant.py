import logging
import math

import pytest
from hypothesis import given, settings, strategies as st

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

    @pytest.mark.parametrize("status", [math.nan, -1.0, 0.5])
    def test_status_outside_the_domain_logged_not_applied(self, status, caplog):
        # load 1 is binary: its commanded status stays 0, and no power goes
        # NaN or negative on any later tick
        plant = simple_plant()
        plant.apply_commands([ShedCommand(1, 0.0)])
        with caplog.at_level(logging.WARNING):
            plant.apply_commands([ShedCommand(1, status)])
        assert plant.commanded[0] == 0.0
        assert any("load 1" in rec.message for rec in caplog.records)
        for _ in range(50):
            snap = plant.tick(0.1)
            assert all(math.isfinite(x) and x >= 0.0 for x in snap.measured_w)
            assert math.isfinite(snap.total_loss_w) and math.isfinite(snap.loading_pu)
        assert snap.measured_w[0] < 1.0  # settled at the valid command's 0


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


class ReferencePlant:
    """The plant as it was before ticks became change-driven: every tick
    bisects every profile and steps every load's lag. Kept as the reference
    the change-driven :class:`Plant` must match bit for bit."""

    def __init__(self, fleet, generation, profiles, events=(), tau_s=0.2,
                 loss_fraction=0.02, mission_id=1, t_start_s=0.0):
        self.fleet = tuple(fleet)
        self.load_ids = tuple(spec.id for spec in self.fleet)
        self._index = {lid: i for i, lid in enumerate(self.load_ids)}
        self._rated = tuple(spec.rated_power_w for spec in self.fleet)
        self.tau_s, self.loss_fraction, self.mission_id = tau_s, loss_fraction, mission_id
        self.clock_s = self._base_t = t_start_s
        self._base_ticks = 0
        self._dt = None
        self._online = {m.id: m.online for m in generation}
        self._modules = tuple(generation)
        self._profiles = tuple(profiles.get(lid) for lid in self.load_ids)
        self._events = sorted(events, key=lambda e: e.time_s)
        self._next_event = 0
        self.forced_off = set()
        self.commanded = [1.0] * len(self.fleet)
        self.measured_w = [min(1.0, d) * r for d, r in zip(self._demands(t_start_s), self._rated)]

    def _demands(self, t):
        return tuple(0.0 if profile is None or lid in self.forced_off
                     else sample_profile(profile, t)
                     for lid, profile in zip(self.load_ids, self._profiles))

    def apply_commands(self, commands):
        for cmd in commands:
            i = self._index.get(cmd.load_id)
            if i is not None:
                self.commanded[i] = cmd.status

    def tick(self, dt):
        if dt != self._dt:
            self._base_t, self._base_ticks, self._dt = self.clock_s, 0, dt
        self._base_ticks += 1
        self.clock_s = self._base_t + self._base_ticks * dt
        due = self.clock_s + 1e-9 * (1.0 + abs(self.clock_s))
        while self._next_event < len(self._events) and self._events[self._next_event].time_s <= due:
            ev = self._events[self._next_event]
            self._next_event += 1
            if isinstance(ev, GeneratorTrip):
                self._online[ev.module_id] = False
            elif isinstance(ev, GeneratorRestore):
                self._online[ev.module_id] = True
            elif isinstance(ev, LoadFailure):
                self.forced_off.add(ev.load_id)
        alpha = 1.0 if self.tau_s == 0.0 else 1.0 - math.exp(-dt / self.tau_s)
        demands = self._demands(self.clock_s + 1e-9 * (1.0 + abs(self.clock_s)))
        measured = self.measured_w
        total = 0.0
        for i, (c, d, rated) in enumerate(zip(self.commanded, demands, self._rated)):
            p = measured[i]
            measured[i] = p = p + (min(c, d) * rated - p) * alpha
            total += p
        capacity = sum(m.rated_power_w for m in self._modules if self._online[m.id])
        loss = self.loss_fraction * total
        if capacity > 0:
            loading = (total + loss) / capacity
        else:
            loading = 0.0 if total + loss <= 0 else math.inf
        return (self.clock_s, demands, tuple(measured), loss, capacity, loading)


# demand levels that print apart although some compare equal: signed zeros, a
# tiny negative within the status tolerance, ints, and ordinary levels, two of
# them one ulp apart, so that a lag can stop an ulp short of its target (a
# fixed point at one step length that another step length moves)
LEVELS = (0.0, -0.0, -1e-12, 0, 0.3, 0.5, math.nextafter(0.5, 1.0), 1, 1.0)
DT = 0.1


@st.composite
def plant_runs(draw):
    """A small plant and a schedule of ticks and commands to drive it with."""
    n = draw(st.integers(1, 4))
    fleet = tuple(
        LoadSpec(i + 1, f"L{i + 1}", LoadGroup.PMM, draw(st.sampled_from((250, 1e6, 3.5e6))),
                 Variability.continuous()) for i in range(n))
    generation = (GenerationModule(1, "G1", 5e6), GenerationModule(2, "G2", 4e6))
    t_start = draw(st.sampled_from((0.0, 0.25, 1.0)))  # 0.25: inside every profile below
    n_ticks = draw(st.integers(1, 40))
    horizon = t_start + n_ticks * DT
    # breakpoints on the tick grid, as products and as rounded decimals, and off it
    on_grid = st.integers(0, n_ticks).flatmap(
        lambda k: st.sampled_from((t_start + k * DT, round(t_start + k * DT, 9))))
    times = st.one_of(on_grid, st.floats(0.0, horizon + DT, allow_nan=False))
    profiles = {}
    for spec in fleet:
        if draw(st.booleans()) or spec.id == 1:  # load 1 always has one
            ts = sorted(set(draw(st.lists(times, min_size=1, max_size=6))))
            profiles[spec.id] = LoadProfile(tuple((t, draw(st.sampled_from(LEVELS)))
                                                  for t in ts))
    events = []
    if draw(st.booleans()):  # fail a load between, before or after its breakpoints
        events.append(LoadFailure(draw(times), draw(st.sampled_from([s.id for s in fleet]))))
    if draw(st.booleans()):  # a trip, then a restore
        t_trip = draw(times)
        events += [GeneratorTrip(t_trip, 2), GeneratorRestore(t_trip + draw(times), 2)]
    # per tick: its length (a change mid-run from some tick on) and commands first
    dt_change = draw(st.integers(1, n_ticks))
    dt2 = draw(st.sampled_from((DT, 0.05, 0.2)))
    steps = []
    for k in range(n_ticks):
        commands = draw(st.lists(
            st.builds(ShedCommand, st.sampled_from([s.id for s in fleet]),
                      st.sampled_from((0.0, -0.0, 0.5, 1.0, 1))), max_size=2))
        steps.append((DT if k < dt_change else dt2, commands))
    tau = draw(st.sampled_from((0.0, 0.13, 0.2)))
    return (fleet, generation, profiles, tuple(events), tau, t_start), steps


class TestChangeDrivenTick:
    @settings(max_examples=200, deadline=None)
    @given(plant_runs())
    def test_matches_the_full_recompute_reference(self, run):
        (fleet, generation, profiles, events, tau, t_start), steps = run
        kwargs = dict(events=events, tau_s=tau, loss_fraction=0.02, t_start_s=t_start)
        plant = Plant(fleet, generation, profiles, **kwargs)
        reference = ReferencePlant(fleet, generation, profiles, **kwargs)
        for dt, commands in steps:
            plant.apply_commands(commands)
            reference.apply_commands(commands)
            snap = plant.tick(dt)
            got = (snap.time_s, snap.demands, snap.measured_w, snap.total_loss_w,
                   snap.total_capacity_w, snap.loading_pu)
            assert repr(got) == repr(reference.tick(dt))

    def test_a_new_step_length_moves_a_settled_lag(self):
        # a lag one ulp short of its target is a fixed point of the 0.1 s
        # step (alpha 0.39 rounds the ulp away) but not of the 0.2 s one
        fleet = (LoadSpec(1, "L", LoadGroup.PMM, 250, Variability.continuous()),)
        generation = (GenerationModule(1, "G", 1e6),)
        profiles = {1: LoadProfile(((0.0, 0.5), (0.05, math.nextafter(0.5, 1.0))))}
        plant = Plant(fleet, generation, profiles)
        reference = ReferencePlant(fleet, generation, profiles)
        seen = []
        for dt in (0.1,) * 5 + (0.2,) * 2:
            snap = plant.tick(dt)
            seen.append(snap.measured_w)
            assert repr(snap.measured_w) == repr(reference.tick(dt)[2])
        assert seen[3] == seen[4] != seen[5], "the check needs a lag that settled short"

    def test_unchanged_ticks_share_their_tuples(self):
        profiles = {1: LoadProfile(((0.0, 1.0), (1.0, 0.5))), 2: LoadProfile(((0.0, 1.0),))}
        plant = simple_plant(profiles=profiles)
        snaps = [plant.tick(0.1) for _ in range(300)]
        # settled: nothing moves between t = 29.9 s and 30 s
        assert snaps[-1].demands is snaps[-2].demands
        assert snaps[-1].measured_w is snaps[-2].measured_w
        # the breakpoint at 1 s gave a new demand tuple, once
        assert snaps[9].demands is not snaps[8].demands
        assert snaps[10].demands is snaps[9].demands
        plant.apply_commands([ShedCommand(2, 0.5)])
        moved = plant.tick(0.1)
        assert moved.demands is snaps[-1].demands
        assert moved.measured_w[1] < snaps[-1].measured_w[1]

    def test_profile_times_must_not_be_nan(self):
        with pytest.raises(ValueError):
            LoadProfile(((math.nan, 1.0),))
        with pytest.raises(ValueError):
            LoadProfile(((0.0, 1.0), (math.nan, 0.5)))
