import math

import pytest
from hypothesis import given, strategies as st

from loadshed.model import (
    DemandPoint,
    GenerationModule,
    LoadGroup,
    LoadSpec,
    MissionWeightSet,
    Variability,
    ZoneLimit,
    online_capacity,
    required_power,
    validate_fleet,
)
from loadshed.scenario import default_fleet, default_weights

MW = 1e6


def binary_load(lid, group=LoadGroup.ACLC_VITAL, rated=1.0 * MW, zone=None):
    return LoadSpec(lid, f"L{lid}", group, rated, Variability.binary(), zone)


class TestValidateFleet:
    def test_default_fleet_is_clean(self):
        fleet = default_fleet()
        report = validate_fleet(fleet, (), default_weights(fleet))
        assert report.ok, str(report)

    def test_duplicate_id_names_the_load(self):
        fleet = [binary_load(7), binary_load(7)]
        report = validate_fleet(fleet)
        assert not report.ok
        assert any(i.code == "duplicate-id" and "7" in i.subject for i in report)

    def test_descending_stepped_levels_flagged(self):
        bad = LoadSpec(1, "S", LoadGroup.PMM, MW, Variability.stepped([0.5, 0.4]))
        report = validate_fleet([bad])
        assert any(i.code == "stepped-levels" and "load 1" in i.subject for i in report)

    def test_stepped_levels_must_end_at_one(self):
        bad = LoadSpec(1, "S", LoadGroup.PMM, MW, Variability.stepped([0.25, 0.5]))
        assert not validate_fleet([bad]).ok

    def test_nonpositive_rating_flagged(self):
        report = validate_fleet([binary_load(1, rated=0.0)])
        assert any(i.code == "rated-power" for i in report)

    def test_infinite_rating_flagged(self):
        report = validate_fleet([binary_load(1, rated=math.inf)])
        assert [i.code for i in report] == ["rated-power"]

    def test_zone_member_mismatch(self):
        fleet = [binary_load(1, zone="Z1"), binary_load(2, zone="Z2")]
        zones = [ZoneLimit("Z1", 5 * MW, (1, 2))]
        report = validate_fleet(fleet, zones)
        assert any(i.code == "zone-members" and "load 2" in i.message for i in report)

    def test_zone_empty_members_and_negative_limit(self):
        fleet = [binary_load(1, zone="Z1")]
        zones = [ZoneLimit("Z1", -1.0, ())]
        report = validate_fleet(fleet, zones)
        codes = {i.code for i in report}
        assert {"zone-limit", "zone-members"} <= codes

    def test_weight_checks(self):
        fleet = [binary_load(1), binary_load(2)]
        report = validate_fleet(fleet, (), MissionWeightSet(1, {1: -2.0}))
        codes = {i.code for i in report}
        assert "missing-weight" in codes and "negative-weight" in codes
        report = validate_fleet(fleet, (), MissionWeightSet(1, {1: 0.0, 2: 0.0}))
        assert any(i.code == "all-zero-weights" for i in report)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_nonfinite_weight_flagged(self, bad):
        fleet = [binary_load(1), binary_load(2)]
        report = validate_fleet(fleet, (), MissionWeightSet(1, {1: bad, 2: 1.0}))
        assert [(i.code, i.message) for i in report] == [
            ("nonfinite-weight", f"load 1 weight {bad} is not finite")]

    @pytest.mark.parametrize("limit, ok", [(math.nan, False), (-1.0, False),
                                           (0.0, True), (math.inf, True)])
    def test_zone_limit_must_be_a_number_not_below_zero(self, limit, ok):
        report = validate_fleet([binary_load(1, zone="Z1")], [ZoneLimit("Z1", limit, (1,))])
        assert [i.code for i in report] == ([] if ok else ["zone-limit"])

    def test_validation_is_pure(self):
        fleet = default_fleet()
        first = validate_fleet(fleet)
        second = validate_fleet(fleet)
        assert first == second
        assert fleet == default_fleet()


class TestRequiredPower:
    def test_full_demand_identity(self):
        spec = binary_load(3, rated=10 * MW)
        assert required_power(spec, DemandPoint(3, 1.0)) == 10 * MW

    def test_linear_scaling(self):
        spec = binary_load(3, rated=10 * MW)
        assert required_power(spec, DemandPoint(3, 0.5)) == 5 * MW

    def test_pmm_fractional_demand(self):
        pmm = LoadSpec(9, "PMM", LoadGroup.PMM, 36 * MW, Variability.continuous())
        assert required_power(pmm, DemandPoint(9, 0.75)) == pytest.approx(27 * MW)

    def test_id_mismatch_is_usage_error(self):
        with pytest.raises(ValueError):
            required_power(binary_load(1), DemandPoint(2, 1.0))

    @given(st.floats(min_value=0.0, max_value=1.0), st.floats(min_value=1.0, max_value=1e8))
    def test_never_exceeds_rating(self, demand, rated):
        spec = LoadSpec(1, "L", LoadGroup.PMM, rated, Variability.continuous())
        power = required_power(spec, DemandPoint(1, demand))
        assert power <= rated
        assert (power == rated) == (demand == 1.0)


class TestOnlineCapacity:
    def test_default_generation_totals(self):
        modules = [
            GenerationModule(1, "MPGM1", 36 * MW),
            GenerationModule(2, "MPGM2", 36 * MW),
            GenerationModule(3, "APGM1", 12 * MW),
            GenerationModule(4, "APGM2", 12 * MW),
        ]
        assert online_capacity(modules) == 96 * MW
        tripped = [m if m.id != 2 else GenerationModule(2, "MPGM2", 36 * MW, False)
                   for m in modules]
        assert online_capacity(tripped) == 60 * MW

    def test_empty_sum(self):
        assert online_capacity([]) == 0.0

    @given(st.lists(st.floats(min_value=1.0, max_value=1e8), min_size=1, max_size=8),
           st.data())
    def test_offline_decrease_matches_rating(self, ratings, data):
        modules = [GenerationModule(i, f"G{i}", r) for i, r in enumerate(ratings)]
        k = data.draw(st.integers(min_value=0, max_value=len(modules) - 1))
        before = online_capacity(modules)
        modules[k] = GenerationModule(k, f"G{k}", ratings[k], online=False)
        after = online_capacity(modules)
        assert after <= before
        # cancellation noise scales with the fleet total, not the one rating
        assert before - after == pytest.approx(ratings[k], abs=1e-12 * max(before, 1.0))
