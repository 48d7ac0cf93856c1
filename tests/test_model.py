import math

import pytest

from loadshed.model import (
    LoadGroup,
    LoadSpec,
    MissionWeightSet,
    Variability,
    ZoneLimit,
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
