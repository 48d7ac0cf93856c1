import math

import pytest

from loadshed.model import (
    STATUS_TOL,
    LoadGroup,
    LoadSpec,
    MissionWeightSet,
    Variability,
    ZoneLimit,
    fleet_issues,
    weight_issues,
)
from loadshed.scenario import default_fleet, default_weights

MW = 1e6


def binary_load(lid, group=LoadGroup.ACLC_VITAL, rated=1.0 * MW, zone=None):
    return LoadSpec(lid, f"L{lid}", group, rated, Variability.binary(), zone)


def issues(fleet, zones=()):
    return fleet_issues(fleet, zones)[0]


class TestValidateFleet:
    def test_default_fleet_is_clean(self):
        fleet = default_fleet()
        assert issues(fleet) == [] and weight_issues(fleet, default_weights(fleet)) == []

    def test_duplicate_id_names_the_load(self):
        fleet = [binary_load(7), binary_load(7)]
        report = issues(fleet)
        assert report
        assert any(i.code == "duplicate-id" and "7" in i.subject for i in report)

    def test_descending_stepped_levels_flagged(self):
        bad = LoadSpec(1, "S", LoadGroup.PMM, MW, Variability.stepped([0.5, 0.4]))
        report = issues([bad])
        assert any(i.code == "stepped-levels" and "load 1" in i.subject for i in report)

    def test_stepped_levels_must_end_at_one(self):
        bad = LoadSpec(1, "S", LoadGroup.PMM, MW, Variability.stepped([0.25, 0.5]))
        assert issues([bad])

    def test_nonpositive_rating_flagged(self):
        report = issues([binary_load(1, rated=0.0)])
        assert any(i.code == "rated-power" for i in report)

    def test_infinite_rating_flagged(self):
        report = issues([binary_load(1, rated=math.inf)])
        assert [i.code for i in report] == ["rated-power"]

    def test_zone_member_mismatch(self):
        fleet = [binary_load(1, zone="Z1"), binary_load(2, zone="Z2")]
        zones = [ZoneLimit("Z1", 5 * MW, (1, 2))]
        report = issues(fleet, zones)
        assert any(i.code == "zone-members" and "load 2" in i.message for i in report)

    def test_zone_empty_members_and_negative_limit(self):
        fleet = [binary_load(1, zone="Z1")]
        zones = [ZoneLimit("Z1", -1.0, ())]
        report = issues(fleet, zones)
        codes = {i.code for i in report}
        assert {"zone-limit", "zone-members"} <= codes

    def test_weight_checks(self):
        fleet = [binary_load(1), binary_load(2)]
        report = weight_issues(fleet, MissionWeightSet(1, {1: -2.0}))
        codes = {i.code for i in report}
        assert "missing-weight" in codes and "negative-weight" in codes
        report = weight_issues(fleet, MissionWeightSet(1, {1: 0.0, 2: 0.0}))
        assert any(i.code == "all-zero-weights" for i in report)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_nonfinite_weight_flagged(self, bad):
        fleet = [binary_load(1), binary_load(2)]
        report = weight_issues(fleet, MissionWeightSet(1, {1: bad, 2: 1.0}))
        assert [(i.code, i.message) for i in report] == [
            ("nonfinite-weight", f"load 1 weight {bad} is not finite")]

    @pytest.mark.parametrize("limit, ok", [(math.nan, False), (-1.0, False),
                                           (0.0, True), (math.inf, True)])
    def test_zone_limit_must_be_a_number_not_below_zero(self, limit, ok):
        report = issues([binary_load(1, zone="Z1")], [ZoneLimit("Z1", limit, (1,))])
        assert [i.code for i in report] == ([] if ok else ["zone-limit"])

    def test_validation_is_pure(self):
        fleet = default_fleet()
        first = fleet_issues(fleet, ())
        second = fleet_issues(fleet, ())
        assert first == second
        assert fleet == default_fleet()


@pytest.mark.parametrize("variability", [Variability.binary(), Variability.stepped([0.5, 1.0]),
                                         Variability.continuous()],
                         ids=["binary", "stepped", "continuous"])
def test_contains_allows_status_tol(variability):
    assert variability.contains(1.0 + STATUS_TOL / 2)
    assert variability.contains(-STATUS_TOL / 2)
    assert not variability.contains(1.0 + 2 * STATUS_TOL)
    assert not variability.contains(-2 * STATUS_TOL)
