import pytest
from hypothesis import given, settings, strategies as st

from loadshed.baseline import BaselineController
from loadshed.model import Category, LoadGroup, LoadSpec, SystemSnapshot, Variability

MW = 1e6

# 3 non-vital, 2 semi-vital, 3 vital, deliberately interleaved declaration order
FLEET = (
    LoadSpec(10, "NV-a", LoadGroup.ACLC_NONVITAL, MW, Variability.binary()),
    LoadSpec(11, "V-a", LoadGroup.ACLC_VITAL, MW, Variability.binary()),
    LoadSpec(12, "NV-b", LoadGroup.ACLC_NONVITAL, MW, Variability.binary()),
    LoadSpec(13, "SV-a", LoadGroup.IPNC, MW, Variability.binary()),
    LoadSpec(14, "V-b", LoadGroup.MW_CLASS, MW, Variability.binary()),
    LoadSpec(15, "NV-c", LoadGroup.ACLC_NONVITAL, MW, Variability.binary()),
    LoadSpec(16, "SV-b", LoadGroup.IPNC, MW, Variability.binary()),
    LoadSpec(17, "V-c", LoadGroup.PMM, MW, Variability.continuous()),
)
IDS = tuple(spec.id for spec in FLEET)
CATEGORY = {spec.id: spec.group.category for spec in FLEET}
NON_VITAL_ORDER = [10, 12, 15]
SEMI_VITAL_ORDER = [13, 16]
VITAL_ORDER = [11, 14, 17]


def snap(loading, t=0.0):
    return SystemSnapshot(
        time_s=t, mission_id=1, load_ids=(), demands=(), measured_w=(),
        total_capacity_w=60 * MW, total_loss_w=0.0, loading_pu=loading,
    )


def step(ctrl, snapshot):
    """Drive one tick; returns the ids the tick cut, checking the intent moved
    only by cuts, and only when it is a new tuple."""
    before = ctrl.intent
    ctrl.on_telemetry(snapshot)
    cut = [lid for lid, new, old in zip(IDS, ctrl.intent, before) if new != old]
    assert all(new in (old, 0.0) for new, old in zip(ctrl.intent, before))
    assert (ctrl.intent is before) == (not cut)
    return cut


def run_trace(loadings, tick=0.1):
    """Feed a loading trace; returns the controller and [(time, cut load id or None)]."""
    ctrl = BaselineController(FLEET, tick)
    shed_log = []
    for k, loading in enumerate(loadings, start=1):
        cut = step(ctrl, snap(loading, k * tick))
        assert len(cut) <= 1
        shed_log.append((k * tick, cut[0] if cut else None))
    return ctrl, shed_log


def test_each_category_is_cut_in_declaration_order():
    _, log = run_trace([1.2] * 60)
    targets = [target for _, target in log if target is not None]
    for cat, order in ((Category.NON_VITAL, NON_VITAL_ORDER),
                       (Category.SEMI_VITAL, SEMI_VITAL_ORDER), (Category.VITAL, VITAL_ORDER)):
        assert [lid for lid in targets if CATEGORY[lid] is cat] == order


def test_reset_state():
    ctrl = BaselineController(FLEET, 0.1)
    assert ctrl.overload_timer_s == 0.0
    assert ctrl.intent == (1.0,) * len(FLEET)
    assert ctrl.last_plan is None
    assert step(ctrl, snap(0.9)) == []


def test_never_overloaded_never_sheds():
    _, log = run_trace([0.95] * 100)
    assert all(target is None for _, target in log)


def test_first_shed_at_300ms_with_100ms_ticks():
    # overload begins at t=0; ticks observe it at 0.1, 0.2, 0.3, ...
    _, log = run_trace([1.2] * 10)
    sheds = [(t, target) for t, target in log if target is not None]
    assert sheds[0] == (pytest.approx(0.3), NON_VITAL_ORDER[0])


def test_non_vitals_shed_one_per_tick_in_declaration_order():
    _, log = run_trace([1.2] * 6)
    targets = [target for _, target in log if target is not None]
    assert targets == NON_VITAL_ORDER


def test_semi_vital_waits_for_2500ms_even_when_non_vitals_exhausted():
    # non-vitals run out at t=0.5; the first semi-vital must wait for timer > 2.5
    _, log = run_trace([1.2] * 30)
    first_semi = next(t for t, target in log if target in SEMI_VITAL_ORDER)
    assert first_semi == pytest.approx(2.6)


def test_vital_waits_for_5000ms():
    _, log = run_trace([1.2] * 60)
    first_vital = next(t for t, target in log if target in VITAL_ORDER)
    assert first_vital == pytest.approx(5.1)
    targets = [target for _, target in log if target is not None]
    assert targets == NON_VITAL_ORDER + SEMI_VITAL_ORDER + VITAL_ORDER


def test_timer_resets_on_dip_below_unity():
    # 0.2 s overload, a dip, then 0.2 s more: without the reset the cumulative
    # 0.4 s would trigger a shed, with it nothing ever passes 250 ms
    loadings = [1.2, 1.2, 0.9, 1.2, 1.2]
    ctrl, log = run_trace(loadings)
    assert all(target is None for _, target in log)
    assert ctrl.overload_timer_s == pytest.approx(0.2)


def test_shed_set_grows_and_is_never_recommanded():
    ctrl = BaselineController(FLEET, 0.1)
    seen = set()
    for k in range(1, 200):
        for lid in step(ctrl, snap(1.3, k * 0.1)):
            assert lid not in seen
            seen.add(lid)
    assert seen == set(NON_VITAL_ORDER + SEMI_VITAL_ORDER + VITAL_ORDER)
    assert ctrl.intent == (0.0,) * len(FLEET)
    # fleet exhausted: further overload leaves the intent as it is
    assert step(ctrl, snap(1.3, 20.0)) == []


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(min_value=0.5, max_value=1.5), min_size=1, max_size=120))
def test_stage_thresholds_hold_on_random_traces(loadings):
    ctrl = BaselineController(FLEET, 0.1)
    timer = 0.0
    for k, loading in enumerate(loadings, start=1):
        cut = step(ctrl, snap(loading, k * 0.1))
        timer = timer + 0.1 if loading > 1.0 else 0.0
        assert len(cut) <= 1
        for lid in cut:
            assert timer > 0.25
            if CATEGORY[lid] is Category.SEMI_VITAL:
                assert timer > 2.5
            if CATEGORY[lid] is Category.VITAL:
                assert timer > 5.0
        assert ctrl.overload_timer_s == pytest.approx(timer)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(min_value=0.5, max_value=1.5), min_size=1, max_size=120))
def test_declaration_order_within_categories(loadings):
    ctrl = BaselineController(FLEET, 0.1)
    shed_by_cat = {Category.NON_VITAL: [], Category.SEMI_VITAL: [], Category.VITAL: []}
    for k, loading in enumerate(loadings, start=1):
        for lid in step(ctrl, snap(loading, k * 0.1)):
            shed_by_cat[CATEGORY[lid]].append(lid)
    assert shed_by_cat[Category.NON_VITAL] == NON_VITAL_ORDER[: len(shed_by_cat[Category.NON_VITAL])]
    assert shed_by_cat[Category.SEMI_VITAL] == SEMI_VITAL_ORDER[: len(shed_by_cat[Category.SEMI_VITAL])]
    assert shed_by_cat[Category.VITAL] == VITAL_ORDER[: len(shed_by_cat[Category.VITAL])]
