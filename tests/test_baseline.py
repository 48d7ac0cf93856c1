import pytest
from hypothesis import given, settings, strategies as st

from loadshed.baseline import baseline_reset, baseline_step, category_order
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
NON_VITAL_ORDER = [10, 12, 15]
SEMI_VITAL_ORDER = [13, 16]
VITAL_ORDER = [11, 14, 17]


def snap(loading, t=0.0):
    return SystemSnapshot(
        time_s=t, mission_id=1, load_ids=(), demands=(), measured_w=(),
        total_capacity_w=60 * MW, total_loss_w=0.0, loading_pu=loading,
    )


def run_trace(loadings, tick=0.1):
    """Feed a loading trace; returns [(time, shed load id or None)]."""
    state = baseline_reset()
    shed_log = []
    for k, loading in enumerate(loadings, start=1):
        state, commands = baseline_step(state, snap(loading, k * tick), FLEET, tick)
        assert len(commands) <= 1
        shed_log.append((k * tick, commands[0].load_id if commands else None))
    return state, shed_log


def test_category_order_follows_declaration():
    order = category_order(FLEET)
    assert order[Category.NON_VITAL] == NON_VITAL_ORDER
    assert order[Category.SEMI_VITAL] == SEMI_VITAL_ORDER
    assert order[Category.VITAL] == VITAL_ORDER


def test_reset_state():
    state = baseline_reset()
    assert state.overload_timer_s == 0.0
    assert state.shed == frozenset()
    assert state.cursors == (0, 0, 0)
    after, commands = baseline_step(state, snap(0.9), FLEET, 0.1)
    assert commands == () and after.shed == frozenset()


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
    _, log = run_trace(loadings)
    assert all(target is None for _, target in log)


def test_shed_set_grows_and_is_never_recommanded():
    state = baseline_reset()
    seen = set()
    for k in range(1, 200):
        state, commands = baseline_step(state, snap(1.3, k * 0.1), FLEET, 0.1)
        for c in commands:
            assert c.load_id not in seen
            assert c.status == 0.0
            seen.add(c.load_id)
    assert state.shed == seen == set(NON_VITAL_ORDER + SEMI_VITAL_ORDER + VITAL_ORDER)
    # fleet exhausted: further overload yields no commands
    state, commands = baseline_step(state, snap(1.3, 20.0), FLEET, 0.1)
    assert commands == ()


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(min_value=0.5, max_value=1.5), min_size=1, max_size=120))
def test_stage_thresholds_hold_on_random_traces(loadings):
    state = baseline_reset()
    timer = 0.0
    for k, loading in enumerate(loadings, start=1):
        state, commands = baseline_step(state, snap(loading, k * 0.1), FLEET, 0.1)
        timer = timer + 0.1 if loading > 1.0 else 0.0
        assert len(commands) <= 1
        for c in commands:
            cat = next(s.group.category for s in FLEET if s.id == c.load_id)
            assert timer > 0.25
            if cat is Category.SEMI_VITAL:
                assert timer > 2.5
            if cat is Category.VITAL:
                assert timer > 5.0
        assert state.overload_timer_s == pytest.approx(timer)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(min_value=0.5, max_value=1.5), min_size=1, max_size=120))
def test_declaration_order_within_categories(loadings):
    state = baseline_reset()
    shed_by_cat = {Category.NON_VITAL: [], Category.SEMI_VITAL: [], Category.VITAL: []}
    for k, loading in enumerate(loadings, start=1):
        state, commands = baseline_step(state, snap(loading, k * 0.1), FLEET, 0.1)
        for c in commands:
            cat = next(s.group.category for s in FLEET if s.id == c.load_id)
            shed_by_cat[cat].append(c.load_id)
    assert shed_by_cat[Category.NON_VITAL] == NON_VITAL_ORDER[: len(shed_by_cat[Category.NON_VITAL])]
    assert shed_by_cat[Category.SEMI_VITAL] == SEMI_VITAL_ORDER[: len(shed_by_cat[Category.SEMI_VITAL])]
    assert shed_by_cat[Category.VITAL] == VITAL_ORDER[: len(shed_by_cat[Category.VITAL])]
