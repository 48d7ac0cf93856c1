"""Shipboard load-shedding testbed.

A software recreation of a controller-in-the-loop load shedding study: a
discrete-time shipboard plant simulator, a binary UDP telemetry/command
link with configurable impairment, a staged rule-based baseline shedder,
an exact mission-weighted shedding optimizer, and scenario tooling with
operability metrics and comparison reports.
"""

from .controller import (
    AdvancedController,
    BaselineController,
    ControllerConfig,
    MissionDatabase,
    make_controller,
)
from .link import ImpairmentConfig
from .metrics import MissionWindow, integral_operability, operability, served_sums
from .model import (
    Category,
    GenerationModule,
    LoadGroup,
    LoadSpec,
    MissionWeightSet,
    ShedCommand,
    SystemSnapshot,
    ValidationReport,
    Variability,
    ZoneLimit,
)
from .optimizer import (
    FleetModel,
    ModelInstance,
    ShedPlan,
    plan_violations,
    solve,
)
from .plant import LoadProfile, Plant, sample_profile
from .report import compare_runs, emit_plot_data, run_scenario
from .scenario import (
    ScenarioConfig,
    default_scenario,
    load_scenario,
    save_scenario,
    validate_scenario,
)
from .sim import RunResult, run_lockstep, run_networked

__version__ = "0.1.0"
