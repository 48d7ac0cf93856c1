"""Run engine: one plant-side tick loop, run lockstep or over UDP.

Each tick the loop applies the commands that have arrived, advances the
plant, submits its telemetry to a seeded delay queue, hands what that queue
delivers to the controller side, submits the answer to a seeded command
queue and records the row and the telemetry seq used. Commands from tick
``t``'s telemetry act during tick ``t+1``, one control period of latency,
as in the physical setup. Both modes draw link loss at the plant end, so
the drop schedule is a pure function of the seed: ``link.replay_drop_schedule``.

The controller side is a :class:`_ControlNode`: it keeps the freshest
telemetry, owns the staleness failsafe (telemetry older than
``stale_limit`` ticks: re-send the last fresh answer's batch, flag the tick
degraded), answers a controller that raises the same way (logging only the
first fault, retrying every later tick), times each decision and alone
turns intent into commands. It hands the controller the telemetry and
diffs the controller's ``intent`` before and after: the batch is the
statuses that changed, in fleet order, or empty when the intent is the same
tuple object. So the failsafe's batch is empty unless the last fresh answer
changed the intent: it holds the plant's commands, and repairs a dropped
batch only when the degraded tick directly follows that change. Lockstep
calls the node inline, and the queues also apply latency and jitter.
Networked mode serves it on a thread behind real UDP sockets, which supply
the latency, so ``latency_ms`` and ``jitter_ms`` apply to lockstep only; a
tick whose telemetry is lost, or whose reply does not come within
``SYNC_TIMEOUT_S``, is degraded while the plant holds its last commands. A
loss-free networked run reproduces the lockstep run exactly.
"""

from __future__ import annotations

import contextlib
import functools
import logging
import math
import socket
import threading
import time
from collections.abc import Sequence
from dataclasses import dataclass, replace
from typing import NamedTuple

from . import link
from .controller import Controller, MissionDatabase, make_controller
from .link import DelayQueue, Reassembler
from .metrics import ServiceSums
from .model import LoadSpec, ShedCommand, SystemSnapshot
from .plant import Plant
from .records import RunRecord, RunMeta
from .scenario import ScenarioConfig

log = logging.getLogger(__name__)

DEFAULT_PLANT_PORT = 47001
DEFAULT_CONTROLLER_PORT = 47002
SYNC_TIMEOUT_S = 1.0  # how long the plant waits for the reply to telemetry that got through


@dataclass
class RunResult:
    """What the loop decides once per tick: the row, and the seq of the
    telemetry its intent used (None on a degraded tick). Budget and intent
    power are read back from that seq's row; both read None where it does."""

    meta: RunMeta
    rows: list[RunRecord]
    used_seq: list[int | None]
    nonoptimal_solves: int = 0

    @functools.cached_property
    def budget_w(self) -> list[float | None]:
        rows = self.rows
        return [None if seq is None else max(0.0, rows[seq - 1].capacity_w - rows[seq - 1].loss_w)
                for seq in self.used_seq]

    @functools.cached_property
    def intent_power_w(self) -> list[float | None]:
        rated_w = [rated for _, _, rated in self.meta.fleet]
        out: list[float | None] = []
        for row, seq in zip(self.rows, self.used_seq):
            power = None
            if seq is not None:
                power = 0.0
                for s, d, rated in zip(row.commanded, self.rows[seq - 1].demands, rated_w):
                    power += (d if d < s else s) * rated  # min(s, d), added in fleet order
            out.append(power)
        return out


def build_plant(sc: ScenarioConfig) -> Plant:
    return Plant(
        fleet=sc.fleet,
        generation=sc.generation,
        profiles=sc.profiles,
        events=sc.events,
        tau_s=sc.plant.tau_s,
        loss_fraction=sc.plant.loss_fraction,
        mission_id=sc.mission_id,
        t_start_s=sc.window.t_start_s,
    )


class _Recorder:
    """Shared row bookkeeping for both execution modes. The run's mission
    database is built here, and the rows read each load's weight by its
    position in the weight set's fleet model. A row's service sums come from
    one :class:`~loadshed.metrics.ServiceSums`, which recomputes only what
    changed: the plant hands on its demand and measured tuples while they do
    not change, and a measured float while its load does not move, and the
    controllers hand on their intent tuple while no status changes.
    """

    def __init__(self, sc: ScenarioConfig):
        self.db = MissionDatabase(sc.fleet, sc.mission_id, sc.weight_sets, sc.zones, sc.events)
        self._sums = ServiceSums(tuple(spec.rated_power_w for spec in sc.fleet))

    def row(
        self,
        snapshot: SystemSnapshot,
        commanded: tuple[float, ...],
        degraded: bool,
        solve_time_s: float,
    ) -> RunRecord:
        segment = self.db.segment_at(snapshot.time_s)
        demands, measured = snapshot.demands, snapshot.measured_w
        sums = self._sums(None if segment is None else segment.model.weight,
                          demands, commanded, measured)
        return RunRecord(snapshot.time_s, snapshot.total_capacity_w, snapshot.total_loss_w,
                         snapshot.loading_pu, *sums, degraded, demands, commanded, measured,
                         solve_time_s)


class _Decision(NamedTuple):
    """What the controller side answered for one tick."""

    batch: tuple[ShedCommand, ...]
    intent: tuple[float, ...]  # the controller's statuses after this decision, in fleet order
    degraded: bool = False
    seq: int | None = None  # telemetry seq the batch was based on
    solve_time_s: float = 0.0  # the controller's decision time
    optimal: bool = True

    def held(self) -> _Decision:
        """The failsafe answer: re-send this fresh answer's batch (empty unless
        it changed the intent), flagged degraded."""
        return _Decision(self.batch, self.intent, degraded=True)


class _ControlNode:
    """The controller side of the loop, whatever carries its messages."""

    def __init__(self, controller: Controller, stale_limit: int, fleet: Sequence[LoadSpec],
                 mission_id: int):
        self.controller = controller
        self.stale_limit = stale_limit
        self.mission_id = mission_id
        self._ids = tuple(spec.id for spec in fleet)
        self._mailbox: tuple[int, SystemSnapshot] | None = None
        self.last = _Decision((), controller.intent)
        self._fault_logged = False
        self._summed: tuple[tuple[float, ...] | None, float] = (None, 0.0)  # demands, their sum

    def exchange(self, k: int, arrived: list[tuple[int, SystemSnapshot]]) -> _Decision:
        """Take the telemetry that arrived by tick ``k`` and answer for tick ``k``."""
        for seq, snap in arrived:
            if self._mailbox is None or seq > self._mailbox[0]:
                self._mailbox = (seq, snap)
        if self._mailbox is None or k - self._mailbox[0] > self.stale_limit:
            return self.last.held()  # failsafe: re-send the last fresh answer's batch
        seq, used = self._mailbox
        # answer as stale: another mission, other loads, non-finite values (NaN and inf
        # survive the sum), or loading NaN (the baseline reads it as overload) or
        # negative; +inf is zero capacity
        if (used.mission_id != self.mission_id or used.load_ids != self._ids
                or not used.loading_pu >= 0.0 or not math.isfinite(
                used.time_s + self._demand_sum(used.demands) + used.total_capacity_w
                + used.total_loss_w)):
            return self.last.held()
        controller = self.controller
        before = controller.intent
        t0 = time.perf_counter()
        try:
            controller.on_telemetry(used)
        except Exception:
            # a controller fault degrades the tick like stale telemetry; the next tick retries
            if not self._fault_logged:
                self._fault_logged = True
                log.exception("controller failed on telemetry seq %d; holding the last batch",
                              seq)
            return self.last.held()
        elapsed = time.perf_counter() - t0
        plan, intent = controller.last_plan, controller.intent
        batch = () if intent is before else tuple(
            ShedCommand(lid, status)
            for lid, status, old in zip(self._ids, intent, before) if status != old)
        self.last = _Decision(batch, intent, seq=seq, solve_time_s=elapsed,
                              optimal=plan is None or plan.optimal)
        return self.last

    def _demand_sum(self, demands: tuple[float, ...]) -> float:
        """``sum(demands)``, added once per tuple object: the plant hands one
        tuple on while no demand changes. The last tuple and its sum are kept,
        so a tuple holding a NaN gives NaN on every tick that carries it."""
        if demands is not self._summed[0]:
            self._summed = (demands, sum(demands))
        return self._summed[1]


class _UdpLink:
    """Plant-side proxy of a :class:`_ControlNode` served over UDP on a thread."""

    def __init__(self, node: _ControlNode, host: str, plant_port: int,
                 controller_port: int, tick_s: float | None):
        self.node = node
        self.tick_s = tick_s
        self._plant_sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self._ctrl_sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        try:
            self._plant_sock.bind((host, plant_port))
            self._ctrl_sock.bind((host, controller_port))
        except OSError as exc:
            self.close()
            raise RuntimeError(f"cannot open UDP sockets on {host}: {exc}") from exc
        self._ctrl_addr = self._ctrl_sock.getsockname()
        # short poll timeouts on both ends: making the sockets blocking (the
        # plant waiting out SYNC_TIMEOUT_S in one call, the controller with no
        # timeout) was slower, with the bundled baseline's networked tick p75
        # at 78.2 us against 67.6 us over 16 interleaved runs on a shared
        # 2-vCPU VM
        self._plant_sock.settimeout(0.005)
        self._ctrl_sock.settimeout(0.05)
        self._reasm = Reassembler()
        self._last = node.last
        self._latest: _Decision | None = None
        self._release_s = 0.0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._serve, name="loadshed-controller",
                                        daemon=True)

    def close(self) -> None:
        self._plant_sock.close()
        self._ctrl_sock.close()

    def __enter__(self) -> _UdpLink:
        self._thread.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._stop.set()
        self._thread.join(timeout=2.0)
        self.close()
        if isinstance(exc, OSError):
            raise RuntimeError(f"UDP socket failure during networked run: {exc}") from exc

    def _serve(self) -> None:
        """Controller thread: answer each telemetry message with the node's batch."""
        reasm = Reassembler()
        while not self._stop.is_set():
            try:
                data, sender = self._ctrl_sock.recvfrom(65536)
                view = reasm.feed(data)
            except socket.timeout:
                continue
            except link.DecodeError as exc:
                log.warning("controller dropped undecodable datagram: %s", exc)
                continue
            except OSError:
                if self._stop.is_set():
                    return
                raise
            if view is None or view.msg_type != link.MSG_TELEMETRY:
                continue
            self._latest = self.node.exchange(view.seq, [(view.seq, view.snapshot)])
            for part in link.encode_commands_parts(
                self._latest.batch, view.seq, timestamp_ms=view.timestamp_ms
            ):
                self._ctrl_sock.sendto(part, sender)

    def exchange(self, k: int, arrived: list[tuple[int, SystemSnapshot]]) -> _Decision:
        """Send the telemetry that got through and wait for the reply with ``seq == k``."""
        for seq, snap in arrived:
            for part in link.encode_telemetry_parts(snap, seq):
                self._plant_sock.sendto(part, self._ctrl_addr)
        decision = None
        deadline = time.monotonic() + (SYNC_TIMEOUT_S if arrived else 0.0)
        while time.monotonic() < deadline:
            try:
                view = self._reasm.feed(self._plant_sock.recv(65536))
            except socket.timeout:
                continue
            except link.DecodeError as exc:
                log.warning("plant dropped undecodable datagram: %s", exc)
                continue
            if view is not None and view.msg_type == link.MSG_COMMANDS and view.seq == k:
                # the node answers before it replies, so _latest is tick k's decision
                decision = self._last = self._latest._replace(batch=view.commands)
                break
        if decision is None:
            decision = self._last.held()
        if self.tick_s is not None:
            now = time.monotonic()
            if self._release_s > now:
                time.sleep(self._release_s - now)
            self._release_s = max(now, self._release_s) + self.tick_s
        return decision


def _run(sc: ScenarioConfig, algorithm: str | None, seed: int | None,
         mode: str, connect) -> RunResult:
    """The tick loop; ``connect(node)`` gives the context that carries messages."""
    algorithm = algorithm or sc.controller.algorithm
    cfg = replace(sc.controller, algorithm=algorithm)
    impair_cfg = sc.impairment if seed is None else replace(sc.impairment, seed=seed)
    # in networked mode the sockets supply the latency
    queue_cfg = (impair_cfg if mode == "lockstep"
                 else replace(impair_cfg, latency_ms=0.0, jitter_ms=0.0))
    plant = build_plant(sc)
    recorder = _Recorder(sc)
    node = _ControlNode(make_controller(sc.fleet, cfg, recorder.db, sc.window.tick_s),
                        cfg.stale_limit, sc.fleet, sc.mission_id)
    q_tel = DelayQueue(queue_cfg, "telemetry")
    q_cmd = DelayQueue(queue_cfg, "commands")

    meta = RunMeta(
        tick_s=sc.window.tick_s,
        t_start_s=sc.window.t_start_s,
        t_end_s=sc.window.t_end_s,
        algorithm=algorithm,
        mode=mode,
        seed=impair_cfg.seed,
        mission_id=sc.mission_id,
        fleet=tuple((spec.id, spec.group.value, spec.rated_power_w) for spec in sc.fleet),
    )
    result = RunResult(meta, [], [])

    dt = sc.window.tick_s
    with connect(node) as controller_side:
        for k in range(1, sc.window.n_ticks + 1):
            interval_start = sc.window.t_start_s + (k - 1) * dt
            for batch in q_cmd.poll(interval_start):
                plant.apply_commands(batch)
            snapshot = plant.tick(dt)

            q_tel.submit((k, snapshot), snapshot.time_s)
            decision = controller_side.exchange(k, q_tel.poll(snapshot.time_s))
            q_cmd.submit(decision.batch, snapshot.time_s)
            result.used_seq.append(decision.seq)
            result.nonoptimal_solves += not decision.optimal
            result.rows.append(recorder.row(snapshot, decision.intent, decision.degraded,
                                            decision.solve_time_s))
    return result


def run_lockstep(
    sc: ScenarioConfig,
    algorithm: str | None = None,
    seed: int | None = None,
) -> RunResult:
    """Deterministic single-threaded run over the scenario window."""
    return _run(sc, algorithm, seed, "lockstep", contextlib.nullcontext)


def run_networked(
    sc: ScenarioConfig,
    algorithm: str | None = None,
    seed: int | None = None,
    host: str = "127.0.0.1",
    plant_port: int = DEFAULT_PLANT_PORT,
    controller_port: int = DEFAULT_CONTROLLER_PORT,
    realtime: bool = False,
) -> RunResult:
    """The same loop with the controller node on a thread behind UDP sockets.

    Pass port 0 for ephemeral ports. Loss is drawn at the plant end in both
    directions by the same seeded queues as in lockstep; ``latency_ms`` and
    ``jitter_ms`` are ignored, as the sockets supply the latency. The node
    only ever answers the current tick's telemetry, so its staleness
    failsafe does not engage: a tick whose telemetry is lost, or whose reply
    does not arrive within ``SYNC_TIMEOUT_S``, is degraded while the plant
    holds its last commands. ``realtime`` paces the ticks at the control
    period, the window's tick. Aborts with a diagnostic on socket failure.
    """
    tick_s = sc.window.tick_s if realtime else None
    return _run(sc, algorithm, seed, "networked", functools.partial(
        _UdpLink, host=host, plant_port=plant_port, controller_port=controller_port,
        tick_s=tick_s))
