"""The four workloads: build a plane, run one control cycle, check it.

Every workload is the same closed loop seen from the runner — ``setup``,
then ``redraw`` / ``cycle`` / ``check_cycle`` per control cycle, then
``finish`` and ``teardown`` — and differs only in which public ``repro``
entry points it composes. Nothing here passes a performance knob
(``columnar``, ``coalesce``, ``enforce_changed_only``, ``use_uvloop``,
codec choice): a later change that makes the fast setting the default
must show up as a gain, not be pre-empted by the benchmark.

Stage demands are the only generated input. They come from ``--seed``:
log-uniform per stage (a 16x spread, so PSFA has saturated and
demand-limited jobs to separate), scaled so the aggregate sits at the
spec's multiple of PFS capacity, and a tenth of the stages redraw between
cycles — outside the timed region, through the public demand attribute.
"""

from __future__ import annotations

import asyncio
import contextlib
import http.client
import json
import math
import os
import random
import statistics
import threading
import time
from collections import deque
from dataclasses import dataclass, replace
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from repro.core.control_plane import (
    ControlPlaneConfig,
    HierarchicalControlPlane,
    default_policy,
)
from repro.guard import AdmissionGate, DegradationLadder, DemandClamp
from repro.live.controller_server import LiveGlobalController
from repro.live.harness import LiveHierPlane
from repro.live.stage_client import LiveVirtualStage
from repro.obs.metrics import MetricsRegistry
from repro.obs.procfs import LiveUsageSession
from repro.obs.spans import SpanTracer
from repro.service.api import ServiceApi
from repro.service.http import HttpServer
from repro.service.server import ControlService
from repro.store.durable import DurableStore

__all__ = ["SPECS", "Spec", "build"]

#: hi/lo of the per-stage log-uniform demand draw.
_DEMAND_SPREAD = 16.0
#: Share of stages whose demand is redrawn before each cycle.
_REDRAW_SHARE = 0.10
#: Float slack on "grants <= capacity" (summing 10^4 doubles).
_CAPACITY_SLACK = 1e-9
#: The paper's simulated cycle at 10,000 stages over 4 aggregators
#: (103 ms, Fig. 5); the calibrated DES must reproduce it on every seed.
SIM_CYCLE_MS = 103.220017
#: Phase deadlines armed on ``serve-2500x4`` (run_serve's 1 s default is
#: sized for its 12-stage default plane, not 2,500 stages).
_SERVE_DEADLINE_S = 5.0
_REST_THINK_S = 0.1
_SETUP_TIMEOUT_S = 120.0
#: Stage clients allowed to be connecting-but-unregistered at once; must
#: stay below the listeners' accept backlog (asyncio's default, 100).
_ARRIVAL_WINDOW = 64


@dataclass(frozen=True)
class Spec:
    """One workload's input size; ``scaled`` shrinks it for self-tests."""

    name: str
    kind: str  # "flat" | "hier" | "serve" | "sim"
    n_stages: int
    n_aggregators: int
    #: Aggregate stage demand as a multiple of PFS capacity.
    demand_over_capacity: float

    def scaled(self, n_stages: int) -> "Spec":
        return replace(self, n_stages=n_stages)

    @property
    def descriptors(self) -> int:
        """Loopback descriptors open at once (two per stage connection)."""
        return 0 if self.kind == "sim" else 2 * self.n_stages


SPECS: Dict[str, Spec] = {
    s.name: s
    for s in (
        Spec("flat-2500", "flat", 2500, 0, 1.6),
        Spec("hier-2500x4", "hier", 2500, 4, 1.6),
        Spec("serve-2500x4", "serve", 2500, 4, 0.6),
        Spec("sim-hier-10000x4", "sim", 10000, 4, 1.6),
    )
}


class _Demands:
    """Seeded per-stage (data, metadata) IOPS demand, with partial redraw."""

    def __init__(self, seed: int, n_stages: int, mean_total: float) -> None:
        self._rng = random.Random(seed)
        # Mean of a log-uniform on [lo, lo * spread] is
        # lo * (spread - 1) / ln(spread).
        self._lo = mean_total * math.log(_DEMAND_SPREAD) / (_DEMAND_SPREAD - 1)
        self._n = n_stages
        self.values: List[Tuple[float, float]] = [
            self._draw() for _ in range(n_stages)
        ]

    def _draw(self) -> Tuple[float, float]:
        total = self._lo * _DEMAND_SPREAD ** self._rng.random()
        # Same 5:1 data:metadata split as the stock stress demand.
        return (total * 5.0 / 6.0, total / 6.0)

    def redraw(self) -> List[int]:
        """Redraw a tenth of the stages; returns the indices that moved."""
        moved = self._rng.sample(range(self._n), max(1, int(self._n * _REDRAW_SHARE)))
        for i in moved:
            self.values[i] = self._draw()
        return moved


@contextlib.asynccontextmanager
async def _paced_arrivals(registered: Callable[[], int]):
    """Admit in-process stage clients in waves the accept queue can hold.

    The harness starts every stage client in one loop iteration, so up to
    2,500 SYNs reach a listener whose accept backlog is 100 before it is
    polled once. With SYN cookies on, the overflow leaves hundreds of
    client sockets ESTABLISHED with no server side; they only come alive
    as their register frames are retransmitted, ~100 per RTO wave (3.0,
    6.2, 12.6, 25 s ...). Scratch set-ups of the same plane took 3.0, 3.9,
    6.5 and 23.3 s, and some never finished in 120 s. That is TCP timer
    luck, not work the program does, and it would make ``setup_s``
    multimodal. So the benchmark decides *when* its stage clients arrive:
    a task factory parks each ``LiveVirtualStage.run`` task until fewer
    than ``_ARRIVAL_WINDOW`` earlier arrivals are still unregistered.
    Only set-up is affected; no cycle runs while this is installed.
    """
    loop = asyncio.get_running_loop()
    run_code = LiveVirtualStage.run.__code__
    parked: Deque[asyncio.Future] = deque()
    admitted = 0

    async def admit(coro):
        gate = loop.create_future()
        parked.append(gate)
        try:
            await gate
        except BaseException:
            coro.close()  # cancelled while parked: never started
            raise
        return await coro

    def factory(loop, coro, **kwargs):
        if getattr(coro, "cr_code", None) is run_code:
            coro = admit(coro)
        return asyncio.Task(coro, loop=loop, **kwargs)

    async def pump() -> None:
        nonlocal admitted
        while True:
            while parked and admitted - registered() < _ARRIVAL_WINDOW:
                gate = parked.popleft()
                if not gate.done():
                    gate.set_result(None)
                admitted += 1
            await asyncio.sleep(0)

    loop.set_task_factory(factory)
    pump_task = asyncio.create_task(pump())
    try:
        yield
    finally:
        loop.set_task_factory(None)
        pump_task.cancel()
        with contextlib.suppress(asyncio.CancelledError):
            await pump_task


class _Workload:
    """Shared bookkeeping: failures, check verdicts, counter snapshots."""

    def __init__(self, spec: Spec, seed: int, scratch_dir: str) -> None:
        self.spec = spec
        self.seed = seed
        self.scratch_dir = scratch_dir
        self.policy = default_policy(spec.n_stages)
        self.demands = _Demands(
            seed,
            spec.n_stages,
            spec.demand_over_capacity
            * self.policy.pfs_capacity_iops
            / spec.n_stages,
        )
        #: Correctness checks that failed, as human-readable lines.
        self.violations: List[str] = []
        #: Operations beyond stages x cycles (REST requests on serve).
        self.extra_attempted = 0
        self.extra_failed = 0

    def _violate(self, message: str) -> None:
        if len(self.violations) < 20:
            self.violations.append(message)

    # Hooks with a default no-op; workloads override what they have.
    def begin_load(self) -> None:
        """Start background load that runs beside the cycles."""

    async def end_load(self) -> None:
        """Stop background load and fold its outcome into the counts."""

    async def finish(self) -> None:
        """End-of-run checks that need the plane still up."""

    def after_teardown(self) -> None:
        """End-of-run checks that need the plane down (store reopen)."""

    def extra_metrics(self) -> Dict[str, Optional[float]]:
        """Counter-derived metrics only this workload has."""
        return {}


class _LiveWorkload(_Workload):
    """Checks and counters common to the three loopback workloads."""

    stages: List[LiveVirtualStage]
    #: The live controller whose ``cycles`` / ``last_allocations`` are read
    #: (an attribute on flat, the plane's current controller on hier).
    controller: Any

    def _sessions(self):
        """Every server-side session in the tree (each wire leg once)."""
        return list(self.controller.sessions.values())

    def redraw(self) -> None:
        values = self.demands.values
        stages = self.stages
        for i in self.demands.redraw():
            stages[i].demand = values[i]

    def _push_all_demands(self) -> None:
        for stage, demand in zip(self.stages, self.demands.values):
            stage.demand = demand

    def check_cycle(self) -> int:
        """Failed stage-operations in the cycle that just returned."""
        ctrl = self.controller
        cycle = ctrl.cycles[-1]
        epoch = cycle.epoch
        n = self.spec.n_stages
        at_epoch = 0
        applied = 0
        for s in self.stages:
            applied += s.rules_applied
            at_epoch += s.applied_epoch == epoch
        fresh = applied - self._applied_seen
        self._applied_seen = applied
        if fresh != n or at_epoch != n:
            self._violate(
                f"epoch {epoch}: {fresh} rules applied, {at_epoch} stages at "
                f"the epoch (want {n} and {n})"
            )
        granted = sum(ctrl.last_allocations.values())
        capacity = self.policy.pfs_capacity_iops
        if granted > capacity * (1.0 + _CAPACITY_SLACK):
            self._violate(f"epoch {epoch}: granted {granted} > capacity {capacity}")
        if cycle.timed_out:
            return n
        return min(n, cycle.n_missing + (n - at_epoch))

    def reset_check_baseline(self) -> None:
        self._applied_seen = sum(s.rules_applied for s in self.stages)

    def phase_records(self):
        return self.controller.cycles

    def counters(self) -> Dict[str, float]:
        sessions = self._sessions()
        ctrl = self.controller
        return {
            "wire_bytes": sum(s.tx_bytes + s.rx_bytes for s in sessions),
            "stale_messages": sum(s.stale_messages for s in sessions),
            "shed_frames": self._shed_frames(),
            "evictions": self._evictions(),
            "rules_applied": sum(s.rules_applied for s in self.stages),
            "rules_stale": sum(s.rules_ignored_stale for s in self.stages),
            "rules_suppressed": ctrl.rules_suppressed,
        }

    def _shed_frames(self) -> int:
        return self.controller.outbox_frames_shed

    def _evictions(self) -> int:
        return self.controller.evictions


class FlatWorkload(_LiveWorkload):
    """``LiveGlobalController`` + N ``LiveVirtualStage`` over loopback."""

    controller: LiveGlobalController

    async def setup(self, observe: bool = False) -> None:
        """Build the plane; ``observe`` supplies span tracer, usage meter
        and metrics registry the way ``repro.live.harness`` wires them."""
        n = self.spec.n_stages
        self._usage = LiveUsageSession(interval_s=0.05) if observe else None
        obs = {}
        if self._usage is not None:
            tracer = SpanTracer(track="global-ctrl", clock_domain="wall")
            obs = dict(
                span_tracer=tracer.for_track("global-ctrl"),
                usage_meter=self._usage.meter("global-ctrl"),
                metrics=MetricsRegistry(),
            )
        self.controller = LiveGlobalController(self.policy, expected_stages=n, **obs)
        await self.controller.start()
        if self._usage is not None:
            self._usage.start()
        self.stages = [
            LiveVirtualStage(
                self.controller.host,
                self.controller.port,
                stage_id=f"stage-{i:05d}",
                job_id=f"job-{i:05d}",
                demand=self.demands.values[i],
            )
            for i in range(n)
        ]
        async with _paced_arrivals(lambda: len(self.controller.sessions)):
            self._tasks = [asyncio.create_task(s.run()) for s in self.stages]
            await self.controller.wait_for_stages(timeout_s=_SETUP_TIMEOUT_S)
        self.reset_check_baseline()

    async def cycle(self) -> None:
        await self.controller.run_cycles(1)

    async def teardown(self) -> None:
        await self.controller.shutdown()
        if self._usage is not None:
            await self._usage.stop()
        for task in self._tasks:
            task.cancel()
        await asyncio.gather(*self._tasks, return_exceptions=True)


class HierWorkload(_LiveWorkload):
    """``LiveHierPlane(N, A)``: batch frames up, small frames down."""

    plane: LiveHierPlane

    @property
    def controller(self):
        return self.plane.controller

    async def setup(self) -> None:
        self.plane = LiveHierPlane(
            self.spec.n_stages, self.spec.n_aggregators, self.policy
        )
        async with _paced_arrivals(lambda: self.plane.registered_stages):
            await self.plane.start()
            await self.plane.wait_for_stages(timeout_s=_SETUP_TIMEOUT_S)
        self.stages = self.plane.stages
        self._push_all_demands()
        self.reset_check_baseline()

    async def cycle(self) -> None:
        await self.plane.run_cycles(1)

    async def teardown(self) -> None:
        await self.plane.stop()

    def _sessions(self):
        sessions = list(self.controller.sessions.values())
        for agg in self.plane.aggregators:
            sessions.extend(agg.sessions.values())
        return sessions

    def _shed_frames(self) -> int:
        return self.controller.outbox_frames_shed + sum(
            a.outbox_frames_shed for a in self.plane.aggregators
        )

    def _evictions(self) -> int:
        return self.plane.evictions


class _RestClient(threading.Thread):
    """One closed-loop REST client: three reads, then one durable write."""

    READS = ("/rules", "/cycles", "/healthz")

    def __init__(self, port: int, seed: int) -> None:
        super().__init__(name="bench-e2e-rest", daemon=True)
        self._port = port
        self._rng = random.Random(seed)
        self._halt = threading.Event()
        #: (method, status, seconds) per completed request.
        self.records: List[Tuple[str, int, float]] = []
        #: Tenant ids the service answered 201 for.
        self.created: List[str] = []

    def stop(self) -> None:
        self._halt.set()

    def _request(self, conn, method: str, path: str, body=None) -> int:
        payload = None if body is None else json.dumps(body)
        headers = {} if body is None else {"Content-Type": "application/json"}
        started = time.perf_counter()
        try:
            conn.request(method, path, body=payload, headers=headers)
            response = conn.getresponse()
            response.read()
            status = response.status
        except (OSError, http.client.HTTPException):
            status = 0
            conn.close()
        self.records.append((method, status, time.perf_counter() - started))
        return status

    def run(self) -> None:
        # The service answers ``Connection: close``; http.client reopens
        # the socket per request on its own.
        conn = http.client.HTTPConnection("127.0.0.1", self._port, timeout=30.0)
        seq = 0
        try:
            while not self._halt.is_set():
                for path in self.READS:
                    self._request(conn, "GET", path)
                    if self._halt.wait(_REST_THINK_S):
                        return
                tenant_id = f"bench-{seq:05d}"
                seq += 1
                status = self._request(
                    conn,
                    "POST",
                    "/tenants",
                    {
                        "tenant_id": tenant_id,
                        "name": tenant_id,
                        "weight": float(self._rng.randint(1, 8)),
                    },
                )
                if status == 201:
                    self.created.append(tenant_id)
                if self._halt.wait(_REST_THINK_S):
                    return
        finally:
            conn.close()


class ServeWorkload(HierWorkload):
    """The ``repro serve`` composition, built from the same public parts."""

    N_TENANTS = 8

    async def setup(self) -> None:
        self._store_dir = os.path.join(
            self.scratch_dir, f"store-{time.monotonic_ns()}"
        )
        self.metrics = MetricsRegistry()
        self.ladder = DegradationLadder()
        self.clamp = DemandClamp()
        self.service = ControlService.open(
            self._store_dir,
            n_stages=self.spec.n_stages,
            n_aggregators=self.spec.n_aggregators,
            policy=self.policy,
            collect_timeout_s=_SERVE_DEADLINE_S,
            enforce_timeout_s=_SERVE_DEADLINE_S,
            metrics=self.metrics,
            stage_backoff=dict(
                backoff_base_s=0.02, backoff_factor=1.5, backoff_max_s=0.2
            ),
            degradation=self.ladder,
            demand_clamp=self.clamp,
            session_outbox_bytes=256 * 1024,
        )
        self.gate = AdmissionGate(rate=200.0, metrics=self.metrics)
        api = ServiceApi(self.service, gate=self.gate, metrics=self.metrics)
        self.http = HttpServer(
            api.handle,
            host="127.0.0.1",
            port=0,
            metrics=self.metrics,
            max_connections=256,
        )
        rng = random.Random(self.seed ^ 0x5E12E)
        for t in range(self.N_TENANTS):
            tenant_id = f"tenant-{t:02d}"
            self.service.register_tenant(
                tenant_id, name=tenant_id, weight=float(rng.randint(1, 8))
            )
            self.service.register_slo(
                tenant_id, f"slo-{t:02d}", f"job-{t:05d}", min_iops=100.0
            )
        self.plane = self.service.plane
        async with _paced_arrivals(lambda: self.plane.registered_stages):
            await self.service.start(run_cycles=False)
            await self.plane.wait_for_stages(timeout_s=_SETUP_TIMEOUT_S)
        await self.http.start()
        self.stages = self.plane.stages
        self._push_all_demands()
        self.reset_check_baseline()
        self.ladder_level_max = 0
        self._client: Optional[_RestClient] = None
        self._leased_seen = self.service.store.state.leased_epoch
        self.lease_extensions = 0
        self._rest: List[Tuple[str, int, float]] = []
        self._created: List[str] = []

    async def cycle(self) -> None:
        await self.service.cycle_once()

    def check_cycle(self) -> int:
        self.ladder_level_max = max(self.ladder_level_max, self.ladder.level)
        leased = self.service.store.state.leased_epoch
        if leased != self._leased_seen:
            self._leased_seen = leased
            self.lease_extensions += 1
        return super().check_cycle()

    def begin_load(self) -> None:
        self._client = _RestClient(self.http.port, self.seed)
        self._client.start()

    async def end_load(self) -> None:
        client, self._client = self._client, None
        if client is None:
            return
        client.stop()
        # Its last request is answered by this loop: wait without blocking.
        deadline = time.monotonic() + 60.0
        while client.is_alive() and time.monotonic() < deadline:
            await asyncio.sleep(0.005)
        if client.is_alive():
            self._violate("REST client thread did not stop")
        self._rest.extend(client.records)
        self._created.extend(client.created)
        expected = {"GET": 200, "POST": 201}
        self.extra_attempted += len(client.records)
        self.extra_failed += sum(
            1 for method, status, _ in client.records if status != expected[method]
        )

    def counters(self) -> Dict[str, float]:
        out = super().counters()
        wal = self.service.store.wal
        out["wal_fsyncs"] = wal.fsyncs
        out["wal_bytes"] = wal.bytes_written
        return out

    async def finish(self) -> None:
        if self.ladder_level_max != 0:
            self._violate(f"degradation ladder reached {self.ladder_level_max}")

    async def teardown(self) -> None:
        await self.http.stop()
        await self.service.stop()

    def after_teardown(self) -> None:
        store = DurableStore(self._store_dir)
        try:
            lost = [t for t in self._created if t not in store.state.tenants]
        finally:
            store.close()
        if lost:
            self._violate(f"{len(lost)} tenants answered 201 but not durable: {lost[:3]}")

    def extra_metrics(self) -> Dict[str, Optional[float]]:
        latencies = [s for _, _, s in self._rest]
        posts = [s for m, _, s in self._rest if m == "POST"]
        return {
            "guard.clamps": float(self.clamp.clamps),
            "guard.ladder_level_max": float(self.ladder_level_max),
            "guard.admission_shed": float(
                self.gate.shed_total + self.http.connections_shed
            ),
            "store.lease_extensions": float(self.lease_extensions),
            "service.requests": float(len(self._rest)),
            "service.request_p50_ms": _median_ms(latencies),
            "service.post_p50_ms": _median_ms(posts),
        }


def _median_ms(seconds: List[float]) -> Optional[float]:
    return statistics.median(seconds) * 1e3 if seconds else None


class _DemandSource:
    """Sim-side ``MetricSource`` whose demand the benchmark sets."""

    __slots__ = ("demand",)

    def __init__(self, demand: Tuple[float, float]) -> None:
        self.demand = demand

    def sample(self, stage_id: str, now: float) -> Tuple[float, float]:
        return self.demand


class SimWorkload(_Workload):
    """The calibrated DES at the paper's largest point; no sockets."""

    async def setup(self) -> None:
        self._sources: List[_DemandSource] = []
        values = iter(self.demands.values)

        def source_factory(stage_id: str) -> _DemandSource:
            source = _DemandSource(next(values))
            self._sources.append(source)
            return source

        self.plane = HierarchicalControlPlane.build(
            ControlPlaneConfig(
                n_stages=self.spec.n_stages,
                policy=self.policy,
                source_factory=source_factory,
            ),
            n_aggregators=self.spec.n_aggregators,
        )
        self.reset_check_baseline()

    def redraw(self) -> None:
        values = self.demands.values
        for i in self.demands.redraw():
            self._sources[i].demand = values[i]

    async def cycle(self) -> None:
        self.plane.env.run(self.plane.global_controller.run_cycles(1))

    def reset_check_baseline(self) -> None:
        self._applied_seen = sum(s.rules_applied for s in self.plane.stages)

    def check_cycle(self) -> int:
        cycle = self.plane.global_controller.cycles[-1]
        n = self.spec.n_stages
        applied = 0
        at_epoch = 0
        granted = 0.0
        for s in self.plane.stages:
            applied += s.rules_applied
            rule = s.applied_rule
            if rule is not None and rule.epoch == cycle.epoch:
                at_epoch += 1
                granted += rule.data_iops_limit
        fresh = applied - self._applied_seen
        self._applied_seen = applied
        if fresh != n or at_epoch != n:
            self._violate(
                f"epoch {cycle.epoch}: {fresh} rules applied, {at_epoch} "
                f"stages at the epoch (want {n} and {n})"
            )
        capacity = self.policy.pfs_capacity_iops
        if granted > capacity * (1.0 + _CAPACITY_SLACK):
            self._violate(
                f"epoch {cycle.epoch}: granted {granted} > capacity {capacity}"
            )
        # The simulated latency is an output of the calibrated cost
        # model, not a speed: it must not move with seed or host.
        if self.spec == SPECS["sim-hier-10000x4"]:
            simulated_ms = cycle.total_s * 1e3
            if abs(simulated_ms - SIM_CYCLE_MS) > 1e-6:
                self._violate(
                    f"simulated cycle {simulated_ms:.6f} ms != {SIM_CYCLE_MS}"
                )
        if cycle.timed_out:
            return n
        return min(n, cycle.n_missing + (n - at_epoch))

    def phase_records(self):
        return self.plane.global_controller.cycles

    def counters(self) -> Dict[str, float]:
        return {
            "sim_events": self.plane.env.processed_events,
            "rules_applied": sum(s.rules_applied for s in self.plane.stages),
            "rules_stale": sum(s.rules_ignored_stale for s in self.plane.stages),
        }

    async def teardown(self) -> None:
        for agg in self.plane.aggregators:
            agg.stop()


_KINDS = {
    "flat": FlatWorkload,
    "hier": HierWorkload,
    "serve": ServeWorkload,
    "sim": SimWorkload,
}


def build(spec: Spec, seed: int, scratch_dir: str) -> _Workload:
    """The workload object for ``spec`` (nothing is started yet)."""
    return _KINDS[spec.kind](spec, seed, scratch_dir)
