"""The service object: store + policy + live plane + cycle loop.

:class:`ControlService` is the glue the REST API drives. It owns a
:class:`~repro.store.DurableStore`, a :class:`~repro.core.policies.QoSPolicy`
shared by reference with a :class:`~repro.live.harness.LiveHierPlane`,
and a background control-cycle loop that leases epochs ahead of use:

* every registration is WAL-synced *before* it touches the policy, so a
  201 response is a durability receipt;
* the cycle loop extends the epoch lease whenever the next cycle would
  cross the leased bound, then records completed cycles on the batched
  fsync path — the group-commit trade the store is built around;
* :meth:`ControlService.open` *is* crash recovery: fold the snapshot and
  WAL tail, re-project tenants onto the policy, and boot the plane at
  ``store.resume_epoch()`` so the restarted controller's first issued
  epoch strictly dominates everything the dead plane put on the wire.

``run_serve`` is the ``repro serve`` entrypoint: HTTP front door plus
the cycle loop, with a ready-file handshake for scripted callers (the
CI ``service-smoke`` job SIGKILLs it and restarts from the store).
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import os
import signal
from typing import Dict, List, Optional

from repro.core.control_plane import default_policy
from repro.core.policies import QoSPolicy
from repro.guard import AdmissionGate, DegradationLadder, DemandClamp
from repro.live.harness import LiveHierPlane
from repro.obs.metrics import MetricsRegistry
from repro.service.api import ServiceApi
from repro.service.http import HttpServer
from repro.store.durable import DurableStore
from repro.store.state import SLORecord, TenantRecord

__all__ = ["ControlService", "run_serve"]


class ControlService:
    """One durable, tenant-facing control plane."""

    def __init__(
        self,
        store: DurableStore,
        plane: LiveHierPlane,
        policy: QoSPolicy,
        cycle_period_s: float = 0.05,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if cycle_period_s < 0:
            raise ValueError(f"negative cycle_period_s: {cycle_period_s}")
        self.store = store
        self.plane = plane
        self.policy = policy
        self.cycle_period_s = cycle_period_s
        self.metrics = metrics
        #: True when open() found prior durable state (this is a restart).
        self.resumed = False
        #: Epoch the plane booted at (the resume floor).
        self.initial_epoch = plane.initial_epoch
        self.cycles_run = 0
        self._cycle_task: Optional[asyncio.Task] = None

    @classmethod
    def open(
        cls,
        store_dir,
        n_stages: int = 12,
        n_aggregators: int = 3,
        policy: Optional[QoSPolicy] = None,
        cycle_period_s: float = 0.05,
        collect_timeout_s: Optional[float] = None,
        enforce_timeout_s: Optional[float] = None,
        metrics: Optional[MetricsRegistry] = None,
        stage_backoff: Optional[Dict[str, float]] = None,
        degradation: Optional[DegradationLadder] = None,
        demand_clamp: Optional[DemandClamp] = None,
        session_outbox_bytes: Optional[int] = None,
    ) -> "ControlService":
        """Open (or recover) a service from a store directory.

        Recovery is this constructor: the store folds snapshot + WAL,
        tenants re-project onto the policy, and the plane is built with
        ``initial_epoch=store.resume_epoch()`` — the restart epoch rule.
        Guard objects (``degradation``, ``demand_clamp``,
        ``session_outbox_bytes``) are threaded into the plane so they
        survive controller restarts with their learned state intact.
        """
        store = DurableStore(store_dir, metrics=metrics)
        policy = policy or default_policy(n_stages)
        store.state.apply_to_policy(policy)
        resumed = bool(store.state.tenants) or store.last_durable_epoch > 0
        plane = LiveHierPlane(
            n_stages,
            n_aggregators,
            policy,
            collect_timeout_s=collect_timeout_s,
            enforce_timeout_s=enforce_timeout_s,
            initial_epoch=store.resume_epoch(),
            stage_backoff=stage_backoff,
            degradation=degradation,
            demand_clamp=demand_clamp,
            session_outbox_bytes=session_outbox_bytes,
        )
        service = cls(
            store,
            plane,
            policy,
            cycle_period_s=cycle_period_s,
            metrics=metrics,
        )
        service.resumed = resumed
        return service

    # -- lifecycle -----------------------------------------------------------
    async def start(self, run_cycles: bool = True) -> None:
        """Boot the plane and (optionally) the background cycle loop."""
        await self.plane.start()
        if run_cycles:
            self._cycle_task = asyncio.create_task(self._cycle_loop())

    async def cycle_once(self) -> None:
        """Lease-if-needed, run one control cycle, record it durably."""
        if self.plane.epoch + 1 > self.store.state.leased_epoch:
            self.store.lease_epochs()
        await self.plane.run_cycles(1)
        self.store.record_cycle(self.plane.epoch, n_stages=self.plane.n_stages)
        self.cycles_run += 1

    async def _cycle_loop(self) -> None:
        while True:
            await self.cycle_once()
            await asyncio.sleep(self.cycle_period_s)

    async def stop(self) -> None:
        """Stop cycling, tear the plane down, close the store."""
        if self._cycle_task is not None:
            self._cycle_task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._cycle_task
            self._cycle_task = None
        await self.plane.stop()
        self.store.close()

    # -- tenant semantics ----------------------------------------------------
    def register_tenant(
        self, tenant_id: str, name: str, weight: float
    ) -> TenantRecord:
        """Durably record the tenant, then map its quota to a PSFA class."""
        tenant = self.store.put_tenant(
            tenant_id, name, weight, created_epoch=self.epoch
        )
        self.policy.register_tenant(tenant_id, weight)
        return tenant

    def register_slo(
        self, tenant_id: str, slo_id: str, job_id: str, min_iops: float = 0.0
    ) -> SLORecord:
        """Durably record the SLO, then admit the job to the tenant class."""
        # Validate against the live policy *before* the durable write so
        # an over-committed floor never lands in the WAL.
        probe = QoSPolicy(
            pfs_capacity_iops=self.policy.pfs_capacity_iops,
            metadata_capacity_iops=self.policy.metadata_capacity_iops,
            classes=dict(self.policy.classes),
            job_classes=dict(self.policy.job_classes),
            min_guarantee_iops=dict(self.policy.min_guarantee_iops),
            default_class=self.policy.default_class,
            headroom_fraction=self.policy.headroom_fraction,
        )
        probe.admit_tenant_job(tenant_id, job_id, min_iops=min_iops)
        slo = self.store.put_slo(tenant_id, slo_id, job_id, min_iops=min_iops)
        self.policy.admit_tenant_job(tenant_id, job_id, min_iops=min_iops)
        return slo

    # -- read model ----------------------------------------------------------
    @property
    def epoch(self) -> int:
        """Current rule epoch (the plane's, falling back to the floor)."""
        return self.plane.epoch if self.plane.controller else self.initial_epoch

    @property
    def restarts(self) -> int:
        """In-process plane restarts since this service object booted."""
        return self.plane.restarts

    def recent_cycles(self, limit: int = 20) -> List:
        """The last ``limit`` completed control cycles, oldest first."""
        controller = self.plane.controller
        if controller is None or limit <= 0:
            return []
        return list(controller.cycles[-limit:])

    def current_limits(self) -> Dict[str, float]:
        """Last computed per-stage limit (stage id → IOPS)."""
        controller = self.plane.controller
        if controller is None:
            return {}
        return dict(controller.last_allocations)

    def enforced_limits_for(self, tenant_id: str) -> Dict[str, float]:
        """Per-job enforced limits for one tenant's SLO'd jobs.

        Job ids map onto stage ids by the harness's naming convention
        (``job-00001`` runs on ``stage-00001``), which is how the REST
        read model joins SLOs to the controller's allocation table.
        """
        limits = self.current_limits()
        out: Dict[str, float] = {}
        for slo in self.store.state.tenant_slos(tenant_id):
            stage_id = slo.job_id.replace("job", "stage")
            if stage_id in limits:
                out[slo.job_id] = limits[stage_id]
        return out


async def run_serve(
    store_dir,
    port: int = 0,
    host: str = "127.0.0.1",
    n_stages: int = 12,
    n_aggregators: int = 3,
    cycle_period_s: float = 0.05,
    max_cycles: Optional[int] = None,
    ready_file: Optional[str] = None,
    admission_rate: float = 200.0,
    admission_burst: Optional[float] = None,
    max_connections: int = 256,
    session_outbox_bytes: int = 256 * 1024,
) -> Dict:
    """Serve the REST API over a live plane until signalled (or a cap).

    Writes ``ready_file`` (JSON: bound port, pid, resume epoch) once the
    plane is up — the handshake scripted callers and the CI smoke use —
    and exits cleanly on SIGTERM/SIGINT or after ``max_cycles`` cycles.
    Returns a summary dict (the ``repro serve`` JSON output).

    Overload protection is on by default: an admission gate in front of
    the route table (``429``/``503`` + ``Retry-After``), a socket cap at
    the accept loop, bounded per-session outboxes on the wire plane, a
    demand clamp against lying tenants, and a degradation ladder that
    stretches the cycle interval when cycles keep degrading.
    """
    metrics = MetricsRegistry()
    degradation = DegradationLadder()
    demand_clamp = DemandClamp()
    service = ControlService.open(
        store_dir,
        n_stages=n_stages,
        n_aggregators=n_aggregators,
        cycle_period_s=cycle_period_s,
        metrics=metrics,
        stage_backoff=dict(backoff_base_s=0.02, backoff_factor=1.5, backoff_max_s=0.2),
        degradation=degradation,
        demand_clamp=demand_clamp,
        session_outbox_bytes=session_outbox_bytes,
    )
    gate = AdmissionGate(
        rate=admission_rate, burst=admission_burst, metrics=metrics
    )
    api = ServiceApi(service, gate=gate, metrics=metrics)
    http = HttpServer(
        api.handle,
        host=host,
        port=port,
        metrics=metrics,
        max_connections=max_connections,
    )
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for sig in (signal.SIGTERM, signal.SIGINT):
        with contextlib.suppress(NotImplementedError, RuntimeError):
            loop.add_signal_handler(sig, stop.set)
    await service.start(run_cycles=False)
    await http.start()
    if ready_file:
        payload = {
            "port": http.port,
            "pid": os.getpid(),
            "resumed": service.resumed,
            "initial_epoch": service.initial_epoch,
        }
        tmp = f"{ready_file}.tmp"
        with open(tmp, "w") as f:
            json.dump(payload, f)
        os.replace(tmp, ready_file)
    try:
        while not stop.is_set():
            await service.cycle_once()
            if max_cycles is not None and service.cycles_run >= max_cycles:
                break
            # The degradation ladder stretches the cycle interval when
            # cycles keep running degraded — shed control work first.
            pause = service.cycle_period_s * service.plane.interval_multiplier
            with contextlib.suppress(asyncio.TimeoutError):
                await asyncio.wait_for(stop.wait(), timeout=pause)
    finally:
        await http.stop()
        summary = {
            "port": http.port,
            "cycles_run": service.cycles_run,
            "epoch": service.epoch,
            "resumed": service.resumed,
            "initial_epoch": service.initial_epoch,
            "tenants": len(service.store.state.tenants),
            "requests_served": http.requests_served,
            "requests_shed": gate.shed_total,
            "connections_shed": http.connections_shed,
            "degradation_level": degradation.level,
            "demand_clamps": demand_clamp.clamps,
            "store": service.store.inspect(),
        }
        await service.stop()
    return summary
