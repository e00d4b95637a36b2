"""Virtual data-plane stages — the paper's stress-test endpoints.

A virtual stage "mimics the behavior of a regular stage without the need
to run real applications" (paper §III-C): it answers every metric request
with current data/metadata IOPS readings and acknowledges every
enforcement rule. Fifty of them run per physical compute node in the
study; here each is a simulated :class:`~repro.simnet.transport.Endpoint`
of its own that answers in its ``_deliver``, so 10,000 stages cost only
their message traffic and three small objects each: the stage (slotted,
no instance dict, no inbox) and one connection and channel per
controller link. Default stages share one metric source,
:data:`STRESS_SOURCE`.

The IOPS values come from a :class:`MetricSource`, which the workload
generators in :mod:`repro.jobs.workloads` implement; the stress workload
simply reports a constant-plus-noise demand, because under stress testing
"regardless of the value of each collected metric" the control plane does
the same work.
"""

from __future__ import annotations

from typing import Callable, Optional, Protocol, Tuple

from repro.core.costs import CostModel, FRONTERA_COST_MODEL
from repro.core.rules import EnforcementRule
from repro.simnet.engine import Environment
from repro.simnet.node import SimHost
from repro.simnet.transport import Connection, Endpoint, Message, Network

__all__ = ["MetricSource", "VirtualStage"]


class MetricSource(Protocol):
    """Provides the IOPS readings a stage reports each cycle."""

    def sample(self, stage_id: str, now: float) -> Tuple[float, float]:
        """Return (data_iops, metadata_iops) at simulated time ``now``."""
        ...


class ConstantSource:
    """Fixed demand — the degenerate stress-test source."""

    def __init__(self, data_iops: float = 1000.0, metadata_iops: float = 200.0):
        if data_iops < 0 or metadata_iops < 0:
            raise ValueError("negative IOPS")
        self.data_iops = data_iops
        self.metadata_iops = metadata_iops

    def sample(self, stage_id: str, now: float) -> Tuple[float, float]:
        return (self.data_iops, self.metadata_iops)


#: The source every stage built without one reports from. It holds no
#: per-stage state and nothing mutates it, so one serves a whole plane.
STRESS_SOURCE = ConstantSource()


class VirtualStage(Endpoint):
    """A lightweight stage: replies to metric requests, acks rules.

    The stage is its own endpoint: :meth:`attach` registers it on a
    network, and it then serves every controller connected to it
    (``stage.endpoint`` is the stage). A handler set on it with
    :meth:`~repro.simnet.transport.Endpoint.set_handler` takes every
    message in its place, until it is set back to ``None``. A ``rule``
    carries ``(epoch, data_limit, metadata_limit)``; stale rules (an
    epoch not newer than the applied one) are ignored but still
    acknowledged, so a recovering controller cannot roll a stage's limit
    backwards. The applied rule is kept as those three scalars
    (``applied_epoch`` is ``-1`` before the first rule), not as a record
    that would live for a whole cycle.
    """

    __slots__ = (
        "stage_id", "job_id", "source", "costs",
        "applied_epoch", "applied_data_limit", "applied_metadata_limit",
        "requests_served", "rules_applied", "rules_ignored_stale",
    )

    def __init__(
        self,
        env: Environment,
        stage_id: str,
        job_id: str,
        source: Optional[MetricSource] = None,
        costs: CostModel = FRONTERA_COST_MODEL,
    ) -> None:
        # Host and name are set when the stage is attached.
        super().__init__(env, None, stage_id)
        self.stage_id = stage_id
        self.job_id = job_id
        self.source = source or STRESS_SOURCE
        self.costs = costs
        self.applied_epoch = -1
        self.applied_data_limit = float("inf")
        self.applied_metadata_limit = float("inf")
        self.requests_served = 0
        self.rules_applied = 0
        self.rules_ignored_stale = 0

    def attach(self, network: Network, host: SimHost, service: str) -> None:
        """Serve requests as ``service`` on ``host``, registered on
        ``network`` as :meth:`Network.attach` names an endpoint."""
        self.host = host
        self.name = f"{host.name}/{service}"
        network.register(self)

    @property
    def endpoint(self) -> "VirtualStage":
        """The endpoint controllers connect to: the stage itself."""
        return self

    # -- message handling -------------------------------------------------------
    def _deliver(self, message: Message, connection: Connection) -> None:
        if connection.closed:
            return  # closed while in flight: lost with the connection
        host = self.host
        nic = host.nic
        nic.rx_bytes += message.size_bytes
        nic.rx_messages += 1
        if self.handler is not None:
            self.handler(message, connection)
            return
        cm = self.costs
        host.charge(cm.stage_cpu_per_msg_s)
        if message.kind == "collect_req":
            # The live wire's record shape: the receiver knows the sender,
            # and judges the sample (a negative or non-finite one is
            # refused there and counted, not raised here).
            data_iops, metadata_iops = self.source.sample(self.stage_id, self.env.now)
            self.requests_served += 1
            connection.send(
                self,
                "metrics_reply",
                (message.payload, data_iops, metadata_iops),
                cm.metrics_reply_bytes,
                extra_delay=cm.stage_service_s,
            )
        elif message.kind == "rule":
            epoch, data_limit, metadata_limit = message.payload
            if epoch > self.applied_epoch:
                self.applied_epoch = epoch
                self.applied_data_limit = data_limit
                self.applied_metadata_limit = metadata_limit
                self.rules_applied += 1
                self._apply(data_limit, metadata_limit)
            else:
                self.rules_ignored_stale += 1
            connection.send(
                self,
                "rule_ack",
                epoch,
                cm.ack_bytes,
                extra_delay=cm.stage_service_s,
            )
        # Unknown kinds are silently dropped (virtual stages are passive).

    def _apply(self, data_limit: float, metadata_limit: float) -> None:
        """Hook for subclasses (the full stage wires its token buckets)."""

    @property
    def applied_rule(self) -> Optional[EnforcementRule]:
        """The rule in force, built on each read (``None`` before the
        first)."""
        if self.applied_epoch < 0:
            return None
        return EnforcementRule(
            self.stage_id,
            self.applied_epoch,
            self.applied_data_limit,
            self.applied_metadata_limit,
        )

    @property
    def current_limit(self) -> float:
        """The enforced data IOPS limit (inf before any rule arrives)."""
        return self.applied_data_limit
