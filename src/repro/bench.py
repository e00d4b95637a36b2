"""Fixed-seed micro-benchmark suite behind ``python -m repro bench``.

Freezes the PR 5 hot-path numbers into a machine-readable artefact
(``BENCH_PR5.json`` at the repo root) so perf claims are reproducible
and CI can catch regressions. Three suites:

``engine``
    Raw event-kernel throughput on the *burst* workload (a zero-delay
    cascade racing a deep backlog of far-future timers — the shape of a
    loaded control plane). The live kernel is compared against
    :mod:`repro.simnet._engine_baseline`, a verbatim copy of the
    pre-fast-path engine, in the same process and run.

``sim_cycles``
    Wall-clock seconds per simulated control cycle for the flat and
    hierarchical designs at 400 and 800 nodes — the end-to-end number a
    user feels, and the one CI guards (fail when a cycle gets more than
    2x slower than the committed baseline).

``live``
    Enforce-phase frame throughput over a real localhost TCP socket:
    per-stage ``rule`` frames down, ``rule_ack`` frames back. The
    baseline leg runs the seed wire path (JSON codec, one write per
    frame); the optimized leg runs the PR 5 path (binary fast-codec,
    one coalesced write per phase). Both legs run back to back in the
    same process, so the ratio is load-independent even when absolute
    numbers are not.

``shard``
    The PR 6 suite: mean control-cycle latency of the multi-process
    sharded plane (:mod:`repro.shard`) at a 1→N worker scaling curve,
    each leg paired with a single-process ``run_live_hierarchical``
    baseline on the *same* tree shape (N aggregators, same stages).
    The curve is only expected to bend past 1x on a multi-core host;
    CI (which may run on one core) gates only the 1-worker leg against
    the committed baseline artefact.

``store``
    The PR 7 durability suite: WAL append throughput with group-commit
    fsync batching (baseline = one fsync per record, the naive durable
    write) and the cold-restore latency of a store recovered from
    snapshot + WAL replay — the time a crashed control plane spends
    before it can issue its first post-restart epoch.

``compute``
    The PR 10 columnar suite: compute-phase throughput (observe every
    stage + allocate) at 1k and 10k stages, scalar dict state
    (:class:`~repro.core.compute.ScalarComputeState`, the retained
    reference path) vs :class:`~repro.core.columnar.StageColumns` +
    :class:`~repro.core.compute.ColumnarCompute` in the same run, with
    the two sides' allocation vectors asserted bit-equal before timing
    starts. The 10k-stage columnar row is regression-gated by CI.

``shootout``
    The PR 9 controller-brain race (:mod:`repro.core.shootout`): PSFA,
    the PID feedback loop, the PADLL-style metadata throttler, and the
    demand-blind baselines replay identical seeded traces — a mid-run
    demand burst and a metadata storm — and are scored on convergence
    cycles, Jain fairness, overshoot vs. the capacity line, utilization,
    and storm containment. Fully deterministic for the committed seed,
    so the winner table is CI-checkable; ``speedup`` is the containment
    ratio ``storm_share(psfa) / storm_share(padll)`` — what the
    per-tenant metadata cap buys over plain water-fill in one number.

Every suite reports a ``speedup`` measured against a baseline captured
in the *same run* — never against numbers frozen on other hardware —
and stamps the host it ran on (``cpu_count``, ``hostname``) so
artefacts from different machines are never silently compared as
equals. The JSON schema is documented in DESIGN.md ("Performance"
section); ``repro-bench/2`` moved the ``sim_cycles`` configurations
under a ``legs`` key to make room for the host stamp.
"""

from __future__ import annotations

import asyncio
import json
import os
import socket
import time
from typing import Dict, Optional

__all__ = ["SCHEMA", "check_regression", "load_artifact", "run_bench"]

#: Schema tag stamped into the artefact; bump on layout changes.
SCHEMA = "repro-bench/2"
#: Schemas :func:`load_artifact` still reads (older committed baselines
#: remain checkable; gating tolerates keys a schema predates).
COMPAT_SCHEMAS = ("repro-bench/1", "repro-bench/2")


def _host_stamp() -> Dict[str, object]:
    """The per-suite host stamp (who produced these numbers)."""
    return {
        "cpu_count": float(os.cpu_count() or 1),
        "hostname": socket.gethostname(),
    }


# -- suite 1: event kernel ------------------------------------------------------


def _burst(env_cls, n_events: int, actors: int = 4, backlog: int = 2000) -> float:
    """Events/second for a zero-delay cascade over a deep timer backlog."""
    env = env_cls()
    for i in range(backlog):
        env.timeout(1000.0 + i)  # far-future noise the heap must carry

    def worker(env, k):
        for _ in range(k):
            yield env.timeout(0.0)

    for _ in range(actors):
        env.process(worker(env, n_events // actors))
    t0 = time.perf_counter()
    env.run(until=500.0)
    dt = time.perf_counter() - t0
    return env.processed_events / dt


def bench_engine(quick: bool = False) -> Dict[str, float]:
    """Burst throughput: live kernel vs the vendored pre-PR baseline.

    Legs are interleaved and the best of ``trials`` kept per side, so
    CPU-frequency and scheduler noise cannot charge a slow moment to
    one kernel but not the other.
    """
    from repro.simnet import _engine_baseline
    from repro.simnet import engine

    n = 40_000 if quick else 200_000
    trials = 2 if quick else 3
    # Interleave a warmup pass so neither side pays first-touch costs.
    _burst(engine.Environment, n // 10)
    _burst(_engine_baseline.Environment, n // 10)
    baseline, fast = 0.0, 0.0
    for _ in range(trials):
        baseline = max(baseline, _burst(_engine_baseline.Environment, n))
        fast = max(fast, _burst(engine.Environment, n))
    return {
        "workload": "burst",
        "events": float(n),
        "baseline_events_per_s": baseline,
        "events_per_s": fast,
        "speedup": fast / baseline,
        **_host_stamp(),
    }


# -- suite 2: simulated control cycles ------------------------------------------


def _sim_cycle_wall(design: str, nodes: int, cycles: int, trials: int) -> float:
    """Wall seconds per simulated control cycle for one configuration.

    Times the experiment at one cycle and at ``cycles + 1`` cycles and
    divides the *difference* by ``cycles``, so the one-off setup cost
    (building the simulated network) cancels out. Each endpoint is the
    minimum over ``trials`` runs — a stable lower-bound estimate of its
    true cost — and the difference is taken once between those minima;
    taking the minimum of per-trial differences instead would be biased
    low whenever a slow moment landed on the one-cycle run.
    """
    from repro.harness.experiment import (
        run_flat_experiment,
        run_hierarchical_experiment,
    )

    def wall(n_cycles: int) -> float:
        t0 = time.perf_counter()
        if design == "flat":
            run_flat_experiment(nodes, cycles=n_cycles, repeats=1)
        else:
            run_hierarchical_experiment(nodes, 4, cycles=n_cycles, repeats=1)
        return time.perf_counter() - t0

    base = min(wall(1) for _ in range(trials))
    full = min(wall(cycles + 1) for _ in range(trials))
    return max(full - base, 0.0) / cycles


def bench_sim_cycles(quick: bool = False) -> Dict[str, Dict[str, float]]:
    """Wall-clock per simulated cycle, flat and hier, 400 and 800 nodes.

    The cycle count is the same in quick and full mode so artefacts stay
    comparable (the quick CI run is checked against the committed
    full-size baseline); quick mode only sheds a trial.
    """
    cycles = 6
    trials = 2 if quick else 3
    legs: Dict[str, Dict[str, float]] = {}
    for design in ("flat", "hier"):
        for nodes in (400, 800):
            wall = _sim_cycle_wall(design, nodes, cycles, trials)
            legs[f"{design}_{nodes}"] = {
                "nodes": float(nodes),
                "cycles": float(cycles),
                "wall_s_per_cycle": wall,
            }
    return {"workload": "simulated control cycles", "legs": legs, **_host_stamp()}


# -- suite 3: live enforce-phase wire path --------------------------------------


async def _ack_server(codec: str):
    """Echo a ``rule_ack`` per ``rule`` frame, like a stage's enforce leg."""
    from repro.live.protocol import FrameLink, frame_packer

    # A rule arrives as the record (kind, epoch, limit, metadata limit);
    # the id it names is not decoded, so every ack names one stage of
    # the same width.
    pack_ack = frame_packer("rule_ack", codec, "stage-00000")

    def accept() -> FrameLink:
        link = FrameLink()

        def on_rule(message, nbytes: int) -> None:
            if message[0] != "rule":
                link.close()
                return
            link.write(pack_ack(message[1]))

        link.on_frame = on_rule
        return link

    return await asyncio.get_running_loop().create_server(
        accept, host="127.0.0.1", port=0
    )


async def _enforce_leg(
    codec: str, coalesce: bool, cached: bool, n_stages: int, n_cycles: int
) -> float:
    """Frames/second for an enforce-phase-shaped exchange on one socket.

    One cycle = ``n_stages`` ``rule`` frames out, ``n_stages``
    ``rule_ack`` frames back (written first, gathered after — the real
    enforce phase's shape). ``cached=True`` models the controller's
    steady state, where an unchanged limit ships the pre-encoded frame
    from the (stage, rule-epoch) cache instead of re-encoding.
    """
    from repro.live.protocol import FrameLink, encode
    from repro.live.sessions import Session

    server = await _ack_server(codec)
    host, port = server.sockets[0].getsockname()[:2]
    loop = asyncio.get_running_loop()
    link = FrameLink()
    await loop.create_connection(lambda: link, host, port)
    session = Session("bench", link)
    session.codec = codec

    # All ``n_stages`` acks of a cycle come back on this one socket, so
    # they are counted off the link directly instead of through a phase
    # barrier (which expects one reply per session).
    outstanding = 0
    cycle_done: asyncio.Future = loop.create_future()

    def on_ack(message, nbytes: int) -> None:
        nonlocal outstanding
        outstanding -= 1
        if outstanding == 0:
            cycle_done.set_result(None)

    def on_lost(exc) -> None:
        if not cycle_done.done():
            cycle_done.set_exception(
                exc or ConnectionResetError("ack server closed the connection")
            )

    link.on_frame = on_ack
    link.on_lost = on_lost

    def rule(i: int) -> dict:
        return {
            "kind": "rule",
            "epoch": 0,
            "stage_id": f"stage-{i:05d}",
            "data_iops_limit": 1000.0 + i,
        }

    frames = [encode(rule(i), codec) for i in range(n_stages)]
    try:
        t0 = time.perf_counter()
        for _ in range(n_cycles):
            outstanding = n_stages
            cycle_done = loop.create_future()
            for i in range(n_stages):
                if cached:
                    session.feed_frame(frames[i])
                else:
                    session.feed(rule(i))
                if not coalesce:
                    await session.flush()
            if coalesce:
                await session.flush()
            await cycle_done
        dt = time.perf_counter() - t0
    finally:
        session.close()
        server.close()
        await server.wait_closed()
    return (2 * n_stages * n_cycles) / dt


def bench_live(quick: bool = False) -> Dict[str, float]:
    """Enforce-phase frames/s: seed wire path vs the PR 5 wire path.

    Baseline = the seed's behaviour (JSON codec, encode + write per
    frame). Optimized = binary fast-codec, steady-state frame cache,
    one buffered write per cycle. Legs are interleaved and
    the best of ``trials`` is kept per side — the standard micro-bench
    defence against CPU-frequency and scheduler noise — with the GC
    paused so collection pauses land on neither side.
    """
    import gc

    n_stages = 100 if quick else 200
    n_cycles = 10 if quick else 40
    trials = 2 if quick else 3

    async def both():
        # Warmup leg absorbs loop/socket first-touch costs.
        await _enforce_leg("json", False, False, n_stages, 2)
        baseline, optimized = 0.0, 0.0
        for _ in range(trials):
            baseline = max(
                baseline,
                await _enforce_leg("json", False, False, n_stages, n_cycles),
            )
            optimized = max(
                optimized,
                await _enforce_leg("binary", True, True, n_stages, n_cycles),
            )
        return baseline, optimized

    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        baseline, optimized = asyncio.run(both())
    finally:
        if gc_was_enabled:
            gc.enable()
    return {
        "workload": "enforce-phase frames",
        "stages": float(n_stages),
        "cycles": float(n_cycles),
        "baseline_frames_per_s": baseline,
        "frames_per_s": optimized,
        "speedup": optimized / baseline,
        **_host_stamp(),
    }


# -- suite 4: multi-process shard scaling ----------------------------------------


def bench_shard(quick: bool = False) -> Dict:
    """1→N worker scaling of the sharded plane vs single-process runs.

    Each worker count N gets two legs on the same tree shape — N
    aggregators, the same stage fleet, the same codec/coalescing — so
    ``speedup`` isolates exactly one variable: whether the aggregator
    subtrees run as spawned processes or share the parent's event loop.
    Mean cycle latency is taken after warmup (the registration storm
    and first-epoch cache fills land there).
    """
    from repro.live.harness import run_live_hierarchical
    from repro.shard import run_live_sharded

    n_stages = 24 if quick else 48
    n_cycles = 8 if quick else 16
    worker_counts = (1, 2) if quick else (1, 2, 4)

    legs: Dict[str, Dict[str, float]] = {}
    for workers in worker_counts:
        single = run_live_hierarchical(
            n_stages=n_stages,
            n_aggregators=workers,
            n_cycles=n_cycles,
            codec="binary",
        )
        sharded = run_live_sharded(
            n_stages=n_stages,
            n_workers=workers,
            n_cycles=n_cycles,
            codec="binary",
        )
        single_s = single.stats().mean_ms / 1e3
        sharded_s = sharded.stats().mean_ms / 1e3
        legs[str(workers)] = {
            "workers": float(workers),
            "single_process_cycle_s": single_s,
            "sharded_cycle_s": sharded_s,
            "speedup": single_s / sharded_s if sharded_s > 0 else 0.0,
            "degraded_cycles": float(sharded.degraded_cycles),
        }
    return {
        "workload": "sharded control plane scaling",
        "stages": float(n_stages),
        "cycles": float(n_cycles),
        "legs": legs,
        **_host_stamp(),
    }


# -- suite 5: durable store ------------------------------------------------------


def bench_store(quick: bool = False) -> Dict:
    """WAL append throughput (fsync batching vs per-record) + cold restore.

    The append legs write identical cycle-shaped records to fresh WALs
    in a temporary directory: the baseline leg fsyncs every record (the
    naive durable write), the optimized leg rides the group-commit batch
    (``fsync_every``) the service tier actually uses, with one final
    ``sync()`` so both legs end fully durable. ``restore_s`` then
    measures a cold :class:`~repro.store.DurableStore` recovery —
    snapshot load + replay of a WAL tail — which bounds how long a
    crashed control plane stays dark before it can lease its first
    post-restart epoch.
    """
    import shutil
    import tempfile

    from repro.store import DurableStore, WriteAheadLog

    n_records = 2_000 if quick else 10_000
    fsync_every = 64
    n_tenants = 20
    tail_cycles = 500 if quick else 2_000
    record = {"kind": "cycle", "epoch": 1, "n_stages": 48}

    workdir = tempfile.mkdtemp(prefix="repro-bench-store-")
    try:
        def append_leg(sync_each: bool) -> float:
            path = os.path.join(
                workdir, "wal-sync.log" if sync_each else "wal-batch.log"
            )
            wal = WriteAheadLog(path, fsync_every=fsync_every)
            t0 = time.perf_counter()
            for i in range(n_records):
                wal.append(dict(record, epoch=i), sync=sync_each)
            wal.sync()
            dt = time.perf_counter() - t0
            wal.close()
            return n_records / dt

        # Warmup absorbs first-touch filesystem costs, then interleave.
        append_leg(False)
        baseline, optimized = 0.0, 0.0
        for _ in range(2):
            baseline = max(baseline, append_leg(True))
            optimized = max(optimized, append_leg(False))

        # Cold restore: tenants in the snapshot, a cycle tail in the WAL.
        store_dir = os.path.join(workdir, "store")
        store = DurableStore(store_dir, fsync_every=fsync_every)
        for i in range(n_tenants):
            store.put_tenant(f"tenant-{i:03d}", f"Tenant {i}", float(i + 1))
        store.compact()
        store.lease_epochs(upto=tail_cycles)
        for epoch in range(1, tail_cycles + 1):
            store.record_cycle(epoch, n_stages=48)
        store.close()
        t0 = time.perf_counter()
        restored = DurableStore(store_dir, fsync_every=fsync_every)
        restore_s = time.perf_counter() - t0
        replayed = restored.replayed_records
        restored.close()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    return {
        "workload": "WAL append + cold restore",
        "records": float(n_records),
        "fsync_every": float(fsync_every),
        "baseline_appends_per_s": baseline,
        "appends_per_s": optimized,
        "speedup": optimized / baseline,
        "restore_s": restore_s,
        "restore_replayed_records": float(replayed),
        "restore_tenants": float(n_tenants),
        **_host_stamp(),
    }


# -- suite 6: overload guard ----------------------------------------------------


async def _bench_request(host: str, port: int, path: str) -> int:
    """One short-lived GET; returns the status code (-1 = transport error)."""
    try:
        reader, writer = await asyncio.open_connection(host, port)
        writer.write(
            f"GET {path} HTTP/1.1\r\nHost: {host}\r\n"
            "Connection: close\r\n\r\n".encode("ascii")
        )
        await writer.drain()
        status_line = await reader.readline()
        await reader.read()
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass
        parts = status_line.split()
        return int(parts[1]) if len(parts) >= 2 else -1
    except (ConnectionError, OSError, ValueError, asyncio.IncompleteReadError):
        return -1


async def _overload_leg(
    guarded: bool,
    load_factor: float,
    rate: float,
    tenant_rate: float,
    duration_s: float,
    work_s: float,
    sla_s: float,
) -> Dict:
    """One flood leg: an honest tenant vs a noisy neighbor at ``k×rate``.

    The handler serialises its work behind a lock — the single durable
    WAL pipeline every mutation really rides — so offered load beyond
    ``1/work_s`` builds a queue instead of magically parallelising.
    Every request is admitted as a tenant-attributed MUTATION (the
    registration-storm shape; per-tenant buckets only meter mutations).
    Goodput counts only 200s that completed within the SLA.
    """
    from repro.guard import AdmissionGate, Priority
    from repro.service.http import HttpResponse, HttpServer

    gate = (
        AdmissionGate(rate=rate, tenant_rate=tenant_rate, max_concurrency=64)
        if guarded
        else None
    )
    work_lock = asyncio.Lock()

    async def handler(request) -> HttpResponse:
        tenant = request.path.strip("/").split("/")[-1]
        if gate is not None:
            admission = gate.admit(Priority.MUTATION, tenant=tenant)
            if not admission.admitted:
                return HttpResponse(
                    admission.status, {"error": admission.reason}
                )
        try:
            async with work_lock:
                await asyncio.sleep(work_s)
            return HttpResponse(200, {"ok": True})
        finally:
            if gate is not None:
                gate.release()

    http = HttpServer(handler, host="127.0.0.1", port=0)
    await http.start()

    # Tallies: per-tenant offered / within-SLA 200s / sheds.
    counts = {
        "honest": {"offered": 0, "ok": 0, "shed": 0},
        "noisy": {"offered": 0, "ok": 0, "shed": 0},
    }
    client_sem = asyncio.Semaphore(256)
    tasks: list = []

    async def one(tenant: str) -> None:
        async with client_sem:
            t0 = time.perf_counter()
            status = await _bench_request(http.host, http.port, f"/t/{tenant}")
            latency = time.perf_counter() - t0
        if status == 200 and latency <= sla_s:
            counts[tenant]["ok"] += 1
        elif status in (429, 503):
            counts[tenant]["shed"] += 1

    async def offer(tenant: str, per_s: float) -> None:
        interval = 1.0 / per_s
        deadline = time.perf_counter() + duration_s
        while time.perf_counter() < deadline:
            counts[tenant]["offered"] += 1
            tasks.append(asyncio.ensure_future(one(tenant)))
            await asyncio.sleep(interval)

    try:
        # The honest tenant offers well under its bucket; the noisy
        # neighbor floods at load_factor × the global admission rate.
        await asyncio.gather(
            offer("honest", 0.4 * rate),
            offer("noisy", load_factor * rate),
        )
        # Drain the in-flight tail (it no longer counts toward goodput
        # past the SLA, but finishing cleanly keeps teardown quiet);
        # anything still stuck after the backstop is abandoned.
        done, pending = await asyncio.wait(tasks, timeout=5.0)
        for task in pending:
            task.cancel()
        if pending:
            await asyncio.gather(*pending, return_exceptions=True)
    finally:
        await http.stop()

    honest, noisy = counts["honest"], counts["noisy"]
    total_ok = honest["ok"] + noisy["ok"]
    return {
        "offered": float(honest["offered"] + noisy["offered"]),
        "honest_offered": float(honest["offered"]),
        "ok": float(total_ok),
        "honest_ok": float(honest["ok"]),
        "shed": float(honest["shed"] + noisy["shed"]),
        "goodput_per_s": total_ok / duration_s,
        "honest_attainment": (
            honest["ok"] / honest["offered"] if honest["offered"] else 0.0
        ),
        "honest_share": honest["ok"] / total_ok if total_ok else 0.0,
    }


def bench_overload(quick: bool = False) -> Dict:
    """Goodput + honest-tenant share under flood, with/without the guard.

    Six REST legs against a real :class:`~repro.service.http.HttpServer`:
    a noisy neighbor floods at 1×/5×/10× the admission rate while an
    honest tenant offers a steady 0.4× — once with the
    :class:`~repro.guard.AdmissionGate` in front of the handler, once
    without. The handler's work is serialised (the WAL-pipeline shape),
    so the unguarded legs queue without bound past saturation and the
    honest tenant's within-SLA attainment collapses with them; the
    guarded legs shed the flood at the door (429/503) and keep the
    honest tenant near 100%. ``speedup`` is the honest-attainment ratio
    guarded/unguarded on the 10× leg — the adversarial-tenant defense
    in one number.
    """
    rate = 100.0
    duration_s = 0.3 if quick else 0.8
    work_s = 0.002
    sla_s = 0.05
    loads = (1.0, 5.0, 10.0)

    async def run_all() -> Dict[str, Dict]:
        legs: Dict[str, Dict] = {}
        for load in loads:
            legs[f"{load:.0f}x"] = {
                "guarded": await _overload_leg(
                    True, load, rate, rate / 2, duration_s, work_s, sla_s
                ),
                "unguarded": await _overload_leg(
                    False, load, rate, rate / 2, duration_s, work_s, sla_s
                ),
            }
        return legs

    legs = asyncio.run(run_all())
    worst = legs[f"{loads[-1]:.0f}x"]
    floor = 1.0 / max(worst["unguarded"]["honest_offered"], 1.0)
    return {
        "workload": "REST flood: honest tenant vs noisy neighbor",
        "rate": rate,
        "tenant_rate": rate / 2,
        "duration_s": duration_s,
        "work_s": work_s,
        "sla_s": sla_s,
        "legs": legs,
        "speedup": (
            worst["guarded"]["honest_attainment"]
            / max(worst["unguarded"]["honest_attainment"], floor)
        ),
        **_host_stamp(),
    }


# -- suite 7: columnar compute phase --------------------------------------------


def _compute_leg(n_stages: int, phases: int, trials: int) -> Dict[str, float]:
    """Phases/second for one fleet size, scalar and columnar, same run.

    One *phase* is a full control cycle's state work: observe every
    stage's fresh report, then compute the allocation vector. The
    scalar side is :class:`~repro.core.compute.ScalarComputeState` +
    ``scalar_allocations`` — the retained reference with the pre-PR-10
    per-stage dict gathers; the columnar side scatters with
    ``observe_many`` and allocates through
    :class:`~repro.core.compute.ColumnarCompute`. Both sides replay
    the identical demand sequence in the identical row order, and the
    final allocation vectors are asserted bit-equal in-run, so the
    ratio can never come from computing something different.
    """
    import numpy as np

    from repro.core.algorithms.psfa import PSFA
    from repro.core.columnar import StageColumns
    from repro.core.compute import (
        ColumnarCompute,
        ScalarComputeState,
        scalar_allocations,
    )
    from repro.core.policies import QoSPolicy

    n_jobs = max(1, n_stages // 8)
    ids = [f"stage-{i:05d}" for i in range(n_stages)]
    jobs = [f"job-{i % n_jobs:05d}" for i in range(n_stages)]
    policy = QoSPolicy(pfs_capacity_iops=25.0 * n_stages)
    algorithm = PSFA()
    rng = np.random.default_rng(10)
    # A small rotation of demand vectors: every phase observes genuinely
    # new values (no side can skip the scatter), deterministically.
    demand_sets = [
        (rng.uniform(0.0, 1e4, n_stages), rng.uniform(0.0, 1e3, n_stages))
        for _ in range(4)
    ]

    scalar = ScalarComputeState()
    cols = StageColumns()
    for sid, jid in zip(ids, jobs):
        cols.register(sid, jid)
    compute = ColumnarCompute(cols)

    def scalar_phase(k: int):
        data, meta = demand_sets[k % len(demand_sets)]
        observe = scalar.observe
        for i, sid in enumerate(ids):
            observe(sid, data[i], meta[i])
        return scalar_allocations(scalar, ids, jobs, policy, algorithm)

    def columnar_phase(k: int):
        data, meta = demand_sets[k % len(demand_sets)]
        cols.observe_many(ids, data, meta)
        return compute.allocations(policy, algorithm)

    # Warmup: first-touch dict growth / row-map cache fills on neither
    # side's clock, and the equality assertion rides here.
    s_alloc, _ = scalar_phase(0)
    c_alloc, _ = columnar_phase(0)
    if not np.array_equal(s_alloc, c_alloc):
        raise AssertionError("scalar and columnar compute paths diverged")

    def best(phase_fn) -> float:
        top = 0.0
        for _ in range(trials):
            t0 = time.perf_counter()
            for k in range(phases):
                phase_fn(k + 1)
            top = max(top, phases / (time.perf_counter() - t0))
        return top

    scalar_pps = best(scalar_phase)
    columnar_pps = best(columnar_phase)
    return {
        "stages": float(n_stages),
        "jobs": float(n_jobs),
        "phases": float(phases),
        "scalar_phases_per_s": scalar_pps,
        "columnar_phases_per_s": columnar_pps,
        "speedup": columnar_pps / scalar_pps,
    }


def bench_compute(quick: bool = False) -> Dict:
    """Columnar vs scalar compute-phase throughput at 1k and 10k stages.

    The headline ``speedup`` is the 10k-stage ratio — the scale where
    the scalar per-stage gathers dominate the compute phase (ROADMAP
    item 5). Both fleet sizes run in quick mode too (fewer phases and
    trials) so the CI artefact keeps the ``10000`` leg the regression
    gate reads.
    """
    phases = 3 if quick else 6
    trials = 2 if quick else 3
    legs = {
        str(n): _compute_leg(n, phases, trials) for n in (1_000, 10_000)
    }
    return {
        "workload": "compute phase: observe + allocate, scalar vs columnar",
        "legs": legs,
        "speedup": legs["10000"]["speedup"],
        **_host_stamp(),
    }


# -- suite 8: controller-brain shootout -----------------------------------------


def bench_shootout(quick: bool = False) -> Dict:
    """Race every controller brain on identical seeded traces.

    Thin wrapper over :func:`repro.core.shootout.run_shootout` — the
    same racer behind ``examples/algorithm_shootout.py`` — so the bench
    artefact and the example can never drift apart. All scoring columns
    are deterministic for the committed seed (wall-clock is recorded but
    never decides a winner), which is what lets CI assert the winner
    table instead of a noisy latency. ``speedup`` is the metadata-storm
    containment ratio psfa/padll: how much less of the MDS budget the
    storming tenant holds once the PADLL-style per-tenant cap is on.
    """
    from repro.core.shootout import run_shootout

    result = run_shootout(cycles=24 if quick else 60)
    rows = result["contenders"]
    return {
        "workload": "seeded burst + metadata-storm traces, one per brain",
        "seed": result["seed"],
        "cycles": result["cycles"],
        "n_jobs": result["n_jobs"],
        "contenders": rows,
        "winners": result["winners"],
        "speedup": (
            rows["psfa"]["storm_share"]
            / max(rows["padll"]["storm_share"], 1e-12)
        ),
        **_host_stamp(),
    }


# -- entry points ---------------------------------------------------------------


def run_bench(quick: bool = False) -> Dict:
    """Run every suite; returns the artefact dict (see SCHEMA)."""
    return {
        "schema": SCHEMA,
        "quick": quick,
        "engine": bench_engine(quick),
        "sim_cycles": bench_sim_cycles(quick),
        "live": bench_live(quick),
        "shard": bench_shard(quick),
        "store": bench_store(quick),
        "overload": bench_overload(quick),
        "compute": bench_compute(quick),
        "shootout": bench_shootout(quick),
    }


def check_regression(
    current: Dict, baseline: Dict, max_cycle_ratio: float = 2.0
) -> Optional[str]:
    """Compare sim cycle latency against a committed baseline artefact.

    Returns a human-readable failure message when any configuration's
    wall-clock per cycle regressed by more than ``max_cycle_ratio``,
    else ``None``. Three suites are gated: ``sim_cycles`` (the least
    noisy on shared CI runners), the ``shard`` suite's 1-worker leg
    (the only leg whose latency is core-count-independent — the >1
    legs genuinely need parallel hardware, which CI does not promise),
    and the ``compute`` suite's 10k-stage columnar row (throughput must
    not fall below ``1/max_cycle_ratio`` of the committed baseline —
    the columnar hot path silently degrading back toward the scalar
    gather is exactly the regression this PR exists to prevent).
    Baselines predating a suite are tolerated: a key absent from the
    committed artefact is simply not gated, and ``repro-bench/1``
    artefacts (flat ``sim_cycles`` mapping, no ``legs`` key) are still
    understood.
    """
    failures = []
    for key, ref in _sim_legs(baseline).items():
        cur = _sim_legs(current).get(key)
        if cur is None:
            failures.append(f"{key}: missing from current run")
            continue
        ratio = cur["wall_s_per_cycle"] / ref["wall_s_per_cycle"]
        if ratio > max_cycle_ratio:
            failures.append(
                f"{key}: {cur['wall_s_per_cycle']:.4f}s/cycle is "
                f"{ratio:.2f}x the baseline "
                f"{ref['wall_s_per_cycle']:.4f}s/cycle "
                f"(limit {max_cycle_ratio:.1f}x)"
            )
    shard_ref = baseline.get("shard", {}).get("legs", {}).get("1")
    if shard_ref is not None:
        shard_cur = current.get("shard", {}).get("legs", {}).get("1")
        if shard_cur is None:
            failures.append("shard workers=1: missing from current run")
        else:
            ratio = (
                shard_cur["sharded_cycle_s"] / shard_ref["sharded_cycle_s"]
            )
            if ratio > max_cycle_ratio:
                failures.append(
                    f"shard workers=1: {shard_cur['sharded_cycle_s']:.4f}"
                    f"s/cycle is {ratio:.2f}x the baseline "
                    f"{shard_ref['sharded_cycle_s']:.4f}s/cycle "
                    f"(limit {max_cycle_ratio:.1f}x)"
                )
    compute_ref = baseline.get("compute", {}).get("legs", {}).get("10000")
    if compute_ref is not None:
        compute_cur = current.get("compute", {}).get("legs", {}).get("10000")
        if compute_cur is None:
            failures.append("compute 10000 stages: missing from current run")
        else:
            ratio = (
                compute_ref["columnar_phases_per_s"]
                / max(compute_cur["columnar_phases_per_s"], 1e-12)
            )
            if ratio > max_cycle_ratio:
                failures.append(
                    f"compute 10000 stages: "
                    f"{compute_cur['columnar_phases_per_s']:.2f} phases/s "
                    f"is {ratio:.2f}x slower than the baseline "
                    f"{compute_ref['columnar_phases_per_s']:.2f} phases/s "
                    f"(limit {max_cycle_ratio:.1f}x)"
                )
    if failures:
        return "cycle latency regression:\n" + "\n".join(
            f"  {f}" for f in failures
        )
    return None


def _sim_legs(doc: Dict) -> Dict:
    """The ``sim_cycles`` configurations of either schema generation.

    ``repro-bench/2`` nests them under ``legs``; ``repro-bench/1``
    stored them flat (every value a per-config dict).
    """
    suite = doc.get("sim_cycles", {})
    if "legs" in suite:
        return suite["legs"]
    return {k: v for k, v in suite.items() if isinstance(v, dict)}


def load_artifact(path: str) -> Dict:
    """Read a bench artefact, validating the schema tag.

    Any schema in :data:`COMPAT_SCHEMAS` is accepted so committed
    baselines survive a schema bump; truly unknown tags still fail
    loudly rather than being mis-gated.
    """
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("schema") not in COMPAT_SCHEMAS:
        raise ValueError(f"{path}: unknown bench schema {doc.get('schema')!r}")
    return doc
