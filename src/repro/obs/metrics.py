"""Metrics registry with Prometheus text exposition.

Counters, gauges, and latency histograms (reusing the fixed-memory
log-bucketed :class:`~repro.monitoring.histogram.LatencyHistogram`)
registered by name+labels, rendered in the Prometheus text format, and
optionally served by a tiny asyncio HTTP endpoint (``GET /metrics``) so
a live controller run can be scraped while it cycles.

The registry is process-local and lock-free (asyncio is single-threaded
here); metric families are created on first use::

    registry = MetricsRegistry()
    registry.counter("cycles_total", role="global").inc()
    registry.histogram("cycle_seconds", role="global").observe(0.012)
    print(registry.render())
"""

from __future__ import annotations

import asyncio
from typing import Dict, List, Optional, Tuple

from repro.monitoring.histogram import LatencyHistogram

__all__ = ["Counter", "Gauge", "HistogramMetric", "MetricsRegistry", "MetricsServer"]

_LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Dict[str, str]) -> _LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _label_text(key: _LabelKey, extra: Optional[Tuple[str, str]] = None) -> str:
    pairs = list(key)
    if extra is not None:
        pairs = pairs + [extra]
    if not pairs:
        return ""
    return "{" + ",".join(f'{k}="{v}"' for k, v in pairs) + "}"


class Counter:
    """Monotonically increasing count (Prometheus ``counter``)."""

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counters only increase: {amount}")
        self.value += amount


class Gauge:
    """A value that can go up and down (Prometheus ``gauge``)."""

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount


class HistogramMetric:
    """Latency distribution backed by :class:`LatencyHistogram`."""

    def __init__(self, histogram: Optional[LatencyHistogram] = None) -> None:
        self.histogram = histogram or LatencyHistogram()

    def observe(self, value_s: float) -> None:
        self.histogram.record(value_s)


class MetricsRegistry:
    """Named metric families, each keyed by a label set."""

    def __init__(self) -> None:
        self._families: Dict[str, Tuple[str, str, Dict[_LabelKey, object]]] = {}

    def _family(self, name: str, kind: str, help_text: str) -> Dict[_LabelKey, object]:
        if name in self._families:
            existing_kind, _, series = self._families[name]
            if existing_kind != kind:
                raise ValueError(
                    f"metric {name!r} already registered as {existing_kind}"
                )
            return series
        series: Dict[_LabelKey, object] = {}
        self._families[name] = (kind, help_text, series)
        return series

    def counter(self, name: str, help: str = "", **labels: str) -> Counter:
        """The counter for ``name`` + ``labels`` (created on first use)."""
        series = self._family(name, "counter", help)
        key = _label_key(labels)
        if key not in series:
            series[key] = Counter()
        return series[key]  # type: ignore[return-value]

    def gauge(self, name: str, help: str = "", **labels: str) -> Gauge:
        """The gauge for ``name`` + ``labels`` (created on first use)."""
        series = self._family(name, "gauge", help)
        key = _label_key(labels)
        if key not in series:
            series[key] = Gauge()
        return series[key]  # type: ignore[return-value]

    def histogram(
        self,
        name: str,
        help: str = "",
        histogram: Optional[LatencyHistogram] = None,
        **labels: str,
    ) -> HistogramMetric:
        """The histogram for ``name`` + ``labels`` (created on first use)."""
        series = self._family(name, "histogram", help)
        key = _label_key(labels)
        if key not in series:
            series[key] = HistogramMetric(histogram)
        return series[key]  # type: ignore[return-value]

    def counters(self) -> List[Tuple[str, str, Dict[str, str], Counter]]:
        """Every counter as ``(name, help, labels, counter)`` — what one
        process ships to merge into another's registry."""
        return [
            (name, help_text, dict(key), metric)
            for name, (kind, help_text, series) in self._families.items()
            if kind == "counter"
            for key, metric in series.items()
        ]

    def render(self) -> str:
        """Prometheus text exposition of every registered metric."""
        lines: List[str] = []
        for name in sorted(self._families):
            kind, help_text, series = self._families[name]
            if help_text:
                lines.append(f"# HELP {name} {help_text}")
            lines.append(f"# TYPE {name} {kind}")
            for key in sorted(series):
                metric = series[key]
                if kind in ("counter", "gauge"):
                    lines.append(f"{name}{_label_text(key)} {metric.value}")
                    continue
                hist = metric.histogram  # type: ignore[union-attr]
                cumulative = 0
                for upper, count in hist.nonzero_buckets():
                    cumulative += count
                    lines.append(
                        f"{name}_bucket"
                        f"{_label_text(key, ('le', format(upper, '.6g')))}"
                        f" {cumulative}"
                    )
                lines.append(
                    f"{name}_bucket{_label_text(key, ('le', '+Inf'))} {hist.total}"
                )
                lines.append(f"{name}_sum{_label_text(key)} {hist.mean * hist.total}")
                lines.append(f"{name}_count{_label_text(key)} {hist.total}")
        return "\n".join(lines) + "\n"


class MetricsServer:
    """Minimal asyncio HTTP endpoint serving ``GET /metrics``.

    Binds ``host:port`` (port 0 picks an ephemeral port, exposed via
    :attr:`port` after :meth:`start`) and answers every request with the
    registry's current text exposition; anything but ``GET /metrics``
    gets a 404. Intended for scraping a live run, not for the internet.
    """

    def __init__(
        self,
        registry: MetricsRegistry,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.registry = registry
        self.host = host
        self.port = port
        self._server: Optional[asyncio.AbstractServer] = None

    async def start(self) -> None:
        """Begin serving; ``self.port`` holds the bound port."""
        self._server = await asyncio.start_server(
            self._on_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def _on_connection(self, reader, writer) -> None:
        try:
            request = await asyncio.wait_for(reader.readline(), timeout=5.0)
            # Drain remaining headers until the blank line.
            while True:
                line = await asyncio.wait_for(reader.readline(), timeout=5.0)
                if line in (b"\r\n", b"\n", b""):
                    break
            parts = request.decode("latin-1").split()
            if len(parts) >= 2 and parts[0] == "GET" and parts[1] in ("/metrics", "/"):
                body = self.registry.render().encode("utf-8")
                status = b"200 OK"
                content_type = b"text/plain; version=0.0.4; charset=utf-8"
            else:
                body = b"not found\n"
                status = b"404 Not Found"
                content_type = b"text/plain; charset=utf-8"
            writer.write(
                b"HTTP/1.1 " + status + b"\r\n"
                b"Content-Type: " + content_type + b"\r\n"
                b"Content-Length: " + str(len(body)).encode("ascii") + b"\r\n"
                b"Connection: close\r\n\r\n" + body
            )
            await writer.drain()
        except (asyncio.TimeoutError, ConnectionError, OSError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover - teardown
                pass
