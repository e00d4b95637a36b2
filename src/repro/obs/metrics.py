"""Metrics registry with Prometheus text exposition.

Counters, gauges, and latency histograms (reusing the fixed-memory
log-bucketed :class:`~repro.monitoring.histogram.LatencyHistogram`)
registered by name+labels, rendered in the Prometheus text format, and
optionally served at ``GET /metrics`` by :class:`MetricsServer`, a
one-route handler on the service tier's HTTP server, so a live
controller run can be scraped while it cycles.

The registry is process-local and lock-free (asyncio is single-threaded
here); metric families are created on first use::

    registry = MetricsRegistry()
    registry.counter("cycles_total", role="global").inc()
    registry.histogram("cycle_seconds", role="global").observe(0.012)
    print(registry.render())
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

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

    def series(self, kind: str) -> List[Tuple[str, str, Dict[str, str], Any]]:
        """Every series of ``kind`` (``"counter"``, ``"gauge"``,
        ``"histogram"``) as ``(name, help, labels, metric)`` — what one
        process ships to merge into another's registry."""
        return [
            (name, help_text, dict(key), metric)
            for name, (family_kind, help_text, series) in self._families.items()
            if family_kind == kind
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
    """``GET /metrics`` for scraping a live run; 404 elsewhere.

    A one-route handler on :class:`repro.service.http.HttpServer`, so the
    parse caps are that server's. Binds ``host:port`` (port 0 picks an
    ephemeral port, exposed via :attr:`port` after :meth:`start`).
    Intended for scraping a live run, not for the internet.
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
        self._http = None

    async def start(self) -> None:
        """Begin serving; ``self.port`` holds the bound port."""
        # Imported here: ``repro.service`` imports the live plane, which
        # imports this module.
        from repro.service.http import HttpServer

        self._http = HttpServer(self._handle, self.host, self.port)
        await self._http.start()
        self.port = self._http.port

    async def stop(self) -> None:
        if self._http is not None:
            await self._http.stop()
            self._http = None

    async def _handle(self, request):
        from repro.service.http import HttpResponse

        if request.method == "GET" and request.path in ("/metrics", "/"):
            return HttpResponse(200, text=self.registry.render())
        return HttpResponse(404, text="not found\n")
