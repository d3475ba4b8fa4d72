"""Metrics registry: labeled counters, gauges, and histograms.

Zero-dependency, Prometheus-flavoured.  Instruments are plain objects that
exist whether or not a registry is installed — that is what lets the
engine's statistics classes (:class:`~repro.storage.disk.IOStats`,
:class:`~repro.storage.buffer.BufferPool`,
:class:`~repro.optimizer.apriori.AprioriStats`) keep their public fields as
*thin views* over instruments: the fields are properties reading the same
objects the registry exposes.  Installing a registry
(:func:`install` / :func:`use`) makes newly constructed stat holders
register their instruments, so one :meth:`MetricsRegistry.expose_text`
dump shows every live series.

For tests, :meth:`MetricsRegistry.snapshot` captures every series as a flat
``{"name{label=value}": number}`` dict and
:meth:`MetricsRegistry.diff` reports what changed.
"""

from __future__ import annotations

import json
import os
import threading
from bisect import bisect_left
from contextlib import contextmanager
from pathlib import Path
from typing import Mapping

__all__ = ["SCHEMA_VERSION", "Counter", "Gauge", "Histogram",
           "MetricsRegistry", "StatFields", "read_snapshot", "install",
           "uninstall", "use", "CURRENT"]

#: Version of the JSON snapshot-document schema written by
#: :meth:`MetricsRegistry.write_snapshot`.  Documents carry it as ``"v"``;
#: a bare flat ``{"series": value}`` object (no ``"v"``) is the pre-version
#: legacy form and is read as v0 by :func:`read_snapshot`.
SCHEMA_VERSION = 1

#: The process-global registry; ``None`` means metrics collection is off.
CURRENT: "MetricsRegistry | None" = None


def _label_key(labels: Mapping[str, str]) -> tuple:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _render_labels(labels: Mapping[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{k}="{v}"' for k, v in sorted(labels.items()))
    return "{" + inner + "}"


class Counter:
    """A monotonically increasing (by convention) numeric series."""

    kind = "counter"

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: Mapping[str, str] | None = None,
                 value: float = 0):
        self.name = name
        self.labels = dict(labels or {})
        self.value = value

    def inc(self, n: float = 1) -> None:
        self.value += n

    def series(self) -> list[tuple[str, dict, float]]:
        return [(self.name, self.labels, self.value)]

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name}{_render_labels(self.labels)}={self.value})"


class Gauge(Counter):
    """A series that can go up and down (or be set directly)."""

    kind = "gauge"

    __slots__ = ()

    def set(self, v: float) -> None:
        self.value = v

    def dec(self, n: float = 1) -> None:
        self.value -= n


class StatFields:
    """Base for stat holders whose public fields are *thin views* over
    instruments: a subclass names its fields in ``_COUNTERS`` / ``_GAUGES``
    and calls :meth:`_init_stats` when constructed; each field then reads
    and writes the ``.value`` of the instrument kept in ``_<field>`` — the
    very object :meth:`bind` hands to a registry."""

    __slots__ = ()
    _COUNTERS: tuple[str, ...] = ()
    _GAUGES: tuple[str, ...] = ()

    def __init_subclass__(cls, **kw):
        super().__init_subclass__(**kw)

        def view(attr: str) -> property:
            def fget(self):
                return getattr(self, attr).value

            def fset(self, value):
                getattr(self, attr).value = value

            return property(fget, fset)

        for field in cls._COUNTERS + cls._GAUGES:
            setattr(cls, field, view("_" + field))

    def _init_stats(self, prefix: str) -> None:
        for f in self._COUNTERS:
            setattr(self, "_" + f, Counter(prefix + f))
        for f in self._GAUGES:
            setattr(self, "_" + f, Gauge(prefix + f))

    def bind(self, registry: "MetricsRegistry", **labels) -> None:
        """Adopt this holder's instruments into ``registry`` under ``labels``."""
        for f in self._COUNTERS + self._GAUGES:
            inst = getattr(self, "_" + f)
            inst.labels = dict(labels)
            registry.register(inst)


class Histogram:
    """Cumulative-bucket histogram (Prometheus style).

    ``buckets`` are the inclusive upper bounds of the finite buckets; an
    implicit ``+Inf`` bucket always exists.  Exposed series are
    ``name_bucket{le=...}``, ``name_sum`` and ``name_count``.
    """

    kind = "histogram"

    DEFAULT_BUCKETS = (0.0001, 0.001, 0.01, 0.1, 1.0, 10.0)

    __slots__ = ("name", "labels", "buckets", "counts", "sum", "count",
                 "_lock")

    def __init__(self, name: str, labels: Mapping[str, str] | None = None,
                 buckets: tuple[float, ...] | None = None):
        self.name = name
        self.labels = dict(labels or {})
        self.buckets = tuple(sorted(buckets or self.DEFAULT_BUCKETS))
        self.counts = [0] * (len(self.buckets) + 1)  # +Inf last
        self.sum = 0.0
        self.count = 0
        self._lock = threading.Lock()

    def observe(self, v: float) -> None:
        with self._lock:
            self.sum += v
            self.count += 1
            # First bound >= v; past the last one is the +Inf bucket.
            self.counts[bisect_left(self.buckets, v)] += 1

    def quantile(self, q: float) -> float | None:
        """Estimate the ``q``-quantile (Prometheus ``histogram_quantile``).

        Linear interpolation inside the bucket holding rank ``q * count``;
        the first finite bucket interpolates from 0, and ranks landing in
        the ``+Inf`` bucket clamp to the largest finite bound (the estimate
        a scrape-side ``histogram_quantile`` would report).  Returns
        ``None`` for an empty histogram.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile {q} outside [0, 1]")
        with self._lock:
            total = self.count
            counts = list(self.counts)
        if total == 0:
            return None
        rank = q * total
        cum = 0
        lower = 0.0
        for le, c in zip(self.buckets, counts):
            prev = cum
            cum += c
            if cum >= rank and c > 0:
                frac = (rank - prev) / c
                return lower + (le - lower) * min(1.0, frac)
            lower = le
        return self.buckets[-1] if self.buckets else float("nan")

    def quantiles(self, qs: tuple[float, ...] = (0.5, 0.9, 0.99)
                  ) -> dict[str, float | None]:
        """``{"p50": ..., "p90": ..., "p99": ...}`` estimates per ``qs``."""
        return {f"p{q * 100:g}": self.quantile(q) for q in qs}

    def series(self) -> list[tuple[str, dict, float]]:
        out = []
        cum = 0
        for le, c in zip(self.buckets, self.counts):
            cum += c
            out.append((f"{self.name}_bucket", {**self.labels, "le": repr(le)},
                        cum))
        cum += self.counts[-1]
        out.append((f"{self.name}_bucket", {**self.labels, "le": "+Inf"}, cum))
        out.append((f"{self.name}_sum", self.labels, self.sum))
        out.append((f"{self.name}_count", self.labels, self.count))
        return out

    def __repr__(self) -> str:
        return (f"Histogram({self.name}{_render_labels(self.labels)}, "
                f"count={self.count}, sum={self.sum:.6g})")


class MetricsRegistry:
    """Holds labeled instrument series; get-or-create plus adoption.

    ``counter``/``gauge``/``histogram`` get-or-create a series owned by the
    registry.  ``register`` adopts an externally owned instrument (the
    thin-view pattern): an existing series with the same (name, labels) is
    replaced — "the newest holder owns the series".
    """

    def __init__(self):
        self._series: dict[tuple, Counter | Gauge | Histogram] = {}
        self._seq: dict[str, int] = {}
        # Concurrent executors (repro.service) register stat holders from
        # worker threads; registry mutations are serialized on this lock.
        self._lock = threading.RLock()

    # -- get-or-create -------------------------------------------------------

    def _get(self, cls, name: str, labels: Mapping[str, str], **kw):
        key = (name, _label_key(labels))
        with self._lock:
            inst = self._series.get(key)
            if inst is None or not isinstance(inst, cls):
                inst = self._series[key] = cls(name, labels, **kw)
            return inst

    def counter(self, name: str, **labels) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels) -> Gauge:
        return self._get(Gauge, name, labels)

    def histogram(self, name: str, buckets: tuple[float, ...] | None = None,
                  **labels) -> Histogram:
        key = (name, _label_key(labels))
        with self._lock:
            inst = self._series.get(key)
            if not isinstance(inst, Histogram):
                inst = self._series[key] = Histogram(name, labels, buckets)
            return inst

    def register(self, instrument: Counter | Gauge | Histogram
                 ) -> Counter | Gauge | Histogram:
        """Adopt an externally owned instrument (replaces same-keyed series).

        Re-registering the same object under new labels moves it: the old
        key is dropped, so a stat holder re-bound with better labels does
        not leave a stale duplicate series behind.
        """
        key = (instrument.name, _label_key(instrument.labels))
        with self._lock:
            stale = [k for k, v in self._series.items()
                     if v is instrument and k != key]
            for k in stale:
                del self._series[k]
            self._series[key] = instrument
            return instrument

    def seq(self, prefix: str) -> str:
        """A registry-scoped unique label value (``pool1``, ``pool2`` ...)."""
        with self._lock:
            n = self._seq.get(prefix, 0) + 1
            self._seq[prefix] = n
            return f"{prefix}{n}"

    # -- export --------------------------------------------------------------

    def instruments(self) -> list:
        with self._lock:
            return list(self._series.values())

    def expose_text(self) -> str:
        """Prometheus-style text exposition of every series."""
        with self._lock:
            series = dict(self._series)
        lines = []
        seen_types: set[str] = set()
        for key in sorted(series, key=lambda k: (k[0], k[1])):
            inst = series[key]
            if inst.name not in seen_types:
                lines.append(f"# TYPE {inst.name} {inst.kind}")
                seen_types.add(inst.name)
            for name, labels, value in inst.series():
                if isinstance(value, float) and value.is_integer():
                    value = int(value)
                lines.append(f"{name}{_render_labels(labels)} {value}")
        return "\n".join(lines) + ("\n" if lines else "")

    def snapshot(self) -> dict[str, float]:
        """Flat ``{"name{label=value}": number}`` view of every series."""
        out: dict[str, float] = {}
        for inst in self.instruments():
            for name, labels, value in inst.series():
                out[f"{name}{_render_labels(labels)}"] = value
        return out

    def quantiles(self, qs: tuple[float, ...] = (0.5, 0.9, 0.99)
                  ) -> dict[str, dict[str, float | None]]:
        """Per-histogram quantile estimates, keyed like :meth:`snapshot`.

        ``{"name{label=value}": {"p50": ..., "p90": ..., "p99": ...}}`` for
        every non-empty histogram series.
        """
        out: dict[str, dict[str, float | None]] = {}
        for inst in self.instruments():
            if isinstance(inst, Histogram) and inst.count:
                out[f"{inst.name}{_render_labels(inst.labels)}"] = \
                    inst.quantiles(qs)
        return out

    def snapshot_doc(self) -> dict:
        """Versioned JSON-serializable snapshot document.

        The ``series`` member is exactly :meth:`snapshot`; ``"v"`` is
        :data:`SCHEMA_VERSION` so offline readers can detect format drift.
        ``quantiles`` (additive, same schema version — v1 readers ignore
        unknown members) carries p50/p90/p99 estimates per histogram.
        """
        return {"v": SCHEMA_VERSION, "kind": "repro.metrics.snapshot",
                "series": self.snapshot(), "quantiles": self.quantiles()}

    def write_snapshot(self, path: str | os.PathLike) -> None:
        """Write :meth:`snapshot_doc` as JSON; pair with :func:`read_snapshot`."""
        Path(path).write_text(json.dumps(self.snapshot_doc(), indent=2,
                                         sort_keys=True) + "\n")

    def diff(self, before: Mapping[str, float]) -> dict[str, float]:
        """Per-series delta versus an earlier :meth:`snapshot` (zero deltas
        and vanished series omitted; new series count from zero)."""
        now = self.snapshot()
        out = {}
        for key, value in now.items():
            delta = value - before.get(key, 0)
            if delta:
                out[key] = delta
        return out

    def __repr__(self) -> str:
        return f"MetricsRegistry({len(self._series)} series)"


def read_snapshot(path: str | os.PathLike) -> dict[str, float]:
    """Read a metrics snapshot file back into the flat series dict.

    Tolerant across formats: a versioned :meth:`MetricsRegistry.snapshot_doc`
    document (``"v"`` ≤ :data:`SCHEMA_VERSION`), the legacy flat
    ``{"name{labels}": value}`` JSON object (read as v0), or a
    Prometheus-style text exposition (``expose_text`` output).  A document
    from a *newer* writer raises ``ValueError`` instead of misparsing.
    """
    text = Path(path).read_text()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError:
        return _parse_exposition(text)
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: not a metrics snapshot (JSON {type(doc).__name__})")
    if "series" in doc and isinstance(doc["series"], dict):
        v = doc.get("v", 0)
        if not isinstance(v, int) or v > SCHEMA_VERSION:
            raise ValueError(
                f"{path}: snapshot schema v{v} is newer than this reader "
                f"(supports <= v{SCHEMA_VERSION})")
        return {str(k): float(x) for k, x in doc["series"].items()}
    # Legacy flat form: every value must already be a number.
    if any(not isinstance(x, (int, float)) for x in doc.values()):
        raise ValueError(f"{path}: not a metrics snapshot")
    return {str(k): float(x) for k, x in doc.items()}


def _parse_exposition(text: str) -> dict[str, float]:
    """Parse Prometheus text exposition back into a flat series dict."""
    out: dict[str, float] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        name, _, value = line.rpartition(" ")
        if not name:
            raise ValueError(f"exposition line {lineno}: {line!r}")
        try:
            out[name] = float(value)
        except ValueError as err:
            raise ValueError(f"exposition line {lineno}: {line!r}") from err
    return out


# -- global installation -------------------------------------------------------


def install(registry: MetricsRegistry | None = None) -> MetricsRegistry:
    """Make ``registry`` (or a fresh one) the process-global registry."""
    global CURRENT
    CURRENT = registry if registry is not None else MetricsRegistry()
    return CURRENT


def uninstall() -> None:
    global CURRENT
    CURRENT = None


@contextmanager
def use(registry: MetricsRegistry | None):
    """Scoped install: restores the previous registry (or None) on exit."""
    global CURRENT
    prev = CURRENT
    CURRENT = registry
    try:
        yield registry
    finally:
        CURRENT = prev
