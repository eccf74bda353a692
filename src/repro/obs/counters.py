"""Labelled counter registry, reconciled against :class:`IOReport`.

The storage substrate already keeps exact byte accounting in two
independent ledgers — per-kind (``Timeline._bytes_by_kind``, what
``IOReport.bytes_read``/``bytes_written`` report) and per-role
(``Timeline.bytes_by_role``, behind ``IOReport.bytes_by_role``).  This
module gives that accounting a queryable, exportable shape: a
:class:`CounterRegistry` is a flat map of ``(name, labels)`` to float
values, filled from the storage layer's own ``counter_samples()`` hooks
(:meth:`Device.counter_samples`, :meth:`VFS.counter_samples`,
:meth:`PageCache.counter_samples`) so there is exactly one source of
truth — the registry never re-counts bytes, it samples the ledgers the
simulation already maintains.

Because both ledgers feed the same registry, :meth:`reconcile` can check
them against each other *and* against an :class:`IOReport` bit-for-bit:
every device's role-sum must equal its kind-sum must equal the report's
totals.  The differential test suite runs this reconciliation on every
engine/graph/placement combination it fuzzes.

Counter names (see docs/observability.md):

* ``device_bytes_total{device,kind,role}`` — bytes moved per device, split
  by request kind (read/write) and stream role (edges/updates/stay/...).
* ``device_seeks_total{device}`` — non-sequential accesses charged.
* ``vfs_live_files`` / ``vfs_live_bytes`` — namespace occupancy (gauges).
* ``pagecache_{hit,miss}_bytes_total``, ``pagecache_resident_bytes``.
* ``engine_*_total{engine}`` — per-run counters ingested from an
  :class:`EngineResult` (edges scanned, partitions skipped, stay
  cancellations, ...).
* ``fault_<kind>_total{device}``, ``io_retries_total{device}``,
  ``io_giveups_total{device}``, ``crash_recoveries_total`` — fault
  injection and recovery counters sampled from the machine's
  :class:`~repro.storage.faults.FaultInjector` (when a fault plan is
  attached); these reconcile exactly with the ``io_retry``/``io_giveup``/
  ``crash`` spans in the trace.
* ``span_duration_seconds{stage}`` — **histograms** of span durations per
  span name, filled by :meth:`CounterRegistry.ingest_spans` from a trace.
"""

from __future__ import annotations

import bisect
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

LabelItems = Tuple[Tuple[str, str], ...]
CounterKey = Tuple[str, LabelItems]

#: Default bucket upper bounds for span-duration histograms (simulated
#: seconds); +Inf is implicit.  Spans range from sub-millisecond scatter
#: chunks at reduced scale to multi-minute paper-scale queries.
DEFAULT_DURATION_BUCKETS: Tuple[float, ...] = (
    0.0001, 0.001, 0.01, 0.1, 1.0, 10.0, 60.0, 600.0
)


def _key(name: str, labels: Dict[str, object]) -> CounterKey:
    return name, tuple(sorted((k, str(v)) for k, v in labels.items()))


class Histogram:
    """Fixed-bucket histogram: counts per bucket plus sum and count.

    ``buckets`` are the finite upper bounds in increasing order; an
    implicit +Inf bucket catches the overflow.  ``counts`` are
    *non-cumulative* per-bucket observation counts (length
    ``len(buckets) + 1``); the Prometheus exporter renders the cumulative
    ``le`` form and the parser reverses it.
    """

    __slots__ = ("buckets", "counts", "sum", "count")

    def __init__(self, buckets: Sequence[float] = DEFAULT_DURATION_BUCKETS) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds or any(
            b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])
        ):
            raise ValueError(f"bucket bounds must strictly increase: {bounds}")
        self.buckets = bounds
        self.counts = [0.0] * (len(bounds) + 1)
        self.sum = 0.0
        self.count = 0.0

    def observe(self, value: float) -> None:
        self.counts[bisect.bisect_left(self.buckets, float(value))] += 1.0
        self.sum += float(value)
        self.count += 1.0

    def merge(self, other: "Histogram") -> None:
        """Fold ``other``'s observations into this histogram.

        Bucket bounds must match — histograms with different bounds are
        different metrics.
        """
        if self.buckets != other.buckets:
            raise ValueError(
                f"cannot merge histograms with buckets {other.buckets} "
                f"into {self.buckets}"
            )
        for i, n in enumerate(other.counts):
            self.counts[i] += n
        self.sum += other.sum
        self.count += other.count

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile from bucket counts.

        Prometheus-style: find the bucket holding rank ``q * count`` and
        interpolate linearly inside it (observations assumed uniform
        within a bucket).  Observations that landed in the implicit +Inf
        overflow bucket clamp to the highest finite bound — same
        convention as ``histogram_quantile``.  An empty histogram
        returns 0.0 so snapshot payloads stay valid JSON.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count <= 0.0:
            return 0.0
        rank = q * self.count
        running = 0.0
        lower = 0.0
        for bound, n in zip(self.buckets, self.counts):
            if n > 0.0 and running + n >= rank:
                fraction = max(0.0, rank - running) / n
                return lower + (bound - lower) * fraction
            running += n
            lower = bound
        return self.buckets[-1]

    def cumulative(self) -> List[Tuple[float, float]]:
        """(upper bound, cumulative count) pairs, ending with (+Inf, count)."""
        out: List[Tuple[float, float]] = []
        running = 0.0
        for bound, n in zip(self.buckets, self.counts):
            running += n
            out.append((bound, running))
        out.append((float("inf"), running + self.counts[-1]))
        return out

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Histogram):
            return NotImplemented
        return (
            self.buckets == other.buckets
            and self.counts == other.counts
            and self.sum == other.sum
            and self.count == other.count
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Histogram(count={self.count:.0f}, sum={self.sum})"


class CounterRegistry:
    """Flat ``(name, labels) -> value`` store with exact-total queries."""

    def __init__(self) -> None:
        self._values: Dict[CounterKey, float] = {}
        self._histograms: Dict[CounterKey, Histogram] = {}

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def inc(self, name: str, value: float = 1.0, **labels: object) -> None:
        key = _key(name, labels)
        self._values[key] = self._values.get(key, 0.0) + float(value)

    def set(self, name: str, value: float, **labels: object) -> None:
        self._values[_key(name, labels)] = float(value)

    def observe(
        self,
        name: str,
        value: float,
        buckets: Sequence[float] = DEFAULT_DURATION_BUCKETS,
        **labels: object,
    ) -> None:
        """Record one observation into the named histogram series.

        The first observation of a series fixes its bucket bounds;
        ``buckets`` on later calls must match (histograms with different
        bounds are different metrics — rename one).
        """
        key = _key(name, labels)
        hist = self._histograms.get(key)
        if hist is None:
            hist = self._histograms[key] = Histogram(buckets)
        elif hist.buckets != tuple(float(b) for b in buckets):
            raise ValueError(
                f"histogram {name}{dict(key[1])} already has buckets "
                f"{hist.buckets}; pass matching bounds"
            )
        hist.observe(value)

    def add_histogram(
        self, name: str, hist: Histogram, **labels: object
    ) -> None:
        """Install a fully-built histogram series (parser plumbing)."""
        self._histograms[_key(name, labels)] = hist

    def merge(self, other: "CounterRegistry") -> "CounterRegistry":
        """Fold every series of ``other`` into this registry (adding).

        Scalar series add per ``(name, labels)`` key; histogram series with
        a matching key merge bucket-wise (bounds must agree).  This is how
        the serving layer folds per-flush registries into the long-lived
        ``/metrics`` registry: because ``device_bytes_total`` /
        ``device_seeks_total`` are pure sums of per-report counters, the
        merged registry still reconciles exactly against the
        :func:`~repro.storage.machine.merge_reports` sum of the same
        reports.
        """
        for (name, labels), value in other._values.items():
            key = (name, labels)
            self._values[key] = self._values.get(key, 0.0) + value
        for (name, labels), hist in other._histograms.items():
            key = (name, labels)
            mine = self._histograms.get(key)
            if mine is None:
                copy = Histogram(hist.buckets)
                copy.merge(hist)
                self._histograms[key] = copy
            else:
                mine.merge(hist)
        return self

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def get(self, name: str, **labels: object) -> float:
        return self._values.get(_key(name, labels), 0.0)

    def total(self, name: str, **match: object) -> float:
        """Sum of every series of ``name`` whose labels include ``match``."""
        want = {k: str(v) for k, v in match.items()}
        out = 0.0
        for (n, labels), value in self._values.items():
            if n != name:
                continue
            label_map = dict(labels)
            if all(label_map.get(k) == v for k, v in want.items()):
                out += value
        return out

    def items(self) -> Iterator[Tuple[str, Dict[str, str], float]]:
        """(name, labels, value) triples in deterministic (sorted) order."""
        for (name, labels), value in sorted(self._values.items()):
            yield name, dict(labels), value

    def histogram(self, name: str, **labels: object) -> Optional[Histogram]:
        return self._histograms.get(_key(name, labels))

    def histograms(self) -> Iterator[Tuple[str, Dict[str, str], Histogram]]:
        """(name, labels, histogram) triples in deterministic order."""
        for (name, labels), hist in sorted(
            self._histograms.items(), key=lambda kv: kv[0]
        ):
            yield name, dict(labels), hist

    def __len__(self) -> int:
        return len(self._values) + len(self._histograms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CounterRegistry):
            return NotImplemented
        return (
            self._values == other._values
            and self._histograms == other._histograms
        )

    # ------------------------------------------------------------------
    # collection from the storage layer
    # ------------------------------------------------------------------
    @classmethod
    def from_machine(cls, machine) -> "CounterRegistry":
        """Sample every counter source a machine owns.

        Pulls :meth:`Device.counter_samples` for each device (disks and
        RAM), :meth:`VFS.counter_samples`, and — when a page cache is
        attached — :meth:`PageCache.counter_samples`.  Sampling is
        read-only: calling this never perturbs the simulation.
        """
        reg = cls()
        for dev in machine.all_devices():
            reg._ingest_samples(dev.counter_samples())
        reg._ingest_samples(machine.vfs.counter_samples())
        if machine.page_cache is not None:
            reg._ingest_samples(machine.page_cache.counter_samples())
        injector = getattr(machine, "fault_injector", None)
        if injector is not None:
            reg._ingest_samples(injector.counter_samples())
        return reg

    @classmethod
    def from_report(cls, report) -> "CounterRegistry":
        """Rebuild the device counters recorded in an :class:`IOReport`.

        Per-query reports (deltas produced by ``IOReport.minus``) carry the
        same per-device, per-role byte accounting as a live machine, so a
        registry built from one holds that query's counters alone.
        """
        reg = cls()
        for dev in report.devices:
            for (role, kind), nbytes in dev.bytes_by_role.items():
                reg.inc(
                    "device_bytes_total",
                    nbytes,
                    device=dev.name,
                    kind=kind,
                    role=role,
                )
            reg.inc("device_seeks_total", dev.seek_count, device=dev.name)
        return reg

    def _ingest_samples(self, samples) -> None:
        for name, labels, value in samples:
            self.inc(name, value, **labels)

    # ------------------------------------------------------------------
    # engine-level counters
    # ------------------------------------------------------------------
    def ingest_result(self, result) -> "CounterRegistry":
        """Fold one :class:`EngineResult`'s run counters into the registry.

        Each per-iteration counter is summed over the iterations as integers
        and added once: the same value as one ``inc`` per iteration, since
        every partial sum is an integer a float holds exactly.  A result
        without iterations creates none of their series.
        """
        eng = result.engine
        self.inc(
            "engine_iterations_total", float(result.num_iterations), engine=eng
        )
        if result.iterations:
            for field in (
                "edges_scanned",
                "updates_generated",
                "partitions_processed",
                "partitions_skipped",
                "edges_eliminated",
            ):
                total = sum(getattr(it, field) for it in result.iterations)
                self.inc(f"engine_{field}_total", total, engine=eng)
        for extra in (
            "stay_swaps",
            "stay_cancellations",
            "stay_records_written",
            "stay_bytes_written",
            "stay_end_of_run_discards",
            "stay_integrity_failures",
            "stay_write_failures",
        ):
            if extra in result.extras:
                self.inc(f"engine_{extra}_total", result.extras[extra], engine=eng)
        return self

    # ------------------------------------------------------------------
    # span-duration histograms
    # ------------------------------------------------------------------
    def ingest_spans(
        self,
        spans,
        name: str = "span_duration_seconds",
        buckets: Sequence[float] = DEFAULT_DURATION_BUCKETS,
    ) -> "CounterRegistry":
        """Fold a span trace into per-stage duration histograms.

        ``spans`` is a :class:`~repro.obs.tracer.Tracer` or an iterable of
        :class:`~repro.obs.tracer.Span`; each finished span contributes one
        observation to the ``{stage=<span name>}`` series.
        """
        spans = getattr(spans, "spans", spans)
        for sp in spans:
            if sp.finished:
                self.observe(name, sp.duration, buckets=buckets, stage=sp.name)
        return self

    # ------------------------------------------------------------------
    # reconciliation with IOReport
    # ------------------------------------------------------------------
    def reconcile(self, report) -> List[str]:
        """Cross-check this registry against an :class:`IOReport`.

        Returns a list of human-readable mismatches (empty means the two
        accountings agree bit-for-bit).  Checks, per device:

        * registry read/write byte sums == ``DeviceReport.bytes_read`` /
          ``bytes_written`` (role ledger vs kind ledger);
        * per-(role, kind) registry series == ``DeviceReport.bytes_by_role``;
        * registry seek count == ``DeviceReport.seek_count``;

        and globally: persistent-device sums == ``report.bytes_read`` /
        ``bytes_written`` / ``bytes_total``.
        """
        problems: List[str] = []
        disk_read = 0.0
        disk_written = 0.0
        for dev in report.devices:
            got_read = self.total("device_bytes_total", device=dev.name, kind="read")
            got_written = self.total(
                "device_bytes_total", device=dev.name, kind="write"
            )
            if got_read != float(dev.bytes_read):
                problems.append(
                    f"{dev.name}: registry read bytes {got_read:.0f} != "
                    f"report {dev.bytes_read}"
                )
            if got_written != float(dev.bytes_written):
                problems.append(
                    f"{dev.name}: registry written bytes {got_written:.0f} != "
                    f"report {dev.bytes_written}"
                )
            for (role, kind), nbytes in dev.bytes_by_role.items():
                got = self.get(
                    "device_bytes_total", device=dev.name, kind=kind, role=role
                )
                if got != float(nbytes):
                    problems.append(
                        f"{dev.name}: role ({role}, {kind}) registry {got:.0f} "
                        f"!= report {nbytes}"
                    )
            seeks = self.get("device_seeks_total", device=dev.name)
            if seeks != float(dev.seek_count):
                problems.append(
                    f"{dev.name}: registry seeks {seeks:.0f} != "
                    f"report {dev.seek_count}"
                )
            if dev.kind != "ram":
                disk_read += got_read
                disk_written += got_written
        if disk_read != float(report.bytes_read):
            problems.append(
                f"persistent read total {disk_read:.0f} != "
                f"report.bytes_read {report.bytes_read}"
            )
        if disk_written != float(report.bytes_written):
            problems.append(
                f"persistent write total {disk_written:.0f} != "
                f"report.bytes_written {report.bytes_written}"
            )
        if disk_read + disk_written != float(report.bytes_total):
            problems.append(
                f"persistent byte total {disk_read + disk_written:.0f} != "
                f"report.bytes_total {report.bytes_total}"
            )
        return problems


__all__ = [
    "CounterRegistry",
    "DEFAULT_DURATION_BUCKETS",
    "Histogram",
]
