"""Metric counters collected by every parameter-server variant.

The evaluation of the paper reports, besides run times, several operational
metrics: the number of (local vs. non-local) parameter reads, the number of
relocations per second, and mean relocation times (Table 5), plus the message
and traffic volumes implied by the location-management strategies (Table 3).
:class:`PSMetrics` collects exactly these quantities per node;
:meth:`PSMetrics.merge` aggregates them across a cluster.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Dict, Iterable, List, Optional

#: Histogram geometry: log-spaced buckets with ``_HIST_PER_OCTAVE`` sub-buckets
#: per power of two, anchored at ``_HIST_FLOOR`` (1 ns of simulated time).  160
#: buckets span 1 ns .. ~1100 s with a worst-case relative error of 2^(1/4)-1
#: (~19%), which is plenty for latency percentiles; memory is bounded at one
#: small int list per stat, allocated lazily on the first sample.
_HIST_FLOOR = 1e-9
_HIST_PER_OCTAVE = 4
_HIST_BUCKETS = 160
_HIST_SCALE = _HIST_PER_OCTAVE / math.log(2.0)


def _hist_index(value: float) -> int:
    """Bucket index for ``value`` (clamped to the histogram range)."""
    if value <= _HIST_FLOOR:
        return 0
    index = int(_HIST_SCALE * math.log(value / _HIST_FLOOR))
    if index >= _HIST_BUCKETS:
        return _HIST_BUCKETS - 1
    return index


def _hist_edge(index: int) -> float:
    """Upper edge of bucket ``index``."""
    return _HIST_FLOOR * 2.0 ** ((index + 1) / _HIST_PER_OCTAVE)


@dataclass
class RunningStat:
    """Streaming mean/min/max/count plus a bounded log-spaced histogram.

    The histogram keeps a fixed number of log-spaced buckets (HDR-histogram
    style), so percentile queries (:meth:`percentile`, :attr:`p50`,
    :attr:`p99`) run in O(buckets) with O(buckets) memory regardless of how
    many samples were recorded.  Reported percentiles are bucket upper edges
    clamped to the observed ``[minimum, maximum]`` range.
    """

    count: int = 0
    total: float = 0.0
    minimum: float = float("inf")
    maximum: float = float("-inf")
    buckets: Optional[List[int]] = field(default=None, repr=False)

    def record(self, value: float) -> None:
        """Add one sample."""
        self.count += 1
        self.total += value
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value
        buckets = self.buckets
        if buckets is None:
            buckets = [0] * _HIST_BUCKETS
            self.buckets = buckets
        buckets[_hist_index(value)] += 1

    def record_repeated(self, value: float, times: int) -> None:
        """Add ``times`` samples of one ``value``.

        Equal, bit for bit, to ``times`` calls of :meth:`record`: ``total``
        still accumulates sample by sample (``times * value`` rounds
        differently); only the bounds and the bucket are worked out once.
        """
        if times < 1:
            return
        self.count += times
        total = self.total
        for _ in range(times):
            total += value
        self.total = total
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value
        buckets = self.buckets
        if buckets is None:
            buckets = [0] * _HIST_BUCKETS
            self.buckets = buckets
        buckets[_hist_index(value)] += times

    @property
    def mean(self) -> float:
        """Mean of the recorded samples (0.0 when empty)."""
        if self.count == 0:
            return 0.0
        return self.total / self.count

    def percentile(self, q: float) -> float:
        """Approximate ``q``-quantile (``q`` in [0, 1]; 0.0 when empty)."""
        if self.count == 0:
            return 0.0
        if self.buckets is None:
            # Legacy stats (e.g. unpickled from an old run) carry no buckets;
            # the mean is the best available point estimate.
            return min(max(self.mean, self.minimum), self.maximum)
        target = q * self.count
        seen = 0
        for index, bucket_count in enumerate(self.buckets):
            seen += bucket_count
            if seen >= target and bucket_count:
                return min(max(_hist_edge(index), self.minimum), self.maximum)
        return self.maximum

    @property
    def p50(self) -> float:
        """Median of the recorded samples (0.0 when empty)."""
        return self.percentile(0.50)

    @property
    def p99(self) -> float:
        """99th percentile of the recorded samples (0.0 when empty)."""
        return self.percentile(0.99)

    def merge(self, other: "RunningStat") -> "RunningStat":
        """Return a new stat combining this one with ``other``."""
        merged = RunningStat(
            count=self.count + other.count,
            total=self.total + other.total,
            minimum=min(self.minimum, other.minimum),
            maximum=max(self.maximum, other.maximum),
        )
        if self.buckets is not None or other.buckets is not None:
            mine = self.buckets or [0] * _HIST_BUCKETS
            theirs = other.buckets or [0] * _HIST_BUCKETS
            merged.buckets = [a + b for a, b in zip(mine, theirs)]
        return merged


@dataclass
class PSMetrics:
    """Operation counters for one node (or, after merging, a whole cluster).

    Attributes:
        pulls_local: Pull operations answered from local (owned) parameters.
        pulls_remote: Pull operations that required network communication.
        pushes_local: Push operations applied locally.
        pushes_remote: Push operations that required network communication.
        key_reads_local / key_reads_remote: Per-key counts (a multi-key pull of
            ``n`` keys counts ``n`` key reads); these correspond to the
            "Parameter reads" columns of Table 5.
        localize_calls: Number of localize operations issued.
        localized_keys: Number of keys requested across all localize calls.
        relocations: Number of parameter relocations that actually moved a key.
        relocation_time: Distribution of relocation times (issue → new owner
            starts answering), §3.2.
        blocking_time: Distribution of blocking times (time the key was
            unavailable during relocation), §3.2.
        queued_ops: Operations queued at a new owner while a relocation was in
            flight.
        forwarded_ops: Operations forwarded because they arrived at a node that
            no longer owned the key (includes double-forwards).
        cache_hits / cache_misses / cache_stale: Location-cache outcomes.
        clock_advances: Clock/barrier advances (stale PS and parameter
            blocking).
        server_messages: Messages handled by this node's server thread (the
            generic dispatch loop counts every request/protocol message).
        replica_refreshes: Replica values refreshed from owners (stale and
            replica PS).
        replica_reads: Key reads answered from a local replica.
        replica_writes: Key writes applied to a local replica (replica PS).
        replica_creates: Replicas installed on this node (replica PS).
        replica_sync_rounds: Synchronization-loop firings (replica PS).
        replica_flush_messages: Replica-holder → owner update-flush messages.
        replica_broadcast_messages: Owner → subscriber delta broadcasts.
        replica_sync_keys: Per-key entries carried by flush/broadcast messages.
        replica_sync_bytes: Wire bytes of flush/broadcast messages (the
            replication-maintenance traffic, the replication analogue of
            Table 3's location-management traffic).
        rebalance_rounds: Membership-driven rebalance operations initiated by
            the elastic cluster runtime (join/drain/failure recovery).
        rebalanced_keys: Keys whose ownership the elastic runtime migrated to
            this node (via the relocation protocol) during rebalancing.
        rebalance_time: Distribution of rebalance completion times (membership
            event -> last migrated key installed), the "time-to-rebalance" of
            the elasticity benchmark.
        recovered_keys: Keys this node recovered after another node failed,
            from any source (surviving replicas or the durable log).
        lost_keys: Keys that had to be re-initialized on this node because
            their owner failed and no recovery source (replica, checkpoint,
            or WAL record) survived.
        wal_appends: Write-ahead-log records appended by this node.
        wal_bytes: Serialized size of the appended WAL records (simulated
            bytes: record header plus key and value payload).
        checkpoints: Checkpoints of this node's parameter store taken.
        checkpoint_bytes: Serialized size of the taken checkpoints.
        replayed_deltas: Per-key delta rows replayed from this node's WAL
            suffix during crash recovery (on top of its last checkpoint).
        wal_recovered_keys: Keys installed on this node from a failed node's
            checkpoint + WAL (a subset of ``recovered_keys``).
    """

    pulls_local: int = 0
    pulls_remote: int = 0
    pushes_local: int = 0
    pushes_remote: int = 0
    key_reads_local: int = 0
    key_reads_remote: int = 0
    key_writes_local: int = 0
    key_writes_remote: int = 0
    localize_calls: int = 0
    localized_keys: int = 0
    relocations: int = 0
    relocation_time: RunningStat = field(default_factory=RunningStat)
    blocking_time: RunningStat = field(default_factory=RunningStat)
    queued_ops: int = 0
    forwarded_ops: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    cache_stale: int = 0
    clock_advances: int = 0
    server_messages: int = 0
    replica_refreshes: int = 0
    replica_reads: int = 0
    replica_writes: int = 0
    replica_creates: int = 0
    replica_sync_rounds: int = 0
    replica_flush_messages: int = 0
    replica_broadcast_messages: int = 0
    replica_sync_keys: int = 0
    replica_sync_bytes: int = 0
    rebalance_rounds: int = 0
    rebalanced_keys: int = 0
    rebalance_time: RunningStat = field(default_factory=RunningStat)
    recovered_keys: int = 0
    lost_keys: int = 0
    wal_appends: int = 0
    wal_bytes: int = 0
    checkpoints: int = 0
    checkpoint_bytes: int = 0
    replayed_deltas: int = 0
    wal_recovered_keys: int = 0

    @property
    def key_reads_total(self) -> int:
        """Total number of per-key reads (local + remote + replica)."""
        return self.key_reads_local + self.key_reads_remote

    @property
    def key_accesses_total(self) -> int:
        """Total key accesses: reads plus writes (Table 4 'key accesses')."""
        return (
            self.key_reads_local
            + self.key_reads_remote
            + self.key_writes_local
            + self.key_writes_remote
        )

    @property
    def local_read_fraction(self) -> float:
        """Fraction of key reads served locally (1.0 when there are none)."""
        total = self.key_reads_total
        if total == 0:
            return 1.0
        return self.key_reads_local / total

    def merge(self, other: "PSMetrics") -> "PSMetrics":
        """Return a new :class:`PSMetrics` summing this and ``other``.

        The merge is introspective (driven by the dataclass fields), so new
        counters participate automatically and partial metrics objects — e.g.
        from nodes that joined late or left early — merge against the zero
        defaults of the counters they never touched.
        """
        merged = PSMetrics()
        for spec in fields(self):
            mine = getattr(self, spec.name)
            theirs = getattr(other, spec.name)
            if isinstance(mine, RunningStat):
                setattr(merged, spec.name, mine.merge(theirs))
            else:
                setattr(merged, spec.name, mine + theirs)
        return merged

    @staticmethod
    def aggregate(metrics: Iterable["PSMetrics"]) -> "PSMetrics":
        """Sum an iterable of per-node metrics into one cluster-wide object."""
        total = PSMetrics()
        for item in metrics:
            total = total.merge(item)
        return total

    def as_dict(self) -> Dict[str, float]:
        """Return a flat dict of the scalar counters (for reporting).

        Integer counters keep their field names; every :class:`RunningStat`
        field contributes its mean under ``"mean_<field name>"`` (e.g.
        ``mean_relocation_time``) plus its histogram percentiles under
        ``"p50_<field name>"`` / ``"p99_<field name>"``.  Introspective, so
        new counters appear automatically.
        """
        result: Dict[str, float] = {}
        for spec in fields(self):
            value = getattr(self, spec.name)
            if isinstance(value, RunningStat):
                result[f"mean_{spec.name}"] = value.mean
                result[f"p50_{spec.name}"] = value.p50
                result[f"p99_{spec.name}"] = value.p99
            else:
                result[spec.name] = value
        return result
