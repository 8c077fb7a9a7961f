"""Benefactor: contributes a node-local SSD partition to the aggregate store.

A benefactor owns a slice of its node's SSD, stores chunks as individual
extents (the paper stores them as individual files), and serves direct
client connections for chunk data.  All payload bytes are real — reads
return exactly what was written — while device and network time is charged
through the simulation substrate.
"""

from __future__ import annotations

import sys
from collections.abc import Generator

from repro.cluster.node import Node
from repro.errors import BenefactorDownError, CapacityError, StoreError
from repro.sim.events import Event
from repro.store.chunk import CHUNK_SIZE
from repro.util.intervals import IntervalSet
from repro.util.recorder import MetricsRecorder


class Benefactor:
    """The per-node storage service of the aggregate NVM store."""

    def __init__(
        self,
        node: Node,
        *,
        contribution: int | None = None,
        chunk_size: int = CHUNK_SIZE,
        metrics: MetricsRecorder | None = None,
    ) -> None:
        if node.ssd is None:
            raise StoreError(f"{node.name} has no SSD to contribute")
        self.node = node
        self.ssd = node.ssd
        self.chunk_size = chunk_size
        self.metrics = metrics if metrics is not None else node.metrics
        max_contribution = self.ssd.logical_capacity
        self.contribution = (
            contribution if contribution is not None else max_contribution
        )
        if not 0 < self.contribution <= max_contribution:
            raise CapacityError(
                f"{node.name}: contribution {self.contribution} exceeds SSD "
                f"logical capacity {max_contribution}"
            )
        self._reserved = 0  # bytes promised to the manager
        # Chunk payloads (real bytes) and their SSD extents.  A payload
        # holds the chunk's written prefix; bytes past its end read as
        # zero (see :meth:`_write` for when it is padded to full size).
        self._data: dict[int, bytearray] = {}
        self._extents: dict[int, int] = {}  # chunk_id -> ssd byte offset
        # Extents are reused last-freed-first, then carved from never-used
        # space at ascending offsets.
        self._recycled_extents: list[int] = []
        self._next_extent = 0
        # Hot-path counters, resolved on first use so untouched metrics
        # never materialize (snapshots stay identical to on-demand adds).
        self._in_counter = None
        self._out_counter = None
        self.online = True  # the manager's view (set via mark_offline)
        self.crashed = False  # ground truth: the node is actually dead
        # Transient slowdown (fault injection): extra seconds charged per
        # data-path operation while the virtual clock is before the mark.
        self._slow_until = 0.0
        self._slow_extra = 0.0
        # Chunks mid-fill by re-replication: write-throughs that land while
        # the copy is in flight record their intervals so the completed
        # fill only patches the gaps (same merge rule as the chunk cache).
        self._fill_shadow: dict[int, IntervalSet] = {}

    @property
    def name(self) -> str:
        """The benefactor's (node) name."""
        return self.node.name

    @property
    def reserved(self) -> int:
        """Bytes of contribution currently promised to files."""
        return self._reserved

    @property
    def available(self) -> int:
        """Contribution bytes not yet reserved."""
        return self.contribution - self._reserved

    @property
    def stored_chunks(self) -> int:
        """Number of chunks with materialized data."""
        return len(self._data)

    # ------------------------------------------------------------------
    # Space accounting (driven by the manager)
    # ------------------------------------------------------------------
    def reserve(self, nbytes: int) -> None:
        """Promise ``nbytes`` of contribution to the manager."""
        if nbytes < 0:
            raise ValueError(f"negative reservation {nbytes}")
        if self._reserved + nbytes > self.contribution:
            raise CapacityError(
                f"{self.name}: reservation of {nbytes} exceeds available "
                f"{self.available}"
            )
        self._reserved += nbytes

    def unreserve(self, nbytes: int) -> None:
        """Return a prior promise."""
        if nbytes < 0 or nbytes > self._reserved:
            raise ValueError(
                f"{self.name}: bad unreserve {nbytes} (reserved {self._reserved})"
            )
        self._reserved -= nbytes

    # ------------------------------------------------------------------
    # Chunk data service (driven by clients; all are process generators)
    # ------------------------------------------------------------------
    def crash(self) -> None:
        """Simulate the benefactor's node dying (fault-injection hook).

        Data-path requests fail immediately; the manager's heartbeat
        monitor (see :meth:`repro.store.manager.Manager.monitor`) will
        notice and take the benefactor out of service.
        """
        self.crashed = True

    def slow_down(self, until: float, extra_seconds: float) -> None:
        """Inject a transient slowdown (fault-injection hook).

        Until virtual time ``until``, every data-path operation yields an
        extra ``extra_seconds`` timeout — modelling a contended or
        degraded node that is slow but not dead.
        """
        self._slow_until = until
        self._slow_extra = extra_seconds

    def _slowdown(self) -> Generator[Event, object, None]:
        if self._slow_until > self.node.engine.now:
            yield self.node.engine.timeout(self._slow_extra)

    def _check_online(self) -> None:
        if self.crashed or not self.online:
            raise BenefactorDownError(f"benefactor {self.name} is offline")

    def _extent_of(self, chunk_id: int) -> int:
        try:
            return self._extents[chunk_id]
        except KeyError:
            raise StoreError(
                f"{self.name}: chunk {chunk_id} has no extent"
            ) from None

    def _allocate_extent(self, chunk_id: int) -> None:
        if self._recycled_extents:
            extent = self._recycled_extents.pop()
        else:
            extent = self._next_extent
            if extent + self.chunk_size > self.contribution:
                raise CapacityError(f"{self.name}: no free extents")
            self._next_extent = extent + self.chunk_size
        self._extents[chunk_id] = extent

    def _materialize(self, chunk_id: int) -> None:
        """Ensure the chunk has an extent and a payload (empty at first:
        the whole chunk reads as zeroes)."""
        if chunk_id not in self._data:
            self._allocate_extent(chunk_id)
            self._data[chunk_id] = bytearray()

    def _write(self, chunk_id: int, offset: int, data: bytes) -> None:
        """Apply ``data`` at ``offset`` of a materialized chunk's payload.

        A write past the stored prefix zero-extends the payload first (a
        bytearray slice assigned past its end would append at the end
        instead of landing at ``offset``).  Once the prefix would pass
        half the chunk the payload is padded to full size, so chunks
        written mostly full are loaned, not copied, on full fetches.
        """
        payload = self._exclusive(chunk_id)
        end = offset + len(data)
        if end > len(payload):
            size = self.chunk_size if 2 * end > self.chunk_size else end
            payload.extend(bytes(size - len(payload)))
        payload[offset:end] = data

    def _exclusive(self, chunk_id: int) -> bytearray:
        """The chunk payload, made safe to mutate in place.

        Full-chunk fetches loan the live payload buffer to the caller
        (see :meth:`_fetch_chunk_impl`), so before mutating we check
        whether any loan is still outstanding and copy-on-write if so —
        the borrower keeps its fetch-time snapshot, we keep a private
        buffer.  Sharing is detected by refcount: exactly three
        references exist when nobody borrowed the buffer (``_data`` dict,
        this frame's local, ``getrefcount``'s argument).  Callers must
        not hold their own reference to the payload across this call —
        it would read as a loan and force a spurious copy.
        """
        payload = self._data[chunk_id]
        if sys.getrefcount(payload) > 3:
            payload = bytearray(payload)
            self._data[chunk_id] = payload
        return payload

    def has_chunk(self, chunk_id: int) -> bool:
        """True when the chunk's payload is materialized here."""
        return chunk_id in self._data

    def store_chunk(
        self, client: str, chunk_id: int, data: bytes, offset: int = 0
    ) -> Generator[Event, object, None]:
        """Dispatch :meth:`_store_chunk_impl`, spanned when tracing is on."""
        gen = self._store_chunk_impl(client, chunk_id, data, offset)
        tracer = self.node.engine.tracer
        if tracer is None:
            return gen
        return tracer.wrap(
            "benefactor", "store_chunk", gen,
            benefactor=self.name, chunk=chunk_id, bytes=len(data),
        )

    def _store_chunk_impl(
        self, client: str, chunk_id: int, data: bytes, offset: int = 0
    ) -> Generator[Event, object, None]:
        """Receive ``data`` from ``client`` and write it at ``offset``
        within the chunk.

        Charges one network transfer (client -> benefactor) of the payload
        plus the SSD write.  Partial writes are how NVMalloc's dirty-page
        optimization reaches the device: only modified pages travel.
        """
        self._check_online()
        if offset < 0 or offset + len(data) > self.chunk_size:
            raise StoreError(
                f"{self.name}: write [{offset}, {offset + len(data)}) outside "
                f"chunk of {self.chunk_size}"
            )
        if self._slow_until > self.node.engine.now:  # inlined _slowdown
            yield self.node.engine.timeout(self._slow_extra)
        yield from self.node.network.transfer(client, self.name, len(data))
        if self.crashed or not self.online:
            # Crash-during-writeback: the payload travelled but was never
            # applied or acknowledged.  The client must treat the write as
            # lost and retry against a surviving replica.
            raise BenefactorDownError(
                f"benefactor {self.name} died mid-writeback of chunk {chunk_id}"
            )
        shadow = self._fill_shadow.get(chunk_id)
        if shadow is not None:
            shadow.add(offset, offset + len(data))
        if len(data) == self.chunk_size and chunk_id not in self._data:
            # First write covering the whole chunk: adopt one copy of the
            # payload instead of growing a buffer and overwriting it.
            self._allocate_extent(chunk_id)
            self._data[chunk_id] = bytearray(data)
        else:
            self._materialize(chunk_id)
            self._write(chunk_id, offset, data)
        yield from self.ssd.write_extent(self._extent_of(chunk_id) + offset, len(data))
        counter = self._in_counter
        if counter is None:
            counter = self._in_counter = self.metrics.counter(
                "store.benefactor.bytes_in"
            )
        counter.total += len(data)
        counter.count += 1

    def fetch_chunk(
        self, client: str, chunk_id: int, offset: int = 0, length: int | None = None
    ) -> Generator[Event, object, bytearray]:
        """Dispatch :meth:`_fetch_chunk_impl`, spanned when tracing is on."""
        gen = self._fetch_chunk_impl(client, chunk_id, offset, length)
        tracer = self.node.engine.tracer
        if tracer is None:
            return gen
        return tracer.wrap(
            "benefactor", "fetch_chunk", gen,
            benefactor=self.name, chunk=chunk_id,
        )

    def _fetch_chunk_impl(
        self, client: str, chunk_id: int, offset: int = 0, length: int | None = None
    ) -> Generator[Event, object, bytearray]:
        """Read chunk bytes and ship them to ``client``.

        Unmaterialized chunks read as zeroes (space reservation creates no
        data, matching ``posix_fallocate`` semantics), and so do bytes
        past a payload's written prefix.  The returned buffer behaves as
        a fetch-time snapshot: it is always ``length`` bytes, a fresh
        copy, except that a full-chunk read of a full-size payload gets
        a zero-copy loan of the live payload that copy-on-write protects
        on both sides (see :meth:`_exclusive`).
        """
        self._check_online()
        if length is None:
            length = self.chunk_size - offset
        if offset < 0 or offset + length > self.chunk_size:
            raise StoreError(
                f"{self.name}: read [{offset}, {offset + length}) outside "
                f"chunk of {self.chunk_size}"
            )
        if self._slow_until > self.node.engine.now:  # inlined _slowdown
            yield self.node.engine.timeout(self._slow_extra)
        stored = self._data.get(chunk_id)
        if stored is not None:
            yield from self.ssd.read_extent(self._extent_of(chunk_id) + offset, length)
            end = offset + length
            if length == self.chunk_size and len(stored) == length:
                # Loan the live payload buffer instead of copying a
                # quarter-megabyte per fetch.  Snapshot semantics are
                # preserved copy-on-write: every mutation on this side
                # goes through _exclusive (which copies while a loan is
                # outstanding), and the chunk cache unshares its entry
                # before the first write on its side.
                data = stored
            elif end <= len(stored):
                data = bytearray(memoryview(stored)[offset:end])
            else:
                # Past the written prefix: zero-padded fresh buffer.
                data = bytearray(length)
                if offset < len(stored):
                    data[: len(stored) - offset] = memoryview(stored)[offset:]
        else:
            data = bytearray(length)  # reserved-but-unwritten: zeroes, no device read
        yield from self.node.network.transfer(self.name, client, len(data))
        if self.crashed or not self.online:
            # Crash mid-transfer: bytes on the wire never arrived whole.
            raise BenefactorDownError(
                f"benefactor {self.name} died mid-fetch of chunk {chunk_id}"
            )
        counter = self._out_counter
        if counter is None:
            counter = self._out_counter = self.metrics.counter(
                "store.benefactor.bytes_out"
            )
        counter.total += len(data)
        counter.count += 1
        return data

    def copy_chunk_local(
        self, src_chunk_id: int, dst_chunk_id: int
    ) -> Generator[Event, object, None]:
        """Duplicate a chunk on this benefactor (COW support, no network)."""
        self._check_online()
        if src_chunk_id in self._data:
            yield from self.ssd.read_extent(
                self._extent_of(src_chunk_id), self.chunk_size
            )
            if dst_chunk_id not in self._data:
                self._allocate_extent(dst_chunk_id)
            # Install a fresh copy (of the stored prefix) wholesale: an
            # outstanding loan of the old destination payload keeps its
            # snapshot untouched.
            self._data[dst_chunk_id] = bytearray(self._data[src_chunk_id])
            yield from self.ssd.write_extent(
                self._extent_of(dst_chunk_id), self.chunk_size
            )
        # Copying a reserved-but-unwritten chunk leaves the copy unwritten.

    # ------------------------------------------------------------------
    # Re-replication fill protocol (driven by the manager)
    # ------------------------------------------------------------------
    def begin_fill(self, chunk_id: int) -> None:
        """Start receiving a replica of ``chunk_id``.

        From this moment the benefactor is a *write* replica: client
        write-throughs land here and record their intervals in a fill
        shadow, so :meth:`complete_fill` patches only the bytes the copy
        snapshot still owns — a write-through that raced ahead of the
        bulk copy is never clobbered by stale snapshot data.
        """
        self._fill_shadow[chunk_id] = IntervalSet()

    def filling(self, chunk_id: int) -> bool:
        """True while a replica fill for ``chunk_id`` is in flight."""
        return chunk_id in self._fill_shadow

    def complete_fill(
        self, chunk_id: int, data: bytes | None
    ) -> Generator[Event, object, None]:
        """Land the bulk-copy snapshot taken from the surviving replica.

        ``data=None`` means the source chunk was reserved but never
        materialized — nothing to write; the replica stays unmaterialized
        too (unless a write-through already materialized it here).
        Charges the SSD write for every snapshot byte actually applied.
        """
        self._check_online()
        shadow = self._fill_shadow.pop(chunk_id)
        if data is None:
            return
        self._materialize(chunk_id)
        extent = self._extent_of(chunk_id)
        written = 0
        for start, stop in shadow.gaps(0, self.chunk_size):
            self._write(chunk_id, start, data[start:stop])
            written += stop - start
        if written:
            yield from self.ssd.write_extent(extent, written)

    def abort_fill(self, chunk_id: int) -> None:
        """Drop fill state after a failed re-replication copy."""
        self._fill_shadow.pop(chunk_id, None)

    def delete_chunk(self, chunk_id: int) -> None:
        """Drop a chunk's data and recycle its extent (TRIMs the flash)."""
        self._fill_shadow.pop(chunk_id, None)
        if chunk_id in self._data:
            extent = self._extents.pop(chunk_id)
            del self._data[chunk_id]
            self.ssd.trim_extent(extent, self.chunk_size)
            self._recycled_extents.append(extent)

    # ------------------------------------------------------------------
    # Testing/verification access (not part of the service protocol)
    # ------------------------------------------------------------------
    def peek(self, chunk_id: int) -> bytes | None:
        """The stored chunk, zero-padded to full size, for invariant
        checks in tests (``None`` when unmaterialized)."""
        data = self._data.get(chunk_id)
        if data is None:
            return None
        return bytes(data) + bytes(self.chunk_size - len(data))

    def __repr__(self) -> str:
        return (
            f"<Benefactor {self.name} reserved={self._reserved}/{self.contribution}"
            f" chunks={len(self._data)}>"
        )
