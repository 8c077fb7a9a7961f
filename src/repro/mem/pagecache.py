"""OS page-cache model: 4 KB pages between the application and FUSE.

Resident pages serve memory accesses at DRAM speed; misses fault the page
in from the FUSE layer (which fetches whole 256 KB chunks from the store —
the granularity bridge of paper §III-D).  Dirty pages are written back to
FUSE at page granularity, matching "the OS page cache sends out write
requests to the FUSE layer on a page granularity".

Like the chunk cache, the page dict is shadowed by a per-path index and
per-page ``lru`` stamps so msync/munmap walk only the target file's pages
while replaying exact LRU order.  Runs of pages move through the stack in
batch: faults pull each chunk piece with one ``read_into`` call, and
msync flushes runs of contiguous dirty pages with one ``write_ranges``
call that charges the same per-page FUSE overhead the page-by-page path
would have — the simulated event sequence is identical, only the Python
work per page shrinks.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Generator
from dataclasses import dataclass

import numpy as np

from repro.devices.base import AccessKind
from repro.errors import MmapError
from repro.fusefs.mount import FuseMount
from repro.sim.events import Event
from repro.store.chunk import PAGE_SIZE
from repro.util.recorder import MetricsRecorder

#: Gate for the no-yield bulk page-run fast paths in fault and write.
#: They are eligible only where the general per-page route (``_insert``)
#: would not have yielded — no eviction, no in-flight flush — so
#: flipping this off must be byte- and virtual-time-invisible; tests
#: fuzz that identity on random schedules (tests/test_bulk_runs_fuzz.py).
BULK_PAGE_RUNS = True


@dataclass
class PageCacheStats:
    """Hit/miss and byte-flow accounting."""

    hits: int = 0
    misses: int = 0
    faulted_bytes: int = 0  # FUSE -> page cache
    writeback_bytes: int = 0  # page cache -> FUSE

    @property
    def hit_rate(self) -> float:
        """Fraction of page lookups served from resident pages."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class _Page:
    __slots__ = ("data", "dirty", "lru")

    def __init__(self, page_size: int, data: bytearray | None = None) -> None:
        # Callers with a full page of payload in hand pass it directly,
        # skipping the zero-fill that a copy would immediately overwrite.
        self.data = bytearray(page_size) if data is None else data
        self.dirty = False
        # Recency stamp mirroring this page's position in the LRU dict
        # (strictly increasing across touches), so a per-path sync can
        # replay LRU order without scanning the whole dict.
        self.lru = 0


class PageCache:
    """Per-node LRU cache of file pages, backed by the node's FUSE mount."""

    #: Kernel/FUSE crossing cost per page-granular request.  mmap page
    #: faults and dirty-page write-backs each pay one user-kernel-user
    #: round trip through the FUSE daemon; this is why the paper's STREAM
    #: over NVMalloc runs far below raw device bandwidth (Table III).
    FUSE_OP_OVERHEAD = 25e-6

    def __init__(
        self,
        mount: FuseMount,
        *,
        capacity_bytes: int,
        page_size: int = PAGE_SIZE,
        fuse_op_overhead: float = FUSE_OP_OVERHEAD,
        metrics: MetricsRecorder | None = None,
    ) -> None:
        if capacity_bytes < page_size:
            raise MmapError(
                f"page cache of {capacity_bytes} bytes cannot hold one page"
            )
        self.mount = mount
        self.node = mount.node
        # Direct references for the per-access hot paths (two attribute
        # hops each otherwise).
        self._engine = mount.node.engine
        self._dram = mount.node.dram
        self.page_size = page_size
        self.fuse_op_overhead = fuse_op_overhead
        self.capacity_pages = capacity_bytes // page_size
        self.metrics = metrics if metrics is not None else mount.metrics
        self.stats = PageCacheStats()
        self._pages: OrderedDict[tuple[str, int], _Page] = OrderedDict()
        # Per-path view of ``_pages`` keys for path-scoped sync/drop.
        self._by_path: dict[str, set[int]] = {}
        # Pages whose eviction flush is in flight: concurrent faults must
        # wait for the flush to reach FUSE before refetching, or they
        # would read pre-flush (stale) bytes.
        self._inflight: dict[tuple[str, int], Event] = {}
        # Per-path view of ``_inflight``; inner dicts keep insertion
        # order so drain_path waits on the oldest flush first, exactly
        # as a whole-dict scan would.
        self._inflight_by_path: dict[str, dict[int, Event]] = {}
        self._tick = 0
        # Hot-path counters, resolved on first use (snapshot-identical
        # to per-call ``metrics.add``: untouched ones never materialize).
        self._read_counter = None
        self._write_counter = None
        self._fault_counter = None
        self._writeback_counter = None
        # Async-checkpoint write hooks (snapshot guards, mutation
        # trackers), keyed by backing path.  Empty except for paths in an
        # async checkpoint chain, so the hot write path pays a single
        # truthiness check otherwise.
        self._write_hooks: dict[str, list[object]] = {}
        # Page-cache pages occupy node DRAM.
        mount.node.dram.allocate(capacity_bytes)

    def __len__(self) -> int:
        return len(self._pages)

    # ------------------------------------------------------------------
    def _dram_access(self, kind: AccessKind, nbytes: int) -> Generator[Event, object, None]:
        """Charge DRAM time for bytes served from resident pages."""
        if nbytes:
            yield from self._dram.access(kind, nbytes)

    def _fuse_cache(self):
        return self.mount.cache

    def _new_page(
        self, path: str, page_idx: int, data: bytearray | None = None
    ) -> _Page:
        """Create and index a resident page (caller checked capacity)."""
        page = _Page(self.page_size, data)
        self._tick += 1
        page.lru = self._tick
        self._pages[(path, page_idx)] = page
        bucket = self._by_path.get(path)
        if bucket is None:
            bucket = self._by_path[path] = set()
        bucket.add(page_idx)
        return page

    def _evict_clean_run(self) -> bool:
        """Pop clean LRU victims until a slot is free, without yielding.

        Mirrors the eviction arm of :meth:`_insert` for victims whose
        flush would be a no-op.  Stops short at the first dirty victim
        (its flush yields) and returns False; the caller must then fall
        back to ``_insert``, which evicts that very victim through the
        flushing path — in the same LRU order, since nothing was popped
        past it here.
        """
        pages = self._pages
        capacity = self.capacity_pages
        by_path = self._by_path
        while len(pages) >= capacity:
            vkey = next(iter(pages))
            if pages[vkey].dirty:
                return False
            del pages[vkey]
            vpath, vidx = vkey
            vbucket = by_path[vpath]
            vbucket.discard(vidx)
            if not vbucket:
                del by_path[vpath]
        return True

    def _flush_page(
        self, path: str, page_idx: int, page: _Page
    ) -> Generator[Event, object, None]:
        offset = page_idx * self.page_size
        length = min(self.page_size, self.mount.stat_size(path) - offset)
        chunk_index = offset // self.mount.chunk_size
        chunk_off = offset - chunk_index * self.mount.chunk_size
        # Un-dirty before yielding: writes landing while the payload is
        # in flight re-dirty the page and flush later.
        data = page.data
        payload = (
            bytes(data) if length == len(data)
            else bytes(memoryview(data)[:length])
        )
        page.dirty = False
        if self.fuse_op_overhead:
            yield self._engine.timeout(self.fuse_op_overhead)
        yield from self._fuse_cache().write(path, chunk_index, chunk_off, payload)
        self.stats.writeback_bytes += length
        counter = self._writeback_counter
        if counter is None:
            counter = self._writeback_counter = self.metrics.counter(
                "pagecache.writeback.bytes"
            )
        counter.total += length
        counter.count += 1

    def _insert(
        self, path: str, page_idx: int, data: bytearray | None = None
    ) -> Generator[Event, object, tuple[_Page, bool]]:
        """Pin a page slot for ``(path, page_idx)``.

        Returns ``(page, created)``: ``created`` is False when the page
        was already (or concurrently became) resident — fillers must not
        overwrite such a page with older store bytes, because another
        rank may have written to it since.  A created page adopts
        ``data`` (a caller-owned full-page buffer) when given, skipping
        the zero-fill a later full overwrite would waste.
        """
        key = (path, page_idx)
        pages = self._pages
        mount = self.mount
        inflight = self._inflight
        capacity = self.capacity_pages
        by_path = self._by_path
        page_size = self.page_size
        chunk_size = mount.chunk_size
        stat_size = mount.stat_size
        cache_write = mount.cache.write
        engine = self._engine
        while True:
            # Wait out an in-flight eviction flush of this very page.
            while key in inflight:
                yield inflight[key]
            page = pages.get(key)
            if page is not None:
                # Someone else faulted it back in while we waited.
                pages.move_to_end(key)
                self._tick += 1
                page.lru = self._tick
                return page, False
            while len(pages) >= capacity:
                # Evict the LRU page, flushing dirty victims through
                # FUSE first.  The eviction and the flush body (kept in
                # sync with _flush_page, which sync_path still uses) are
                # inlined rather than delegated to helper generators:
                # every event of every flush resumes through this frame,
                # so each avoided ``yield from`` hop is paid back
                # hundreds of thousands of times per run.
                vkey, victim = pages.popitem(last=False)
                vpath, vidx = vkey
                bucket = by_path[vpath]
                bucket.discard(vidx)
                if not bucket:
                    del by_path[vpath]
                if victim.dirty:
                    done = Event(engine)
                    inflight[vkey] = done
                    ibucket = self._inflight_by_path.get(vpath)
                    if ibucket is None:
                        ibucket = self._inflight_by_path[vpath] = {}
                    ibucket[vidx] = done
                    try:
                        offset = vidx * page_size
                        length = min(page_size, stat_size(vpath) - offset)
                        chunk_index = offset // chunk_size
                        chunk_off = offset - chunk_index * chunk_size
                        # Un-dirty before yielding: writes landing while
                        # the payload is in flight re-dirty the page.
                        vdata = victim.data
                        payload = (
                            bytes(vdata) if length == len(vdata)
                            else bytes(memoryview(vdata)[:length])
                        )
                        victim.dirty = False
                        if self.fuse_op_overhead:
                            yield engine.timeout(self.fuse_op_overhead)
                        yield from cache_write(
                            vpath, chunk_index, chunk_off, payload
                        )
                        self.stats.writeback_bytes += length
                        counter = self._writeback_counter
                        if counter is None:
                            counter = self._writeback_counter = (
                                self.metrics.counter("pagecache.writeback.bytes")
                            )
                        counter.total += length
                        counter.count += 1
                    finally:
                        del inflight[vkey]
                        del ibucket[vidx]
                        if not ibucket:
                            del self._inflight_by_path[vpath]
                        done.settle(None)
            if key in pages or key in inflight:
                continue  # appeared (or re-entered eviction) while evicting
            return self._new_page(path, page_idx, data), True

    def _fault_range(
        self, path: str, first_page: int, last_page: int
    ) -> Generator[Event, object, None]:
        """Dispatch :meth:`_fault_range_impl`, spanned when tracing is on."""
        gen = self._fault_range_impl(path, first_page, last_page)
        tracer = self._engine.tracer
        if tracer is None:
            return gen
        return tracer.wrap(
            "pagecache", "fault", gen,
            path=path, pages=last_page - first_page + 1,
        )

    def _fault_range_impl(
        self, path: str, first_page: int, last_page: int
    ) -> Generator[Event, object, None]:
        """Fault pages ``first_page..last_page`` (inclusive) in from FUSE.

        Contiguous missing pages are requested as one FUSE read per chunk
        piece, but inserted (and later evictable) page by page.
        """
        # Pages of this range may have in-flight eviction flushes; their
        # bytes are not in FUSE yet, so fetching now would resurrect
        # stale data.  Wait for those flushes to land first.
        inflight = self._inflight
        if inflight:
            for page_idx in range(first_page, last_page + 1):
                key = (path, page_idx)
                while key in inflight:
                    yield inflight[key]
        offset = first_page * self.page_size
        size = self.mount.stat_size(path)
        length = min((last_page + 1) * self.page_size, size) - offset
        cache = self._fuse_cache()
        # Each faulted page is one mmap fault serviced through the FUSE
        # daemon: charge the kernel-crossing overhead per page.
        npages = last_page - first_page + 1
        if self.fuse_op_overhead:
            yield self._engine.timeout(npages * self.fuse_op_overhead)
        pages = self._pages
        pages_get = pages.get
        move_to_end = pages.move_to_end
        page_size = self.page_size
        capacity = self.capacity_pages
        chunk_size = self.mount.chunk_size
        by_path = self._by_path
        cursor = offset
        end = offset + length
        # ``cursor`` stays page-aligned throughout: it starts at a page
        # boundary and chunk pieces are page multiples except the file
        # tail, which is the last piece.  So the inner loop can count
        # page indices instead of dividing per page, and slice full
        # pages straight out of the fetch buffer (a bytearray slice is
        # already the fresh copy the new page adopts).
        while cursor < end:
            chunk_index = cursor // chunk_size
            chunk_off = cursor - chunk_index * chunk_size
            piece = min(chunk_size - chunk_off, end - cursor)
            buf = bytearray(piece)
            yield from cache.read_into(path, chunk_index, chunk_off, piece, buf)
            page_idx = cursor // page_size
            inner = 0
            # Local mirrors for the no-yield run over this piece's pages:
            # ``tick`` is written back before any yield (and at piece
            # end); ``bucket`` is re-fetched after any yield because an
            # eviction inside _insert may drop and recreate this path's
            # bucket set.
            tick = self._tick
            bucket = by_path.get(path)
            bulk = BULK_PAGE_RUNS
            while inner < piece:
                remaining = piece - inner
                seg_len = page_size if remaining >= page_size else remaining
                key = (path, page_idx)
                page = pages_get(key)
                if page is not None:
                    # Concurrently faulted back in: only touch the LRU
                    # position, never overwrite (it may hold newer bytes).
                    move_to_end(key)
                    tick += 1
                    page.lru = tick
                elif bulk and key not in inflight and (
                    len(pages) < capacity or self._evict_clean_run()
                ):
                    # Fast path: no eviction flush and no in-flight wait
                    # — _insert would have returned without yielding
                    # (clean LRU victims are popped inline; a dirty one
                    # falls through to _insert).  Re-mirror the bucket:
                    # the evict run may have dropped this path's entry.
                    # (_new_page inlined: this stretch cannot yield, so
                    # the mirrors stay coherent across the whole run.)
                    bucket = by_path.get(path)
                    page = _Page.__new__(_Page)
                    if seg_len == page_size:
                        page.data = buf[inner : inner + page_size]
                    else:
                        data = bytearray(page_size)
                        data[:seg_len] = buf[inner : inner + seg_len]
                        page.data = data
                    page.dirty = False
                    tick += 1
                    page.lru = tick
                    pages[key] = page
                    if bucket is None:
                        bucket = by_path[path] = set()
                    bucket.add(page_idx)
                else:
                    self._tick = tick
                    page, created = yield from self._insert(path, page_idx)
                    tick = self._tick
                    bucket = by_path.get(path)
                    if created:
                        page.data[:seg_len] = buf[inner : inner + seg_len]
                inner += page_size
                page_idx += 1
            self._tick = tick
            cursor += piece
        self.stats.faulted_bytes += length
        counter = self._fault_counter
        if counter is None:
            counter = self._fault_counter = self.metrics.counter(
                "pagecache.fault.bytes"
            )
        counter.total += length
        counter.count += 1

    # ------------------------------------------------------------------
    # Public byte-range access
    # ------------------------------------------------------------------
    def read(
        self, path: str, offset: int, length: int
    ) -> Generator[Event, object, bytearray]:
        """Read bytes, faulting missing pages in from FUSE.

        The returned buffer is a fresh snapshot owned by the caller —
        no cache page aliases it, so callers may mutate or adopt it.
        """
        self._check(path, offset, length)
        if length == 0:
            return bytearray()
        page_size = self.page_size
        first = offset // page_size
        last = (offset + length - 1) // page_size
        pages = self._pages
        pages_get = pages.get
        move_to_end = pages.move_to_end
        # Group contiguous missing pages into ranged faults.  ``tick``
        # mirrors self._tick as a local; it is written back before every
        # yield (other processes stamp pages too) and reloaded after.
        run_start: int | None = None
        resident = 0
        misses = 0
        tick = self._tick
        for page_idx in range(first, last + 1):
            key = (path, page_idx)
            page = pages_get(key)
            if page is not None:
                move_to_end(key)
                tick += 1
                page.lru = tick
                resident += 1
                if run_start is not None:
                    self._tick = tick
                    yield from self._fault_range(path, run_start, page_idx - 1)
                    tick = self._tick
                    run_start = None
            else:
                misses += 1
                if run_start is None:
                    run_start = page_idx
        self._tick = tick
        self.stats.hits += resident
        self.stats.misses += misses
        if run_start is not None:
            yield from self._fault_range(path, run_start, last)
        if resident:
            # Inlined StorageDevice.access (DRAM has no _pre_access hook;
            # event-for-event identical, one generator hop less).
            nbytes = resident * page_size
            dram = self._dram
            req = dram._acquire_now()
            if req is None:
                req = dram._acquire()
                yield req
            try:
                bytes_counter, time_counter, time_fn = dram._read_stats
                duration = time_fn(nbytes)
                bytes_counter.total += nbytes
                bytes_counter.count += 1
                time_counter.total += duration
                time_counter.count += 1
                yield self._engine.timeout(duration)
            finally:
                dram._release(req)
        # Assemble the requested bytes from resident pages.  Only the
        # first page can start mid-page, so the page index advances by
        # one per iteration instead of re-dividing the cursor.
        out = bytearray(length)
        pos = 0
        page_idx = offset // page_size
        in_page = offset - page_idx * page_size
        tick = self._tick
        while pos < length:
            piece = page_size - in_page
            rest = length - pos
            if piece > rest:
                piece = rest
            key = (path, page_idx)
            page = pages_get(key)
            if page is None:
                # A range larger than the cache evicted its own head while
                # faulting its tail; refault just this page.
                self._tick = tick
                yield from self._fault_range(path, page_idx, page_idx)
                tick = self._tick
                page = pages[key]
            move_to_end(key)
            tick += 1
            page.lru = tick
            if piece == page_size:
                out[pos : pos + page_size] = page.data
            else:
                out[pos : pos + piece] = memoryview(page.data)[
                    in_page : in_page + piece
                ]
            pos += piece
            page_idx += 1
            in_page = 0
        self._tick = tick
        counter = self._read_counter
        if counter is None:
            counter = self._read_counter = self.metrics.counter(
                "pagecache.read.bytes"
            )
        counter.total += length
        counter.count += 1
        return out

    def write(
        self, path: str, offset: int, data: bytes
    ) -> Generator[Event, object, None]:
        """Write bytes, dirtying pages (write-allocate, write-back)."""
        self._check(path, offset, len(data))
        if not data:
            return
        if self._write_hooks:
            hooks = self._write_hooks.get(path)
            if hooks:
                # A write to a chunk an async checkpoint has not yet
                # drained triggers copy-on-write: the snapshot guard
                # captures the frozen bytes (and may block on staging
                # backpressure) before the store sees the new data;
                # mutation trackers record the touch for the next
                # epoch's dirty diff.
                for hook in list(hooks):
                    yield from hook.before_write(offset, len(data))
        pages = self._pages
        pages_get = pages.get
        move_to_end = pages.move_to_end
        inflight = self._inflight
        page_size = self.page_size
        capacity = self.capacity_pages
        length = len(data)
        src = memoryview(data)
        written_resident = 0
        hits = 0
        misses = 0
        # Only the first page can start mid-page: advance the page index
        # instead of re-dividing the cursor each iteration.  ``start``
        # is the position within ``data`` (== cursor - offset).  ``tick``
        # and ``bucket`` mirror self._tick / this path's index across the
        # no-yield stretches (written back before any yield, re-fetched
        # after — evictions inside _insert may recreate the bucket).
        page_idx = offset // page_size
        in_page = offset - page_idx * page_size
        start = 0
        by_path = self._by_path
        bucket = by_path.get(path)
        tick = self._tick
        bulk = BULK_PAGE_RUNS
        while start < length:
            piece = page_size - in_page
            rest = length - start
            if piece > rest:
                piece = rest
            key = (path, page_idx)
            page = pages_get(key)
            if page is None:
                misses += 1
                if piece == page_size:
                    # Full-page overwrite: allocate without fetching,
                    # handing the payload straight to the new page (no
                    # zero-fill, no second copy).
                    if bulk and key not in inflight and (
                        len(pages) < capacity or self._evict_clean_run()
                    ):
                        # Re-mirror the bucket: the clean-evict run may
                        # have dropped this path's entry.
                        bucket = by_path.get(path)
                        # _new_page inlined: this stretch cannot yield.
                        page = _Page.__new__(_Page)
                        page.data = bytearray(src[start : start + page_size])
                        page.dirty = True
                        tick += 1
                        page.lru = tick
                        pages[key] = page
                        if bucket is None:
                            bucket = by_path[path] = set()
                        bucket.add(page_idx)
                        written_resident += page_size
                        start += page_size
                        page_idx += 1
                        continue
                    self._tick = tick
                    page, created = yield from self._insert(
                        path, page_idx, bytearray(src[start : start + page_size])
                    )
                    tick = self._tick
                    bucket = by_path.get(path)
                    if created:
                        page.dirty = True
                        written_resident += page_size
                        start += page_size
                        page_idx += 1
                        continue
                else:
                    self._tick = tick
                    yield from self._fault_range(path, page_idx, page_idx)
                    tick = self._tick
                    bucket = by_path.get(path)
                    page = pages[key]
            else:
                hits += 1
                move_to_end(key)
                tick += 1
                page.lru = tick
            page.data[in_page : in_page + piece] = src[start : start + piece]
            page.dirty = True
            written_resident += piece
            start += piece
            page_idx += 1
            in_page = 0
        self._tick = tick
        self.stats.hits += hits
        self.stats.misses += misses
        if written_resident:
            # Inlined StorageDevice.access (DRAM has no _pre_access hook;
            # event-for-event identical, one generator hop less).
            dram = self._dram
            req = dram._acquire_now()
            if req is None:
                req = dram._acquire()
                yield req
            try:
                bytes_counter, time_counter, time_fn = dram._write_stats
                duration = time_fn(written_resident)
                bytes_counter.total += written_resident
                bytes_counter.count += 1
                time_counter.total += duration
                time_counter.count += 1
                yield self._engine.timeout(duration)
            finally:
                dram._release(req)
        counter = self._write_counter
        if counter is None:
            counter = self._write_counter = self.metrics.counter(
                "pagecache.write.bytes"
            )
        counter.total += len(data)
        counter.count += 1

    # ------------------------------------------------------------------
    def drain_path(self, path: str) -> Generator[Event, object, None]:
        """Wait until no eviction flush for ``path`` is in flight."""
        while True:
            bucket = self._inflight_by_path.get(path)
            if not bucket:
                return
            yield next(iter(bucket.values()))

    # ------------------------------------------------------------------
    # Async-checkpoint snapshot support
    # ------------------------------------------------------------------
    def register_write_hook(self, path: str, hook: object) -> None:
        """Route writes to ``path`` through ``hook.before_write`` until
        :meth:`unregister_write_hook`.  Hooks run in registration order;
        registering the same hook object twice is an error."""
        hooks = self._write_hooks.setdefault(path, [])
        if any(existing is hook for existing in hooks):
            raise MmapError(f"{path!r} already has this write hook")
        hooks.append(hook)

    def unregister_write_hook(self, path: str, hook: object) -> None:
        """Remove one write hook for ``path`` (idempotent)."""
        hooks = self._write_hooks.get(path)
        if not hooks:
            return
        self._write_hooks[path] = [h for h in hooks if h is not hook]
        if not self._write_hooks[path]:
            del self._write_hooks[path]

    def dirty_chunk_indices(self, path: str, chunk_size: int) -> set[int]:
        """Chunk indices of ``path`` covered by at least one dirty page.

        Pure metadata (no events): used by incremental checkpoints to
        find chunks whose store copy is behind the mapped view.
        """
        bucket = self._by_path.get(path)
        if not bucket:
            return set()
        pages = self._pages
        pages_per_chunk = max(1, chunk_size // self.page_size)
        return {
            page_idx // pages_per_chunk
            for page_idx in bucket
            if pages[(path, page_idx)].dirty
        }

    def sync_path(self, path: str) -> Generator[Event, object, None]:
        """Dispatch :meth:`_sync_path_impl`, spanned when tracing is on."""
        gen = self._sync_path_impl(path)
        tracer = self._engine.tracer
        if tracer is None:
            return gen
        return tracer.wrap("pagecache", "sync", gen, path=path)

    def _sync_path_impl(self, path: str) -> Generator[Event, object, None]:
        """Flush all dirty pages of ``path`` to FUSE (msync).

        Runs of LRU-consecutive, file-contiguous full dirty pages inside
        one chunk are shipped with a single ``write_ranges`` call whose
        ``pre_range_delay`` charges the same per-page FUSE crossing the
        page-by-page path pays; each page's payload is snapshotted (and
        its dirty bit cleared) lazily right before its range goes out, so
        writes racing the sync re-dirty exactly the pages they would
        have.  The file's tail page, being a partial write, still flushes
        through :meth:`_flush_page`.
        """
        yield from self.drain_path(path)
        bucket = self._by_path.get(path)
        if bucket:
            pages = self._pages
            page_size = self.page_size
            size = self.mount.stat_size(path)
            chunk_size = self.mount.chunk_size
            cache = self._fuse_cache()
            overhead = self.fuse_op_overhead or None
            # Snapshot this path's pages in LRU order (stamp order ==
            # dict order); dirtiness is re-checked at flush time, as the
            # page-by-page loop would.  Stamps are unique, so a numpy
            # argsort over the stamp array replays the exact order the
            # tuple sort produced, without B log B tuple comparisons.
            # Batch *boundaries* stay lazily evaluated below: a page
            # dirtied while an earlier batch's flush was in flight must
            # still be picked up when the walk reaches it.
            indices = list(bucket)
            path_pages = [pages[(path, i)] for i in indices]
            order = np.argsort(
                np.fromiter(
                    (p.lru for p in path_pages), np.int64, len(indices)
                )
            )
            snapshot = [
                (indices[k], path_pages[k]) for k in order.tolist()
            ]
            j = 0
            total = len(snapshot)
            while j < total:
                page_idx, page = snapshot[j]
                if not page.dirty:
                    j += 1
                    continue
                offset = page_idx * page_size
                if size - offset < page_size:
                    # Tail page: partial write, flush alone.
                    yield from self._flush_page(path, page_idx, page)
                    j += 1
                    continue
                chunk_index = offset // chunk_size
                chunk_base = chunk_index * chunk_size
                # Extend over LRU-consecutive, index-contiguous full
                # dirty pages of the same chunk.
                batch = [(page_idx, page)]
                k = j + 1
                while k < total:
                    nxt_idx, nxt_page = snapshot[k]
                    nxt_off = nxt_idx * page_size
                    if (
                        nxt_idx != batch[-1][0] + 1
                        or not nxt_page.dirty
                        or nxt_off // chunk_size != chunk_index
                        or size - nxt_off < page_size
                    ):
                        break
                    batch.append((nxt_idx, nxt_page))
                    k += 1
                flushed = 0

                def _ranges() -> Generator[tuple[int, bytes], None, None]:
                    # Consumed lazily by write_ranges: page m's payload
                    # is snapshotted (and un-dirtied) only after page
                    # m-1's write completed — the same instant the
                    # page-by-page loop would have snapshotted it.
                    nonlocal flushed
                    for idx2, pg in batch:
                        if not pg.dirty:
                            continue  # flushed meanwhile (e.g. evicted)
                        payload = bytes(pg.data)
                        pg.dirty = False
                        flushed += 1
                        yield (idx2 * page_size - chunk_base, payload)

                yield from cache.write_ranges(
                    path, chunk_index, _ranges(), pre_range_delay=overhead
                )
                if flushed:
                    self.stats.writeback_bytes += flushed * page_size
                    counter = self._writeback_counter
                    if counter is None:
                        counter = self._writeback_counter = self.metrics.counter(
                            "pagecache.writeback.bytes"
                        )
                    counter.total += flushed * page_size
                    counter.count += flushed
                j = k
        yield from self.drain_path(path)

    def drop_path(self, path: str, *, sync: bool = True) -> Generator[Event, object, None]:
        """Flush (optionally) and evict all pages of ``path`` (munmap)."""
        if sync:
            yield from self.sync_path(path)
        else:
            yield from self.drain_path(path)
        bucket = self._by_path.pop(path, None)
        if bucket:
            pages = self._pages
            for page_idx in bucket:
                del pages[(path, page_idx)]

    def _check(self, path: str, offset: int, length: int) -> None:
        size = self.mount.stat_size(path)
        if offset < 0 or length < 0 or offset + length > size:
            raise MmapError(
                f"page-cache access [{offset}, {offset + length}) outside "
                f"{path!r} of size {size}"
            )
