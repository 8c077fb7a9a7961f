"""A striped, disk-backed parallel file system model.

``num_servers`` I/O servers each own one HDD; files are striped across
servers in ``stripe_size`` units.  Clients reach the PFS over the cluster
fabric through a single storage-network endpoint whose NIC models the
shared ingress bottleneck of a central scratch system.  Payload bytes are
real, so staged data round-trips exactly.
"""

from __future__ import annotations

from collections.abc import Generator

from repro.devices.hdd import HDD
from repro.devices.specs import HDD_7200RPM, DeviceSpec
from repro.errors import StoreError
from repro.network.fabric import Network
from repro.sim.engine import Engine
from repro.sim.events import Event
from repro.util.recorder import MetricsRecorder
from repro.util.units import MiB


class ParallelFileSystem:
    """Center-wide scratch storage shared by all compute nodes."""

    ENDPOINT = "pfs"

    def __init__(
        self,
        engine: Engine,
        network: Network,
        *,
        num_servers: int = 4,
        stripe_size: int = 1 * MiB,
        hdd_spec: DeviceSpec = HDD_7200RPM,
        metrics: MetricsRecorder | None = None,
    ) -> None:
        if num_servers < 1:
            raise StoreError("PFS needs at least one I/O server")
        self.engine = engine
        self.network = network
        self.stripe_size = stripe_size
        self.metrics = metrics if metrics is not None else MetricsRecorder()
        self.nic = network.attach(self.ENDPOINT)
        self.servers = [
            HDD(engine, hdd_spec, name=f"pfs.ost{i}", metrics=self.metrics)
            for i in range(num_servers)
        ]
        self._files: dict[str, bytearray] = {}

    # ------------------------------------------------------------------
    # Namespace
    # ------------------------------------------------------------------
    def create(self, name: str, size: int) -> None:
        """Create a zero-filled file (metadata-only in simulated time)."""
        if name in self._files:
            raise StoreError(f"PFS file {name!r} already exists")
        if size < 0:
            raise StoreError(f"negative size {size}")
        self._files[name] = bytearray(size)

    def exists(self, name: str) -> bool:
        """True when the PFS holds a file called ``name``."""
        return name in self._files

    def size(self, name: str) -> int:
        """Size of a PFS file in bytes."""
        return len(self._file(name))

    def unlink(self, name: str) -> None:
        """Delete a PFS file."""
        self._file(name)
        del self._files[name]

    def _file(self, name: str) -> bytearray:
        try:
            return self._files[name]
        except KeyError:
            raise StoreError(f"no PFS file {name!r}") from None

    def read_raw(self, name: str) -> bytes:
        """The raw stored contents, for verification in tests/drivers
        (charges no simulated time)."""
        return bytes(self._file(name))

    def view(self, name: str) -> memoryview:
        """A read-only, zero-copy view of the stored contents, for
        verification in drivers (charges no simulated time)."""
        return memoryview(self._file(name)).toreadonly()

    def put_initial(
        self, name: str, data: bytes | bytearray | memoryview
    ) -> None:
        """Pre-populate a file without charging time (experiment setup:
        input data already resides on scratch before the job starts).
        The bytes of ``data`` are copied."""
        if name in self._files:
            raise StoreError(f"PFS file {name!r} already exists")
        self._files[name] = bytearray(data)

    # ------------------------------------------------------------------
    # Data path
    # ------------------------------------------------------------------
    def _stripes(self, offset: int, length: int) -> list[tuple[int, int, int]]:
        """(server, server_offset, piece) runs covering the byte range."""
        runs: list[tuple[int, int, int]] = []
        cursor = offset
        end = offset + length
        nservers = len(self.servers)
        while cursor < end:
            stripe_idx = cursor // self.stripe_size
            in_stripe = cursor - stripe_idx * self.stripe_size
            piece = min(self.stripe_size - in_stripe, end - cursor)
            server = stripe_idx % nservers
            # Offset on the server's disk: stripes land contiguously per
            # server in round-robin order.
            server_off = (stripe_idx // nservers) * self.stripe_size + in_stripe
            runs.append((server, server_off, piece))
            cursor += piece
        return runs

    def read(
        self, client: str, name: str, offset: int, length: int
    ) -> Generator[Event, object, bytes]:
        """Read bytes from a PFS file into a compute node."""
        data = self._file(name)
        self._check(name, offset, length)
        for server, server_off, piece in self._stripes(offset, length):
            yield from self.servers[server].read_extent(
                server_off, piece, stream=(name, client)
            )
        yield from self.network.transfer(self.ENDPOINT, client, length)
        self.metrics.add("pfs.read.bytes", length)
        return bytes(memoryview(data)[offset : offset + length])

    def write(
        self, client: str, name: str, offset: int, payload: bytes
    ) -> Generator[Event, object, None]:
        """Write bytes from a compute node to a PFS file."""
        data = self._file(name)
        self._check(name, offset, len(payload))
        yield from self.network.transfer(client, self.ENDPOINT, len(payload))
        for server, server_off, piece in self._stripes(offset, len(payload)):
            yield from self.servers[server].write_extent(
                server_off, piece, stream=(name, client)
            )
        data[offset : offset + len(payload)] = payload
        self.metrics.add("pfs.write.bytes", len(payload))

    def _check(self, name: str, offset: int, length: int) -> None:
        size = len(self._file(name))
        if offset < 0 or length < 0 or offset + length > size:
            raise StoreError(
                f"PFS access [{offset}, {offset + length}) outside {name!r} "
                f"of size {size}"
            )
