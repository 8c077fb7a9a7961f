"""POSIX-style open flags implemented by the FUSE layer.

The paper extends its FUSE file system with the flags ``mmap`` requires;
``O_RDWR`` in particular must guarantee that written data is immediately
readable (§III-C).
"""

from __future__ import annotations

import enum


class OpenFlags(enum.IntFlag):
    """Subset of POSIX open(2) flags honoured by :class:`FuseMount`."""

    O_RDONLY = 0x0
    O_WRONLY = 0x1
    O_RDWR = 0x2
    O_CREAT = 0x40
    O_TRUNC = 0x200

    # These mask plain ints: ``Flag.__and__`` builds a flag object in
    # Python on every call, and they run on every FUSE read and write.

    @property
    def readable(self) -> bool:
        """True when the flags permit reading."""
        return not int(self) & _WRONLY

    @property
    def writable(self) -> bool:
        """True when the flags permit writing."""
        return bool(int(self) & _WRITE_MODES)

    @property
    def creates(self) -> bool:
        """True when ``O_CREAT`` is set."""
        return bool(int(self) & _CREAT)


_WRONLY = int(OpenFlags.O_WRONLY)
_WRITE_MODES = int(OpenFlags.O_WRONLY) | int(OpenFlags.O_RDWR)
_CREAT = int(OpenFlags.O_CREAT)
