"""Zero-copy reads of uncompressed zip members.

numpy's ``.npz`` container is a zip of ``.npy`` members, and the native
``.rtrace`` archive is a zip of ``.npy`` chunk members.  When members
are *stored* (``ZIP_STORED``, no compression) every array lives
contiguously in the file at a knowable offset — so instead of inflating
each member into a private heap copy per process, the archive can be
mapped once (``mmap``, ``ACCESS_READ``) and each member exposed as a
read-only ndarray view over the shared mapping.  N campaign workers on
one host then share one page-cache copy of every profile and trace
chunk instead of deserializing N copies.

Deflated members cannot be mapped; :meth:`MappedArchive.npy_member`
returns ``None`` for them and callers fall back to normal
decompression (``np.load`` / ``zipfile``).
"""

from __future__ import annotations

import ast
import mmap
import struct
import zipfile
from pathlib import Path

import numpy as np

__all__ = ["MappedArchive", "is_mapped", "npz_arrays"]

_NPY_MAGIC = b"\x93NUMPY"

#: Fixed part of a zip local file header (PK\x03\x04 ... name/extra lens).
_LOCAL_HEADER_BYTES = 30


def _npy_from_buffer(buf: memoryview) -> np.ndarray:
    """Parse one ``.npy`` member into a view over ``buf`` (no copy)."""
    if bytes(buf[:6]) != _NPY_MAGIC:
        raise ValueError("member is not an npy array (bad magic)")
    major = buf[6]
    if major == 1:
        (hlen,) = struct.unpack("<H", bytes(buf[8:10]))
        data_off = 10 + hlen
        header = bytes(buf[10:data_off])
    elif major in (2, 3):
        (hlen,) = struct.unpack("<I", bytes(buf[8:12]))
        data_off = 12 + hlen
        header = bytes(buf[12:data_off])
    else:
        raise ValueError(f"unsupported npy format version {major}")
    meta = ast.literal_eval(header.decode("latin1"))
    dtype = np.dtype(meta["descr"])
    if dtype.hasobject:
        raise ValueError("refusing to map an object-dtype array")
    shape = tuple(meta["shape"])
    count = 1
    for dim in shape:
        count *= dim
    arr = np.frombuffer(buf, dtype=dtype, count=count, offset=data_off)
    return arr.reshape(shape, order="F" if meta["fortran_order"] else "C")


class MappedArchive:
    """Read-only memory-mapped view of a zip archive's stored members.

    Arrays returned by :meth:`npy_member` are views over one shared
    mapping; numpy keeps the mapping alive through ``.base`` for as long
    as any view is referenced, so there is nothing to close explicitly.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        with zipfile.ZipFile(self.path) as zf:
            self._infos = {info.filename: info for info in zf.infolist()}
        with open(self.path, "rb") as f:
            self._view = memoryview(
                mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_READ)
            )

    def members(self) -> list[str]:
        """Member names, in archive order."""
        return list(self._infos)

    def _member_view(self, info: zipfile.ZipInfo) -> memoryview:
        lo = info.header_offset
        if bytes(self._view[lo : lo + 4]) != b"PK\x03\x04":
            raise ValueError(
                f"{self.path}: corrupt local header for {info.filename!r}"
            )
        # The local header's name/extra lengths can differ from the
        # central directory's (zip64 padding), so read them from the
        # local header itself.
        nlen, elen = struct.unpack(
            "<HH", bytes(self._view[lo + 26 : lo + 30])
        )
        start = lo + _LOCAL_HEADER_BYTES + nlen + elen
        return self._view[start : start + info.file_size]

    def npy_member(self, name: str) -> np.ndarray | None:
        """The named ``.npy`` member as a zero-copy read-only array.

        Returns ``None`` when the member is compressed (not mappable);
        raises ``KeyError`` when it does not exist.
        """
        info = self._infos[name]
        if info.compress_type != zipfile.ZIP_STORED:
            return None
        return _npy_from_buffer(self._member_view(info))


def npz_arrays(path: str | Path) -> dict[str, np.ndarray] | None:
    """Map an uncompressed ``.npz`` as ``{key: read-only array view}``.

    Returns ``None`` if any member is compressed or not an ``.npy``
    array — the caller should fall back to ``np.load`` (which is what
    legacy ``savez_compressed`` cache entries need).
    """
    archive = MappedArchive(path)
    out: dict[str, np.ndarray] = {}
    for name in archive.members():
        try:
            arr = archive.npy_member(name)
        except ValueError:
            return None
        if arr is None:
            return None
        key = name[:-4] if name.endswith(".npy") else name
        out[key] = arr
    return out


def is_mapped(array: np.ndarray) -> bool:
    """Whether ``array`` views a file mapping, through any chain of views.

    A mapped member's chain runs ndarray -> ndarray -> memoryview ->
    ``mmap``; a decoded copy ends at its own buffer.
    """
    base: object = array
    while base is not None:
        if isinstance(base, mmap.mmap):
            return True
        if isinstance(base, memoryview):
            base = base.obj
        else:
            base = getattr(base, "base", None)
    return False
