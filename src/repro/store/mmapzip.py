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

Deflated members cannot be mapped: :meth:`MappedArchive.npy_member`
returns ``None`` for them, and :meth:`MappedArchive.array` inflates
them from the mapping instead, so :func:`npz_arrays` reads any ``.npz``
with one parse of its zip directory.  :func:`write_stored_zip` writes
the store's mappable archives, with every member's data aligned by
:func:`aligned_entry`.
"""

from __future__ import annotations

import ast
import mmap
import operator
import struct
import zipfile
import zlib
from collections.abc import Iterable
from pathlib import Path

import numpy as np

__all__ = [
    "ZIP_READ_ERRORS",
    "MappedArchive",
    "aligned_entry",
    "is_mapped",
    "npz_arrays",
    "write_stored_zip",
]

_NPY_MAGIC = b"\x93NUMPY"

#: Fixed part of a zip local file header (PK\x03\x04 ... name/extra lens).
_LOCAL_HEADER_BYTES = 30

#: Where :func:`aligned_entry` starts a member's data: a multiple of 64
#: bytes suits every dtype, so mapped arrays take numpy's aligned
#: loops.  The padding is an extra field (the id zipalign uses), which
#: zip readers skip.
_ALIGN = 64
_PAD_EXTRA_ID = 0xD935

#: Deflate expands data at most 1032-fold: a member that declares more
#: is damaged, and one that declares less can be inflated at its size.
_MAX_INFLATE = 1032

#: What reading a damaged archive can raise, through ``zipfile`` (bad
#: CRCs, mismatched local headers, truncated or corrupt deflate streams,
#: unsupported compression) or through this module (``ValueError``).
ZIP_READ_ERRORS = (
    OSError, ValueError, EOFError, RuntimeError, zipfile.BadZipFile, zlib.error
)


def _npy_from_buffer(buf: memoryview) -> np.ndarray:
    """Parse one ``.npy`` member into a view over ``buf`` (no copy).

    Every malformed member raises ``ValueError``, whatever part of it is
    damaged, so readers can treat it as an unreadable payload.
    """
    if bytes(buf[:6]) != _NPY_MAGIC:
        raise ValueError("member is not an npy array (bad magic)")
    try:
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
        shape = tuple(operator.index(dim) for dim in meta["shape"])
        order = "F" if meta["fortran_order"] else "C"
    except (
        IndexError, KeyError, RecursionError, SyntaxError, TypeError, ValueError, struct.error
    ) as exc:
        raise ValueError(f"malformed npy header: {exc!r}") from None
    if dtype.hasobject:
        raise ValueError("refusing to map an object-dtype array")
    count = 1
    for dim in shape:
        count *= dim
    if min(shape, default=0) < 0 or data_off + count * dtype.itemsize > len(buf):
        raise ValueError(f"npy member does not hold a {shape} array")
    arr = np.frombuffer(buf, dtype=dtype, count=count, offset=data_off)
    return arr.reshape(shape, order=order)


class MappedArchive:
    """Read-only memory-mapped view of a zip archive's members.

    Arrays that :meth:`array` returns for stored members are views over
    one shared mapping; numpy keeps the mapping alive through ``.base``
    for as long as any view is referenced, so there is nothing to close
    explicitly.
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
        if (
            bytes(self._view[lo : lo + 4]) != b"PK\x03\x04"
            or lo + _LOCAL_HEADER_BYTES > len(self._view)
        ):
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
        return self._view[start : start + info.compress_size]

    def array(self, name: str) -> np.ndarray:
        """The named ``.npy`` member as a read-only array.

        A stored member is a zero-copy view over the mapping; a deflated
        one is inflated from the mapping and checked against its CRC.
        Raises ``KeyError`` when the member does not exist and
        ``ValueError`` when it is damaged or compressed another way.
        """
        info = self._infos[name]
        raw = self._member_view(info)
        if info.compress_type == zipfile.ZIP_DEFLATED:
            if info.file_size > _MAX_INFLATE * (info.compress_size + 1):
                raise ValueError(
                    f"{self.path}: {name!r} declares {info.file_size} bytes"
                )
            try:
                # Sized up front: one allocation, no growing buffers.
                raw = memoryview(
                    zlib.decompress(raw, -zlib.MAX_WBITS, info.file_size)
                )
            except zlib.error as exc:
                raise ValueError(f"{self.path}: {name!r}: {exc}") from None
            if len(raw) != info.file_size or zlib.crc32(raw) != info.CRC:
                raise ValueError(f"{self.path}: bad CRC-32 for {name!r}")
        elif info.compress_type != zipfile.ZIP_STORED:
            raise ValueError(
                f"{self.path}: {name!r} uses unsupported compression "
                f"{info.compress_type}"
            )
        return _npy_from_buffer(raw)

    def npy_member(self, name: str) -> np.ndarray | None:
        """The named ``.npy`` member as a zero-copy read-only array.

        Returns ``None`` when the member is compressed (not mappable);
        raises ``KeyError`` when it does not exist.
        """
        if self._infos[name].compress_type != zipfile.ZIP_STORED:
            return None
        return self.array(name)


def npz_arrays(path: str | Path) -> dict[str, np.ndarray]:
    """Every member of an ``.npz`` as ``{key: read-only array}``.

    One parse of the zip directory serves every member.  Stored members
    (the artifact store's layout) are views over one shared mapping;
    deflated ones (``savez_compressed``, as in the committed fixture
    pile) are inflated.  A damaged or foreign member raises
    ``ValueError``; an unreadable archive raises ``OSError`` or
    ``zipfile.BadZipFile``.
    """
    archive = MappedArchive(path)
    return {
        name[:-4] if name.endswith(".npy") else name: archive.array(name)
        for name in archive.members()
    }


def aligned_entry(name: str, offset: int) -> zipfile.ZipInfo:
    """A stored member's entry whose data starts on the 64-byte grid.

    ``offset`` is where the member's local header will be written.  The
    entry carries zip's fixed default timestamp.
    """
    info = zipfile.ZipInfo(name)
    pad = -(offset + _LOCAL_HEADER_BYTES + len(name.encode())) % _ALIGN
    if pad:
        pad += _ALIGN if pad < 4 else 0  # room for the field's header
        info.extra = struct.pack("<HH", _PAD_EXTRA_ID, pad - 4) + bytes(pad - 4)
    return info


def write_stored_zip(tmp: str | Path, members: Iterable[tuple[str, bytes]]) -> None:
    """Write ``(name, data)`` members uncompressed to the staging file ``tmp``.

    Each member's data starts at a multiple of 64 bytes; an ``.npy``
    header pads the array after it to 64 bytes as well, so every array
    of an ``.npz`` written here maps aligned.  Equal members give
    byte-equal archives.
    """
    with open(tmp, "wb") as f, zipfile.ZipFile(f, "w") as zf:
        for name, data in members:
            zf.writestr(aligned_entry(name, f.tell()), data)


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
