"""A binary copy of a cleanly loaded manifest's columns, kept beside its CSV.

Parsing and checking the CSV is most of a command's time on a large
manifest. After a load that rejected no row, ``load_manifest`` stores the
manifest's columns in ``.<name>.fbcache`` beside ``<name>``, and a later
load of the same bytes reads them back instead of parsing. The CSV path
stays the only validator: like a ``.pyc``, a sidecar is a serialized result
of a check that passed, never a second source of truth.

The key is the CSV's byte count, CRC-32 and Adler-32, taken in one pass over
its bytes, plus a CRC-32 of the loader's own source (this module,
``manifest.py`` and ``_util.py``), so that editing the loader invalidates
every sidecar. Only a regular file has a key: a FIFO or ``/dev/stdin`` is
never read twice. A sidecar is used only when its owner is the effective
user (on POSIX), its key matches, its lengths agree with its size, its
checksum holds, its indices are in range and its groups equal the caller's
``groups``. Anything else, and any write that fails, is a miss: the load
takes the CSV path, so a sidecar can never change a result or an exit code.

Layout: one JSON header line (key, group labels, image and identity
counts); the arrays ``row_identity`` and ``identity_groups`` (``'I'``) and
``scores`` (``'d'``) in native byte order; the image ids and then the
identity ids, each LF-terminated UTF-8 (no id holds a control character);
and a big-endian CRC-32 of all that in four bytes.
"""

import json
import os
import stat
import sys
import zlib
from array import array

from ._util import atomic_write
from .errors import DataError
from .manifest import GroupSet, Manifest

# bytes read per step while taking a key or reading the ids
_READ_CHUNK = 1 << 16
# ids joined and encoded per write
_ID_CHUNK = 2048
# a longer first line is not a header, and is not read into memory whole
_HEADER_LIMIT = 1 << 20
_SOURCES = ("_sidecar.py", "manifest.py", "_util.py")
_code_crc = None


def load(parse, path, groups, permissive):
    """The manifest in the sidecar of the CSV at ``path`` on a hit; on a
    miss, ``parse(path, groups, permissive)``, stored when it rejected no
    row."""
    key = _key(path)
    if key is not None:
        try:
            manifest = _read(_sidecar_path(path), key, groups)
        except (OSError, ValueError, TypeError, LookupError, EOFError, DataError):
            manifest = None
        if manifest is not None:
            return manifest
    manifest = parse(path, groups, permissive)
    if key is not None and manifest.rejected_rows == 0:
        _store(path, key, manifest)
    return manifest


def _store(path, key, manifest):
    """Write the sidecar of ``manifest``, the load of ``path`` under
    ``key``, unless no file can be written beside it or ``path`` no longer
    has that key."""
    head = {
        "key": key,
        "labels": manifest.groups.labels,
        "images": len(manifest._image_ids),
        "identities": len(manifest._identity_ids),
    }
    try:
        with atomic_write(_sidecar_path(path), binary=True) as handle:
            # only its owner may read this copy of the data, whatever the umask
            if hasattr(os, "fchmod"):
                os.fchmod(handle.fileno(), 0o600)
            # a CSV that changed while it was parsed gets no sidecar; taken
            # once the temp file exists, so a directory that cannot be
            # written costs one key pass, not two
            if _key(path) != key:
                raise OSError(f"{path} changed while it was loaded")
            data = json.dumps(head).encode() + b"\n"
            handle.write(data)
            crc = zlib.crc32(data)
            for column in (
                manifest._row_identity, manifest._identity_groups, manifest._scores
            ):
                column.tofile(handle)
                crc = zlib.crc32(column, crc)
            for ids in (manifest._image_ids, manifest._identity_ids):
                for start in range(0, len(ids), _ID_CHUNK):
                    data = "\n".join(ids[start:start + _ID_CHUNK]).encode()
                    handle.write(data)
                    handle.write(b"\n")
                    crc = zlib.crc32(b"\n", zlib.crc32(data, crc))
            handle.write(crc.to_bytes(4, "big"))
    except OSError:
        pass


def _sidecar_path(path):
    directory, name = os.path.split(os.fspath(path))
    return os.path.join(directory, f".{name}.fbcache")


def _key(path):
    """The CSV's key as a JSON-ready list, or None when ``path`` does not
    name a regular file that can be read, or the loader's source cannot be."""
    global _code_crc
    try:
        if _code_crc is None:
            crc = 0
            for name in _SOURCES:
                with open(os.path.join(os.path.dirname(__file__), name), "rb") as f:
                    crc = zlib.crc32(f.read(), crc)
            _code_crc = crc
        # a FIFO is not even opened: a reader that only looks can make it
        # drop its data; a file descriptor is not read twice either
        if not isinstance(os.fspath(path), str) or not stat.S_ISREG(
            os.stat(path).st_mode
        ):
            return None
        buffer = bytearray(_READ_CHUNK)
        view = memoryview(buffer)
        size, crc, adler = 0, 0, 1
        with open(path, "rb", buffering=0) as raw:
            while count := raw.readinto(buffer):
                size += count
                crc = zlib.crc32(view[:count], crc)
                adler = zlib.adler32(view[:count], adler)
    except (OSError, TypeError, ValueError):
        return None
    return [_code_crc, sys.byteorder, array("I").itemsize, size, crc, adler]


def _read(sidecar, key, groups):
    with open(sidecar, "rb") as handle:
        info = os.fstat(handle.fileno())
        if not stat.S_ISREG(info.st_mode) or (
            hasattr(os, "geteuid") and info.st_uid != os.geteuid()
        ):
            return None
        line = handle.readline(_HEADER_LIMIT)
        head = json.loads(line)
        labels = tuple(head["labels"])
        if head["key"] != key or (groups is not None and groups.labels != labels):
            return None
        n, m, d = head["images"], head["identities"], len(labels)
        row_identity, identity_groups, scores = array("I"), array("I"), array("d")
        id_bytes = info.st_size - len(line) - 4 - (
            row_identity.itemsize * (n + m) + scores.itemsize * n * d
        )
        # every id is at least one character and a line end
        if not (n >= 1 and m >= 1 and id_bytes >= 2 * (n + m)):
            return None
        row_identity.fromfile(handle, n)
        identity_groups.fromfile(handle, m)
        scores.fromfile(handle, n * d)
        crc = zlib.crc32(line)
        for column in (row_identity, identity_groups, scores):
            crc = zlib.crc32(column, crc)
        # the ids are checked, decoded and split a chunk at a time: the
        # whole block is never held as bytes or as one str
        image_ids, identity_ids, pending = [], [], bytearray()
        while id_bytes > 0:
            data = handle.read(min(id_bytes, _READ_CHUNK))
            if not data:
                return None
            id_bytes -= len(data)
            crc = zlib.crc32(data, crc)
            pending += data
            end = pending.rfind(b"\n")
            if end >= 0:
                ids = pending[:end].decode().split("\n")
                del pending[:end + 1]
                room = n - len(image_ids)
                image_ids += ids[:room]
                identity_ids += ids[room:]
        if pending or handle.read() != crc.to_bytes(4, "big"):
            return None
    if (
        len(image_ids) != n
        or len(identity_ids) != m
        or max(row_identity) >= m
        or max(identity_groups) >= d
    ):
        return None
    return Manifest._of_columns(
        GroupSet(labels) if groups is None else groups,
        image_ids, row_identity, scores, identity_ids, identity_groups,
    )
