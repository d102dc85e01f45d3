"""A binary copy of a manifest's columns, kept beside its CSV, and the
manifest writer that stores one for the CSV it writes.

Parsing and checking the CSV is most of a command's time on a large
manifest. After a load that rejected no row, ``load_manifest`` stores the
manifest's columns in ``.<name>.fbcache`` beside ``<name>``, and a later
load of the same bytes reads them back instead of parsing. ``write_manifest``
stores one too, keyed on the bytes as it writes them, whenever the CSV it
wrote parses back to the manifest. The CSV path stays the only validator:
like a ``.pyc``, a sidecar is a serialized result of a check that passed,
or of a write that parses back to what it wrote, never a second source of
truth.

The key is the CSV's byte count, CRC-32 and Adler-32, taken in one pass over
its bytes, plus a CRC-32 of the loader's and the writer's source (this
module, ``manifest.py`` and ``_util.py``), so that editing either
invalidates every sidecar. Only a regular file has a key: a FIFO or
``/dev/stdin`` is never read twice. A sidecar is used only when its owner
is the effective user (on POSIX), its key matches, its lengths agree with
its size, its checksum holds, its indices are in range and its groups equal
the caller's ``groups``. Anything else, and any write that fails, is a
miss: the load takes the CSV path, so a sidecar can never change a result
or an exit code.

A sidecar that ``write_manifest`` stored for a CSV of one line per row also
says so (``lines``): line r + 1 of the CSV is the writer's formatting of row
r. A manifest loaded from such a sidecar keeps the CSV as its source, and so
do its subsets and its relabelling, so writing one of them copies each row's
line from the source and formats only the rows ``relabel`` moved. The copy
reads the source a chunk at a time and takes its key over every byte read;
when the source is gone or no longer has its key and line count, the copy's
temp file is discarded and every row is formatted.

Layout: one JSON header line (key, group labels, image and identity
counts, the ``lines`` flag); the arrays ``row_identity`` and
``identity_groups`` (``'I'``) and ``scores`` (``'d'``) in native byte order;
the image ids and then the identity ids, each LF-terminated UTF-8 (no id
holds a control character); and a big-endian CRC-32 of all that in four
bytes.
"""

import json
import os
import stat
import sys
import zlib
from array import array
from bisect import bisect_left
from itertools import chain, compress, repeat
from operator import sub

from ._util import atomic_write, csv_chunks, csv_text, field_limit
from .errors import DataError
from .manifest import _CONTROL_CHARS, GroupSet, Manifest, _records, _Source

# bytes read per step while taking a key, reading the ids or copying lines
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
            manifest = _read(path, key, groups)
        except (OSError, ValueError, TypeError, LookupError, EOFError, DataError):
            manifest = None
        if manifest is not None:
            return manifest
    manifest = parse(path, groups, permissive)
    if key is not None and manifest.rejected_rows == 0:
        _store(path, key, manifest)
    return manifest


def write(manifest, path, header):
    """Write ``manifest`` under the CSV ``header`` to ``path``, then store
    its sidecar when that CSV parses back to it.

    A manifest with a source copies the lines of its unmarked rows from it;
    when the copy finds the source gone or changed, its temp file is
    discarded and every row is formatted, as for a manifest without one."""
    tally = None
    if manifest._source is not None:
        try:
            tally = _write(path, _copied(manifest, header))
        except _Stale:
            pass
    if tally is None:
        chunks = csv_chunks(header, _records(manifest))
        tally = _write(path, map(str.encode, chunks))
    if not _round_trips(manifest):
        return
    try:
        key = tally.key()
    except OSError:  # the writer's own source cannot be read
        return
    _store(path, key, manifest, tally.lines == len(manifest._image_ids) + 1)


class _Stale(Exception):
    """The source no longer holds the lines its sidecar vouched for."""


class _Tally:
    """The byte count, CRC-32, Adler-32 and line ends of the bytes added."""

    __slots__ = ("size", "crc", "adler", "lines")

    def __init__(self):
        self.size, self.crc, self.adler, self.lines = 0, 0, 1, 0

    def add(self, data):
        self.size += len(data)
        self.crc = zlib.crc32(data, self.crc)
        self.adler = zlib.adler32(data, self.adler)
        self.lines += data.count(b"\n")

    def key(self):
        """The key of a file of the bytes added, as a JSON-ready list."""
        return [
            _code(), sys.byteorder, array("I").itemsize, self.size, self.crc, self.adler
        ]


def _write(path, chunks):
    """Write the byte strings ``chunks`` to ``path`` through
    ``atomic_write``; returns their tally."""
    tally = _Tally()
    with atomic_write(path, binary=True) as handle:
        for data in chunks:
            handle.write(data)
            tally.add(data)
    return tally


def _copied(manifest, header):
    """The CSV of ``manifest`` under ``header``, in byte strings of about
    ``_READ_CHUNK``: the header and the marked rows formatted, every other
    row's line copied from the source, which is read once, a chunk at a
    time. Raises ``_Stale``, at the latest after the last chunk, when the
    source cannot be read or lacks the key and line count of its sidecar."""
    source = manifest._source
    width = len(header)
    yield csv_text([header], width).encode()
    n, rows = len(manifest._image_ids), source.rows
    marked = list(compress(range(n), source.marks))
    seen = _Tally()
    # the next row to write, its index in marked, and the source row of the
    # first line in a chunk
    r = k = start = 0
    pending = b""
    try:
        if not stat.S_ISREG(os.stat(source.path).st_mode):
            raise _Stale
        with open(source.path, "rb") as handle:
            first = handle.readline(_HEADER_LIMIT)
            seen.add(first)
            if not first.endswith(b"\n"):
                raise _Stale
            while data := handle.read(_READ_CHUNK):
                seen.add(data)
                lines = (pending + data).split(b"\n")
                pending = lines.pop()
                # a line this long is not held whole; its rows are formatted
                if len(pending) > _HEADER_LIMIT:
                    raise _Stale
                stop = start + len(lines)
                # the rows whose source row lies in [start, stop), and their lines
                end = bisect_left(rows, stop, r)
                kept = list(map(lines.__getitem__, map(sub, rows[r:end], repeat(start))))
                fresh = marked[k:bisect_left(marked, end, k)]
                if fresh:
                    text = csv_text(list(_records(manifest, fresh)), width)
                    # one line a row: its ids and label hold no line end
                    formatted = text.encode().split(b"\n")
                    if len(formatted) != len(fresh) + 1:
                        raise _Stale
                    for row, line in zip(fresh, formatted):
                        kept[row - r] = line
                    k += len(fresh)
                if kept:
                    kept.append(b"")
                    yield b"\n".join(kept)
                r, start = end, stop
    except OSError:
        raise _Stale from None
    if pending or r != n or seen.lines != source.count + 1 or seen.key() != source.key:
        raise _Stale


def _round_trips(manifest):
    """Whether the CSV ``write_manifest`` writes for ``manifest`` parses back
    to its columns. It does not when a group label holds a control
    character, which the CSV writer may leave unquoted, or a cell is longer
    than the CSV reader takes."""
    labels = manifest.groups.labels
    if any(map(_CONTROL_CHARS.search, labels)):
        return False
    cells = chain(labels, manifest._image_ids, manifest._identity_ids)
    # a label's longest cell is its score column
    return max(map(len, cells)) + len("score_") <= field_limit()


def _store(path, key, manifest, lines=None):
    """Write the sidecar of ``manifest`` under ``key`` beside ``path``,
    unless no file can be written there. ``lines`` is None for the load of
    ``path``, whose sidecar is dropped when ``path`` no longer has ``key``;
    from ``write``, it says whether line r + 1 of ``path`` is row r."""
    head = {
        "key": key,
        "labels": manifest.groups.labels,
        "images": len(manifest._image_ids),
        "identities": len(manifest._identity_ids),
        "lines": bool(lines),
    }
    try:
        with atomic_write(_sidecar_path(path), binary=True) as handle:
            # only its owner may read this copy of the data, whatever the umask
            if hasattr(os, "fchmod"):
                os.fchmod(handle.fileno(), 0o600)
            # a CSV that changed while it was parsed gets no sidecar; taken
            # once the temp file exists, so a directory that cannot be
            # written costs one key pass, not two
            if lines is None and _key(path) != key:
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


def _code():
    """The CRC-32 of the loader's and the writer's source, read once."""
    global _code_crc
    if _code_crc is None:
        crc = 0
        for name in _SOURCES:
            with open(os.path.join(os.path.dirname(__file__), name), "rb") as f:
                crc = zlib.crc32(f.read(), crc)
        _code_crc = crc
    return _code_crc


def _key(path):
    """The CSV's key as a JSON-ready list, or None when ``path`` does not
    name a regular file that can be read, or the loader's source cannot be."""
    try:
        _code()
        # a FIFO is not even opened: a reader that only looks can make it
        # drop its data; a file descriptor is not read twice either
        if not isinstance(os.fspath(path), str) or not stat.S_ISREG(
            os.stat(path).st_mode
        ):
            return None
        tally = _Tally()
        with open(path, "rb", buffering=0) as raw:
            while data := raw.read(_READ_CHUNK):
                tally.add(data)
    except (OSError, TypeError, ValueError):
        return None
    return tally.key()


def _read(path, key, groups):
    """The manifest in the sidecar of the CSV ``path``, whose key is ``key``,
    with the CSV as its source when the sidecar says its lines are its rows;
    None when the sidecar cannot vouch for ``path``."""
    with open(_sidecar_path(path), "rb") as handle:
        info = os.fstat(handle.fileno())
        if not stat.S_ISREG(info.st_mode) or (
            hasattr(os, "geteuid") and info.st_uid != os.geteuid()
        ):
            return None
        line = handle.readline(_HEADER_LIMIT)
        head = json.loads(line)
        labels, lines = tuple(head["labels"]), head["lines"]
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
        source=_Source.of_file(os.path.abspath(path), key, n) if lines else None,
    )
