"""Small shared helpers: atomic file writes, the CSV reader and writer, and
warnings."""

import csv
import io
import os
import sys
import tempfile
from contextlib import contextmanager
from itertools import chain, islice

# rows per formatted write in write_csv
CHUNK = 4096


@contextmanager
def atomic_write(path, binary=False):
    """Write UTF-8 text with LF line ends, or bytes when ``binary``, to a
    temp file in the target directory, then rename it into place.

    The rename is atomic on POSIX, so readers never observe a half-written
    file and a crash leaves the previous version intact. The file gets the
    mode a plain ``open`` would give it under the umask. A temp file that
    cannot be created or renamed raises ``OSError("cannot write <path>:
    <reason>")``, naming ``path`` rather than the temp file.
    """
    directory = os.path.dirname(os.path.abspath(path))
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp.", suffix="~")
    except OSError as exc:
        raise _cannot_write(path, exc) from exc
    try:
        text = {} if binary else {"encoding": "utf-8", "newline": "\n"}
        with os.fdopen(fd, "wb" if binary else "w", **text) as handle:
            # mkstemp makes the file 0600; the umask can only be read by setting it
            umask = os.umask(0o077)
            os.umask(umask)
            os.chmod(tmp, 0o666 & ~umask)
            yield handle
        try:
            os.replace(tmp, path)
        except OSError as exc:
            raise _cannot_write(path, exc) from exc
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _cannot_write(path, exc):
    return OSError(f"cannot write {path}: {exc.strerror or exc}")


def write_csv(path, header, rows):
    """Write the record ``header`` and then each of ``rows`` to the CSV
    ``path`` through :func:`atomic_write`, in the bytes of ``csv.writer``
    with LF line ends. Cells are ``str``, ``int`` or ``float``; a float is
    written as its ``repr``, the shortest decimal string that round-trips
    to the same double."""
    with atomic_write(path) as handle:
        handle.writelines(csv_chunks(header, rows))


def csv_chunks(header, rows):
    """The text :func:`write_csv` writes for ``header`` and ``rows``, one
    string per ``CHUNK`` records."""
    rows = chain((header,), rows)
    width = len(header)
    for chunk in iter(lambda: list(islice(rows, CHUNK)), []):
        yield csv_text(chunk, width)


def csv_text(rows, width):
    """The text of the records ``rows``, a non-empty list, each ended by
    LF, as ``csv.writer`` writes them under a header of ``width`` columns.

    When every record has that width, the records are formatted as one
    string, ``%s`` per cell, and that string is the result when it holds no
    ``"`` or CR and exactly the commas and line ends of its cell and row
    breaks, so no cell needs quoting; anything else goes through
    ``csv.writer``."""
    n = len(rows)
    # a lone empty cell is written as ""
    if width > 1 and set(map(len, rows)) == {width}:
        row_format = ",".join(["%s"] * width)
        text = "\n".join([row_format] * n) % tuple(chain.from_iterable(rows))
        if (
            text.count(",") == (width - 1) * n
            and text.count("\n") == n - 1
            and '"' not in text
            # quoted by csv.writer on some Python versions
            and "\r" not in text
        ):
            return text + "\n"
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows(rows)
    return buffer.getvalue()


def field_limit():
    """The longest field, in characters, that :func:`read_csv` reads."""
    return csv.field_size_limit()


@contextmanager
def read_csv(path, error, fixed, prefix=None, check_width=True):
    """Open the input CSV ``path`` and yield ``(labels, records)``.

    The header must start with the columns ``fixed``. With no ``prefix`` it
    must be exactly those; otherwise every later column starts with
    ``prefix``, and ``labels`` is the tuple of those columns without it.
    ``records`` streams the non-blank records after the header as ``(line,
    row)`` pairs, where ``line`` is the physical line the record starts on;
    when ``check_width``, each has as many fields as the header. The file is
    UTF-8 with an optional BOM. An unreadable path, an empty file, a header
    with duplicate columns or outside the rule, bytes that are not UTF-8, a
    record of the wrong width and a record the csv module cannot parse raise
    ``error``, a DataError subclass, so no input file reaches a traceback.
    """
    try:
        handle = open(path, encoding="utf-8-sig", newline="")
    except OSError as exc:
        raise error(f"cannot read {path}: {exc}") from exc
    with handle:
        reader = csv.reader(handle)
        start = 1

        def records():
            nonlocal start
            for row in reader:
                if row:
                    if check_width and len(row) != width:
                        raise error(
                            f"{path}: line {start}: expected {width} "
                            f"fields, got {len(row)}"
                        )
                    yield start, row
                start = reader.line_num + 1

        try:
            header = next(filter(None, reader), None)
            start = reader.line_num + 1
            if header is None:
                raise error(f"{path}: empty file")
            if len(header) != len(set(header)):
                raise error(f"{path}: duplicate columns in header")
            width, n = len(header), len(fixed)
            if header[:n] != list(fixed) or (prefix is None and width > n):
                rule = "expected header" if prefix is None else "header must start with"
                raise error(f"{path}: {rule} {','.join(fixed)}")
            for name in header[n:]:
                if not name.startswith(prefix):
                    raise error(f"{path}: unexpected column {name!r}")
            yield tuple(name[len(prefix):] for name in header[n:]), records()
        except UnicodeDecodeError:
            raise error(f"{path}: not a UTF-8 text file") from None
        except csv.Error as exc:
            raise error(f"{path}: line {start}: {exc}") from None


# The level name the CLI read from FAIRBALANCE_LOG, applied on the first
# warning; None once applied, or when no CLI runs.
_log_level = None


def set_log_level(name):
    """Have the first warning set up stderr logging at level ``name``
    (debug, info, warning, error; anything else means warning)."""
    global _log_level
    _log_level = name.upper()


def warn(logger, message, *args):
    """Log a warning on the named logger. ``logging`` is imported here, on
    the first warning, so a run without one never loads it."""
    import logging

    global _log_level
    if _log_level is not None:
        # logging also has constants that are not levels, such as BASIC_FORMAT
        level = getattr(logging, _log_level, None)
        if not isinstance(level, int):
            level = logging.WARNING
        logging.basicConfig(stream=sys.stderr, level=level)
        _log_level = None
    logging.getLogger(logger).warning(message, *args)
