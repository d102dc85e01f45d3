"""Small shared helpers: atomic file writes, the CSV reader and writer, and
warnings."""

import csv
import os
import sys
import tempfile
from contextlib import contextmanager


@contextmanager
def atomic_write(path):
    """Write UTF-8 text with LF line ends to a temp file in the target
    directory, then rename it into place.

    The rename is atomic on POSIX, so readers never observe a half-written
    file and a crash leaves the previous version intact. A temp file that
    cannot be created or renamed raises ``OSError("cannot write <path>:
    <reason>")``, naming ``path`` rather than the temp file.
    """
    directory = os.path.dirname(os.path.abspath(path))
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp.", suffix="~")
    except OSError as exc:
        raise _cannot_write(path, exc) from exc
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
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
    ``path`` through :func:`atomic_write`. The csv module writes a float as
    its ``repr``, the shortest decimal string that round-trips to the same
    double."""
    with atomic_write(path) as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


@contextmanager
def read_csv(path, error):
    """Open the input CSV ``path`` and yield ``(header, records)``.

    ``header`` is the first record, or None for an empty file. ``records``
    streams the non-blank records after it as ``(line, row)`` pairs, where
    ``line`` is the physical line the record starts on. The file is UTF-8
    with an optional BOM. An unreadable path, a header with duplicate
    columns, bytes that are not UTF-8 and a record the csv module cannot
    parse raise ``error``, a DataError subclass, so no input file reaches a
    traceback.
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
                    yield start, row
                start = reader.line_num + 1

        try:
            header = next(reader, None)
            start = reader.line_num + 1
            if header is not None and len(header) != len(set(header)):
                raise error(f"{path}: duplicate columns in header")
            yield header, records()
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
