"""Small shared helpers: atomic file writes, the input CSV reader, float
formatting and warnings."""

import csv
import os
import sys
import tempfile
from contextlib import contextmanager


@contextmanager
def atomic_write(path, newline="\n"):
    """Write to a temp file in the target directory, then rename into place.

    The rename is atomic on POSIX, so readers never observe a half-written
    file and a crash leaves the previous version intact.
    """
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp.", suffix="~")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline=newline) as handle:
            yield handle
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


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


def fmt_float(value):
    """Shortest decimal string that round-trips to the same double."""
    return repr(float(value))


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
