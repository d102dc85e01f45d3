"""Small shared helpers: atomic file writes, input decoding errors and float
formatting."""

import os
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
def decode_errors_as(error, path):
    """Turn a UnicodeDecodeError raised while reading ``path`` into
    ``error``, a DataError subclass, so a file that is not UTF-8 text is bad
    data rather than a crash."""
    try:
        yield
    except UnicodeDecodeError:
        raise error(f"{path}: not a UTF-8 text file") from None


def fmt_float(value):
    """Shortest decimal string that round-trips to the same double."""
    return repr(float(value))
