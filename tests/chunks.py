"""Running the readers and the CSV writer with small pieces.

``bubblekit.io`` reads a CSV body, and continuous JSON's number arrays, a
piece of about ``_CHUNK`` characters at a time, and writes a CSV document
``_ROWS`` rows at a time.  The tests read the same documents with pieces as
small as one character, and write them with pieces as small as one row, so
that the cuts fall everywhere a short document allows.
"""

import contextlib

from hypothesis import strategies as st

from bubblekit import io as bio

CHUNKS = st.sampled_from([1, 2, 5, 16, bio._CHUNK])
ROWS = st.sampled_from([1, 2, 3, bio._ROWS])


@contextlib.contextmanager
def chunks_of(size):
    """The readers take ``size`` characters, and the continuous scan checks
    ``size`` characters, at a time."""
    saved, bio._CHUNK = bio._CHUNK, size
    try:
        yield
    finally:
        bio._CHUNK = saved


@contextlib.contextmanager
def pieces_of(rows):
    """The CSV writer formats ``rows`` rows at a time."""
    saved, bio._ROWS = bio._ROWS, rows
    try:
        yield
    finally:
        bio._ROWS = saved
