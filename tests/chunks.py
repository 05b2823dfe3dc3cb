"""Running the readers with small chunk sizes.

``bubblekit.io`` reads a CSV body, and continuous JSON's number arrays, a
piece of about ``_CHUNK`` characters at a time.  The tests read the same
documents with pieces as small as one character, so that the cuts fall
everywhere a short document allows.
"""

import contextlib

from hypothesis import strategies as st

from bubblekit import io as bio

CHUNKS = st.sampled_from([1, 2, 5, 16, bio._CHUNK])


@contextlib.contextmanager
def chunks_of(size):
    """The readers take ``size`` characters, and the continuous scan checks
    ``size`` characters, at a time."""
    saved, bio._CHUNK = bio._CHUNK, size
    try:
        yield
    finally:
        bio._CHUNK = saved
