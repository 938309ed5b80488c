"""Oracle for :mod:`repro.bootstrap.letters`.

:func:`bytes_to_letters` is the per-byte encoding loop that the table-driven
:func:`repro.bootstrap.letters.bytes_to_letters` must match exactly.  (The
per-character decoding loop is not here: it stays in the library as
``_letters_to_bytes_fallback``, which the fast decoder runs on non-ASCII
text.)
"""

from __future__ import annotations

from repro.bootstrap.letters import ALPHABET


def bytes_to_letters(data: bytes) -> str:
    """Two Bootstrap letters per byte, high nibble first."""
    letters = []
    for byte in data:
        letters.append(ALPHABET[(byte >> 4) & 0xF])
        letters.append(ALPHABET[byte & 0xF])
    return "".join(letters)
