"""The hexadecimal letter encoding used by the Bootstrap.

The paper specifies the mapping exactly: "letters A to P are used to encode
hexadecimal values 0xF to 0x0 respectively" — that is, ``A`` is 0xF, ``B`` is
0xE, ..., ``P`` is 0x0.  Each byte becomes two letters (high nibble first).
Using only sixteen distinct, visually unambiguous capital letters keeps the
text trivially OCR-able and even hand-typable decades from now.
"""

from __future__ import annotations

import numpy as np

from repro.errors import LetterCodecError

#: Letter used for nibble value v is ALPHABET[v]; ALPHABET[0xF] == "A".
ALPHABET = "PONMLKJIHGFEDCBA"

#: Reverse lookup table from letter to nibble value.
LETTER_VALUES = {letter: value for value, letter in enumerate(ALPHABET)}

#: Characters that are ignored when decoding (layout whitespace).
_IGNORED = set(" \t\r\n")

#: Per-ASCII-character class for the vectorised decoder: the nibble value for
#: A..P / a..p, ``_CLASS_IGNORED`` for layout whitespace, ``_CLASS_INVALID``
#: otherwise.  Non-ASCII text takes the per-character fallback (a handful of
#: exotic codepoints, e.g. dotless i, also uppercase into A..P).
_CLASS_INVALID = np.int8(-1)
_CLASS_IGNORED = np.int8(-2)
_CHAR_CLASS = np.full(128, _CLASS_INVALID, dtype=np.int8)
for _letter, _value in LETTER_VALUES.items():
    _CHAR_CLASS[ord(_letter)] = _value
    _CHAR_CLASS[ord(_letter.lower())] = _value
for _char in _IGNORED:
    _CHAR_CLASS[ord(_char)] = _CLASS_IGNORED

#: Letter-pair lookup for the vectorised encoder: entry ``b`` is the two
#: letters of byte ``b`` (high nibble first) as two ASCII codes.
_BYTE_PAIRS = np.empty((256, 2), dtype=np.uint8)
for _byte in range(256):
    _BYTE_PAIRS[_byte, 0] = ord(ALPHABET[(_byte >> 4) & 0xF])
    _BYTE_PAIRS[_byte, 1] = ord(ALPHABET[_byte & 0xF])


def bytes_to_letters(data: bytes) -> str:
    """Encode bytes as Bootstrap letters, two letters per byte (high nibble first)."""
    if not data:
        return ""
    pairs = _BYTE_PAIRS[np.frombuffer(bytes(data), dtype=np.uint8)]
    return pairs.tobytes().decode("ascii")


def letters_to_bytes(text: str) -> bytes:
    """Decode Bootstrap letters back into bytes, ignoring whitespace.

    Raises
    ------
    LetterCodecError
        On characters outside A..P or an odd number of letters.

    The hot path classifies every character with one table gather (the
    Bootstrap document is parsed on each restore, and a per-character loop
    was a measurable slice of restore latency).  Text the table cannot
    classify — non-ASCII characters and lone surrogates — takes
    :func:`_letters_to_bytes_fallback`, which decodes identically.
    """
    # One uint32 per character keeps error positions aligned with ``text``.
    try:
        encoded = text.encode("utf-32-le")
    except UnicodeEncodeError:  # lone surrogates: let the fallback report them
        return _letters_to_bytes_fallback(text)
    codes = np.frombuffer(encoded, dtype=np.uint32)
    if codes.size == 0:
        return b""
    if codes.max() >= 128:
        return _letters_to_bytes_fallback(text)
    classes = _CHAR_CLASS[codes]
    invalid = classes == _CLASS_INVALID
    if invalid.any():
        position = int(np.nonzero(invalid)[0][0])
        raise LetterCodecError(
            f"invalid Bootstrap letter {text[position]!r} at position {position}"
        )
    nibbles = classes[classes != _CLASS_IGNORED]
    if nibbles.size % 2:
        raise LetterCodecError("odd number of letters: each byte needs two")
    values = nibbles.astype(np.uint8)
    return ((values[0::2] << 4) | values[1::2]).tobytes()


def _letters_to_bytes_fallback(text: str) -> bytes:
    """The per-character decoding loop :func:`letters_to_bytes` falls back to."""
    nibbles = []
    for position, char in enumerate(text):
        if char in _IGNORED:
            continue
        upper = char.upper()
        if upper not in LETTER_VALUES:
            raise LetterCodecError(
                f"invalid Bootstrap letter {char!r} at position {position}"
            )
        nibbles.append(LETTER_VALUES[upper])
    if len(nibbles) % 2:
        raise LetterCodecError("odd number of letters: each byte needs two")
    out = bytearray()
    for index in range(0, len(nibbles), 2):
        out.append((nibbles[index] << 4) | nibbles[index + 1])
    return bytes(out)


def format_letter_pages(
    letters: str,
    letters_per_line: int = 64,
    lines_per_page: int = 60,
) -> list[str]:
    """Lay the letter stream out into printable pages of grouped lines.

    Letters are grouped in blocks of eight separated by spaces so a human can
    keep their place while typing them back in; whitespace is ignored by
    :func:`letters_to_bytes`.
    """
    lines = []
    for start in range(0, len(letters), letters_per_line):
        chunk = letters[start:start + letters_per_line]
        grouped = " ".join(chunk[i:i + 8] for i in range(0, len(chunk), 8))
        lines.append(grouped)
    pages = []
    for start in range(0, len(lines), lines_per_page):
        pages.append("\n".join(lines[start:start + lines_per_page]))
    return pages or [""]
