"""GF(256) arithmetic used by the Reed-Solomon codes.

The field is GF(2^8) with the conventional primitive polynomial
x^8 + x^4 + x^3 + x^2 + 1 (0x11D) and generator alpha = 2.  Log/antilog
tables are precomputed once; element-wise operations are exposed both for
Python ints and for numpy arrays so the block codes can be vectorised across
many codewords at once.
"""

from __future__ import annotations

import numpy as np
from repro.util.nptypes import SymbolArray

#: The primitive polynomial defining GF(256).
PRIMITIVE_POLYNOMIAL = 0x11D


def _build_tables() -> tuple[SymbolArray, SymbolArray]:
    exp = np.zeros(512, dtype=np.int32)
    log = np.zeros(256, dtype=np.int32)
    value = 1
    for power in range(255):
        exp[power] = value
        log[value] = power
        value <<= 1
        if value & 0x100:
            value ^= PRIMITIVE_POLYNOMIAL
    exp[255:510] = exp[0:255]
    return exp, log


#: exp[i] = alpha**i for i in 0..509 (doubled so products need no modulo).
EXP_TABLE, LOG_TABLE = _build_tables()


def _build_mul_table() -> SymbolArray:
    values = np.arange(1, 256)
    table = np.zeros((256, 256), dtype=np.uint8)
    table[1:, 1:] = EXP_TABLE[
        LOG_TABLE[values][:, None] + LOG_TABLE[values][None, :]
    ].astype(np.uint8)
    return table


#: Full 256 x 256 multiplication table (64 KB, fits in L1/L2 cache).  A single
#: fancy-indexed gather ``MUL_TABLE[a, b]`` multiplies whole arrays with the
#: zero rows/columns handling a*0 = 0 for free — the fastest path for the
#: vectorised encoder and syndrome computation.
MUL_TABLE = _build_mul_table()


def gf_mul(a: int, b: int) -> int:
    """Multiply two field elements."""
    if a == 0 or b == 0:
        return 0
    return int(EXP_TABLE[LOG_TABLE[a] + LOG_TABLE[b]])


def gf_div(a: int, b: int) -> int:
    """Divide two field elements (b must be non-zero)."""
    if b == 0:
        raise ZeroDivisionError("division by zero in GF(256)")
    if a == 0:
        return 0
    return int(EXP_TABLE[(LOG_TABLE[a] - LOG_TABLE[b]) % 255])


def gf_pow(a: int, power: int) -> int:
    """Raise a field element to an integer power."""
    if a == 0:
        return 0 if power > 0 else 1
    return int(EXP_TABLE[(LOG_TABLE[a] * power) % 255])


def gf_inverse(a: int) -> int:
    """Multiplicative inverse of a non-zero field element."""
    if a == 0:
        raise ZeroDivisionError("zero has no inverse in GF(256)")
    return int(EXP_TABLE[255 - LOG_TABLE[a]])


def gf_mul_array(a: SymbolArray, b: SymbolArray | int) -> SymbolArray:
    """Element-wise product of arrays of field elements (vectorised)."""
    a = np.asarray(a, dtype=np.int32)
    b_arr = np.asarray(b, dtype=np.int32)
    a_b = np.broadcast_arrays(a, b_arr)
    a, b_arr = a_b
    result = np.zeros(a.shape, dtype=np.int32)
    nonzero = (a != 0) & (b_arr != 0)
    if np.any(nonzero):
        result[nonzero] = EXP_TABLE[LOG_TABLE[a[nonzero]] + LOG_TABLE[b_arr[nonzero]]]
    return result


# --------------------------------------------------------------------------- #
# Polynomial helpers (coefficient lists, highest degree first)
# --------------------------------------------------------------------------- #
def poly_mul(p: list[int], q: list[int]) -> list[int]:
    """Multiply two polynomials over GF(256)."""
    result = [0] * (len(p) + len(q) - 1)
    for i, coefficient_p in enumerate(p):
        if coefficient_p == 0:
            continue
        for j, coefficient_q in enumerate(q):
            if coefficient_q == 0:
                continue
            result[i + j] ^= gf_mul(coefficient_p, coefficient_q)
    return result


def poly_eval(p: list[int], x: int) -> int:
    """Evaluate a polynomial at ``x`` using Horner's rule."""
    result = 0
    for coefficient in p:
        result = gf_mul(result, x) ^ coefficient
    return result


