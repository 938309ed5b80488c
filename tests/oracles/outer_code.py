"""Oracle for :mod:`repro.mocoder.outer_code`.

:func:`gf_matrix_multiply` is the row-at-a-time GF(256) matrix product that
the table-lookup :func:`repro.mocoder.outer_code._gf_matrix_multiply` must
match exactly.
"""

from __future__ import annotations

import numpy as np

from repro.mocoder.galois import gf_mul_array


def gf_matrix_multiply(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """``left @ right`` over GF(256), one ``gf_mul_array`` sweep per term."""
    rows = left.shape[0]
    result = np.zeros((rows, right.shape[1]), dtype=np.int32)
    for row in range(rows):
        accumulator = np.zeros(right.shape[1], dtype=np.int32)
        for column in range(left.shape[1]):
            coefficient = int(left[row, column])
            if coefficient:
                accumulator ^= gf_mul_array(right[column], coefficient)
        result[row] = accumulator
    return result
