"""Oracles for :mod:`repro.mocoder.reed_solomon`.

Each function takes the :class:`~repro.mocoder.reed_solomon.ReedSolomonCode`
whose parameters it runs with and reads nothing from it but ``n``, ``k``,
``parity``, ``generator`` and ``max_correctable_errors``, plus the scalar
Berlekamp-Massey and Forney helpers (which the production decoder shares):

- :func:`encode_blocks` — the LFSR (polynomial-division) encoder, one data
  column at a time;
- :func:`syndromes_blocks` — the Horner recurrence over the codeword columns;
- :func:`decode_blocks` — the per-block corrector (syndromes,
  Berlekamp-Massey, a per-block Chien search, Forney, and a residual
  syndrome check per block).
"""

from __future__ import annotations

import numpy as np

from repro.errors import UncorrectableBlockError
from repro.mocoder.galois import EXP_TABLE, LOG_TABLE, gf_pow
from repro.mocoder.reed_solomon import ReedSolomonCode


def encode_blocks(code: ReedSolomonCode, data_blocks: np.ndarray) -> np.ndarray:
    """(blocks, k) data -> (blocks, n) systematic codewords, column at a time."""
    data_blocks = np.asarray(data_blocks, dtype=np.int32)
    blocks = data_blocks.shape[0]
    remainder = np.zeros((blocks, code.parity), dtype=np.int32)
    feedback_log = LOG_TABLE[np.array(code.generator[1:], dtype=np.int32)]
    for column in range(code.k):
        feedback = data_blocks[:, column] ^ remainder[:, 0]
        remainder[:, :-1] = remainder[:, 1:]
        remainder[:, -1] = 0
        nonzero = feedback != 0
        if np.any(nonzero):
            contribution = EXP_TABLE[
                LOG_TABLE[feedback[nonzero]][:, None] + feedback_log[None, :]
            ]
            remainder[nonzero] ^= contribution
    return np.concatenate([data_blocks, remainder], axis=1)


def syndromes_blocks(code: ReedSolomonCode, codewords: np.ndarray) -> np.ndarray:
    """Syndromes of every codeword by the Horner recurrence; (blocks, parity)."""
    codewords = np.asarray(codewords, dtype=np.int32)
    blocks = codewords.shape[0]
    syndromes = np.zeros((blocks, code.parity), dtype=np.int32)
    roots = np.array([gf_pow(2, j) for j in range(1, code.parity + 1)], dtype=np.int32)
    root_logs = LOG_TABLE[roots]
    for column in range(code.n):
        # Horner step: s = s * alpha^j + c[column]
        nonzero = syndromes != 0
        if np.any(nonzero):
            stepped = np.zeros_like(syndromes)
            stepped[nonzero] = EXP_TABLE[
                LOG_TABLE[syndromes[nonzero]]
                + np.broadcast_to(root_logs[None, :], syndromes.shape)[nonzero]
            ]
            syndromes = stepped
        syndromes ^= codewords[:, column][:, None]
    return syndromes


def decode_blocks(code: ReedSolomonCode, codewords: np.ndarray) -> tuple[np.ndarray, int]:
    """Correct every codeword block by block; returns (data blocks, corrections)."""
    codewords = np.array(codewords, dtype=np.int32, copy=True)
    if codewords.ndim != 2 or codewords.shape[1] != code.n:
        raise ValueError(f"expected shape (blocks, {code.n}), got {codewords.shape}")
    syndromes = syndromes_blocks(code, codewords)
    damaged = np.nonzero(np.any(syndromes != 0, axis=1))[0]
    corrected_symbols = 0
    for block_index in damaged:
        corrected_symbols += correct_block(
            code, codewords[block_index], syndromes[block_index].tolist(), int(block_index)
        )
    return codewords[:, : code.k], corrected_symbols


def correct_block(
    code: ReedSolomonCode, codeword: np.ndarray, syndromes: list[int], block_index: int
) -> int:
    """Correct one codeword in place; returns the number of corrected symbols."""
    sigma = code._berlekamp_massey(syndromes)
    error_count = len(sigma) - 1
    if error_count > code.max_correctable_errors:
        raise UncorrectableBlockError(
            f"block {block_index}: {error_count} errors exceed the "
            f"{code.max_correctable_errors}-error capability of RS({code.n},{code.k})"
        )
    error_positions = chien_search(code, sigma)
    if len(error_positions) != error_count:
        raise UncorrectableBlockError(
            f"block {block_index}: error locator polynomial is inconsistent "
            f"(degree {error_count}, {len(error_positions)} roots)"
        )
    magnitudes = code._forney(syndromes, sigma, error_positions)
    for position, magnitude in zip(error_positions, magnitudes):
        codeword[position] ^= magnitude
    # A decode that "corrects" onto a different codeword is detectable by
    # re-checking the syndromes.
    check = syndromes_blocks(code, codeword[None, :])
    if np.any(check != 0):
        raise UncorrectableBlockError(
            f"block {block_index}: residual syndromes after correction"
        )
    return error_count


def chien_search(code: ReedSolomonCode, sigma: list[int]) -> list[int]:
    """Codeword positions whose symbols are in error.

    The locator root associated with codeword position ``p`` (which holds
    the coefficient of x^(n-1-p)) is alpha^-(n-1-p).
    """
    exponents = np.arange(code.n - 1, -1, -1, dtype=np.int64)  # n-1-p for p=0..n-1
    x_inverse = EXP_TABLE[(255 - exponents) % 255].astype(np.int64)
    values = np.zeros(code.n, dtype=np.int64)
    power = np.ones(code.n, dtype=np.int64)
    for coefficient in sigma:
        if coefficient:
            term = np.zeros(code.n, dtype=np.int64)
            nonzero = power != 0
            term[nonzero] = EXP_TABLE[LOG_TABLE[power[nonzero]] + LOG_TABLE[coefficient]]
            values ^= term
        # power *= x_inverse (x_inverse is never zero)
        nonzero = power != 0
        stepped = np.zeros(code.n, dtype=np.int64)
        stepped[nonzero] = EXP_TABLE[LOG_TABLE[power[nonzero]] + LOG_TABLE[x_inverse[nonzero]]]
        power = stepped
    return np.nonzero(values == 0)[0].tolist()
