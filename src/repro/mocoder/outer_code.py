"""The inter-emblem ("outer") erasure code.

MOCoder protects against the loss of whole emblems by adding three parity
emblems to every set of seventeen data emblems (§3.1): any three emblems of
the resulting group of twenty may be missing altogether and the group is
still restored bit-for-bit.

The code is a systematic Reed-Solomon-style erasure code over GF(256) applied
byte-wise across the group: byte position ``i`` of the three parity emblems is
a fixed linear combination of byte position ``i`` of the seventeen data
emblems.  Because an entire emblem is either present or missing, every byte
position in a group shares the same erasure pattern, so reconstruction is a
single GF matrix inversion followed by a vectorised matrix-vector product
across all byte positions.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.errors import MissingEmblemError
from repro.mocoder.galois import MUL_TABLE, gf_inverse, gf_mul_array
from repro.mocoder.reed_solomon import get_code

#: Number of data emblems per group.
GROUP_DATA = 17

#: Number of parity emblems per group.
GROUP_PARITY = 3

#: Total emblems per group.
GROUP_SIZE = GROUP_DATA + GROUP_PARITY


class OuterCode:
    """Erasure code across the emblems of a group.

    Parameters
    ----------
    data_shards:
        Number of data emblems per group (default 17, as in the paper).
    parity_shards:
        Number of parity emblems per group (default 3).
    """

    def __init__(self, data_shards: int = GROUP_DATA, parity_shards: int = GROUP_PARITY):
        if data_shards < 1 or parity_shards < 1:
            raise ValueError("the outer code needs at least one data and one parity shard")
        if data_shards + parity_shards > 255:
            raise ValueError("the outer code cannot exceed 255 shards")
        self.data_shards = data_shards
        self.parity_shards = parity_shards
        self.total_shards = data_shards + parity_shards
        # The shared cache matters here: a MOCoder (and therefore an
        # OuterCode) is constructed per segment job, and building the code's
        # parity matrix costs a k x k reference encode.
        self._rs = get_code(self.total_shards, data_shards)
        # Systematic generator matrix: row r of the parity matrix holds the
        # contribution of data shard r to each parity shard.
        identity = np.eye(data_shards, dtype=np.int32)
        codewords = self._rs.encode_blocks(identity)
        self._parity_matrix = codewords[:, data_shards:].astype(np.int32)  # (data, parity)
        self._generator = np.concatenate(
            [np.eye(data_shards, dtype=np.int32), self._parity_matrix], axis=1
        )  # (data, total)

    # ------------------------------------------------------------------ #
    # Encoding
    # ------------------------------------------------------------------ #
    def encode_group(self, data_payloads: list[bytes]) -> list[bytes]:
        """Compute the parity payloads for up to ``data_shards`` data payloads.

        Payloads of unequal length are zero-padded to the longest one; the
        parity payloads all have that padded length.
        """
        if not data_payloads or len(data_payloads) > self.data_shards:
            raise ValueError(
                f"a group holds between 1 and {self.data_shards} data payloads, "
                f"got {len(data_payloads)}"
            )
        length = max(len(payload) for payload in data_payloads)
        matrix = np.zeros((self.data_shards, length), dtype=np.uint8)
        for row, payload in enumerate(data_payloads):
            if payload:
                matrix[row, : len(payload)] = np.frombuffer(bytes(payload), dtype=np.uint8)
        # Byte position i of the group is an independent (data_shards ->
        # parity_shards) GF(256) product, i.e. one "row" of the RS code's
        # parity computation; encode_parity batches all positions and picks
        # the gather or bit-sliced product by group length.
        parity = self._rs.encode_parity(matrix.T)  # (length, parity)
        return [parity[:, i].tobytes() for i in range(self.parity_shards)]

    # ------------------------------------------------------------------ #
    # Decoding (erasures only: an emblem is either present or missing)
    # ------------------------------------------------------------------ #
    def reconstruct_group(
        self,
        shards: list[bytes | None],
        payload_length: int | None = None,
    ) -> list[bytes]:
        """Recover the data payloads of a group.

        Parameters
        ----------
        shards:
            ``total_shards`` entries (data shards first, then parity shards);
            ``None`` marks a missing emblem.  A short final group may pass
            fewer than ``total_shards`` entries as long as data shards that
            never existed are simply absent from the end of the data section.
        payload_length:
            Length to which recovered payloads are truncated (the padded
            length is used when omitted).

        Raises
        ------
        MissingEmblemError
            If fewer than ``data_shards`` shards of the group survive.
        """
        if len(shards) != self.total_shards:
            raise ValueError(
                f"expected {self.total_shards} shard slots, got {len(shards)}"
            )
        present = [index for index, shard in enumerate(shards) if shard is not None]
        data_present = [index for index in present if index < self.data_shards]
        if len(data_present) == self.data_shards:
            # Nothing to reconstruct.
            recovered = [bytes(shards[index]) for index in range(self.data_shards)]
            if payload_length is not None:
                recovered = [payload[:payload_length] for payload in recovered]
            return recovered
        if len(present) < self.data_shards:
            raise MissingEmblemError(
                f"only {len(present)} of {self.total_shards} emblems survive; "
                f"at least {self.data_shards} are required"
            )
        chosen = present[: self.data_shards]
        length = max(len(shards[index]) for index in chosen)
        received = np.zeros((self.data_shards, length), dtype=np.uint8)
        for row, shard_index in enumerate(chosen):
            shard = shards[shard_index]
            received[row, : len(shard)] = np.frombuffer(bytes(shard), dtype=np.uint8)
        # Solve G_sub * data = received, where G_sub stacks the generator
        # columns of the chosen shards.  Every surviving data shard is among
        # the chosen (data shards come first), so only the missing rows of
        # the product are computed; the others are the received rows.
        submatrix = self._generator[:, chosen].T.copy()  # (data, data)
        inverse = _gf_matrix_inverse(submatrix)
        missing = [index for index in range(self.data_shards) if shards[index] is None]
        rebuilt = dict(zip(missing, _gf_matrix_multiply(inverse[missing], received)))
        recovered = [
            (rebuilt[index] if index in rebuilt else received[chosen.index(index)]).tobytes()
            for index in range(self.data_shards)
        ]
        if payload_length is not None:
            recovered = [payload[:payload_length] for payload in recovered]
        return recovered


@lru_cache(maxsize=32)
def get_outer_code(data_shards: int, parity_shards: int) -> OuterCode:
    """A shared :class:`OuterCode` instance for the given (data, parity) shape.

    Construction costs a k x k reference encode (the systematic generator),
    so callers that open a code per stripe or per source — the volume-set
    store backend does — should come through here, mirroring
    :func:`repro.mocoder.reed_solomon.get_code`.
    """
    return OuterCode(data_shards, parity_shards)


def _gf_matrix_inverse(matrix: np.ndarray) -> np.ndarray:
    """Invert a square matrix over GF(256) by Gauss-Jordan elimination."""
    size = matrix.shape[0]
    work = matrix.astype(np.int32).copy()
    inverse = np.eye(size, dtype=np.int32)
    for column in range(size):
        pivot_row = None
        for row in range(column, size):
            if work[row, column]:
                pivot_row = row
                break
        if pivot_row is None:
            raise MissingEmblemError("outer-code generator submatrix is singular")
        if pivot_row != column:
            work[[column, pivot_row]] = work[[pivot_row, column]]
            inverse[[column, pivot_row]] = inverse[[pivot_row, column]]
        pivot_inverse = gf_inverse(int(work[column, column]))
        work[column] = gf_mul_array(work[column], pivot_inverse)
        inverse[column] = gf_mul_array(inverse[column], pivot_inverse)
        for row in range(size):
            if row != column and work[row, column]:
                factor = int(work[row, column])
                work[row] ^= gf_mul_array(work[column], factor)
                inverse[row] ^= gf_mul_array(inverse[column], factor)
    return inverse


def _gf_matrix_multiply(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Multiply matrices over GF(256); right may be wide (vectorised).

    Each output row XORs together one 256-entry multiplication-table lookup
    of a whole right-hand row per non-zero coefficient (a coefficient of 1
    is the row itself), so the work is ``rows * inner`` passes over the
    row width.  For a K-data volume set this is the whole of the
    degraded-read stripe reconstruction, where ``reconstruct_group`` asks
    only for the lost rows.
    """
    left8 = np.asarray(left).astype(np.uint8)
    right8 = np.asarray(right).astype(np.uint8)
    result = np.zeros((left8.shape[0], right8.shape[1]), dtype=np.uint8)
    for row, coefficients in zip(result, left8.tolist()):
        for coefficient, source in zip(coefficients, right8):
            if coefficient == 1:
                row ^= source
            elif coefficient:
                row ^= MUL_TABLE[coefficient].take(source)
    return result
