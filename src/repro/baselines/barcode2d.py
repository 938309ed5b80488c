"""A conventional QR-style 2-D barcode baseline.

§3.1 contrasts emblems with QR codes and Data Matrix: such codes use a
*separate* clocking system (position patterns in three corners, timing rows),
assume generous capture resolution, and top out at a few kilobytes — they are
"mainly used as tags or placeholders for short textual information".  This
module implements a representative member of that family so the robustness
and density benchmarks can compare it with MOCoder emblems under the same
simulated scanners:

* finder squares in three corners and alternating timing lines (clocking is
  *positional*, not self-clocking);
* one data bit per module (denser per cell than differential Manchester, but
  with no local clock redundancy);
* a CRC-32 to detect — but not correct — read errors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import EmblemDetectionError, EmblemFormatError
from repro.mocoder.emblem import otsu_threshold
from repro.util.bits import bits_to_bytes, bytes_to_bits
from repro.util.crc import crc32_of

_FINDER = 7       # finder pattern size in modules
_SEPARATOR = 1    # white separator around finder patterns
_TIMING_INDEX = _FINDER + _SEPARATOR  # row/column carrying the timing pattern


@dataclass(frozen=True)
class BarcodeSpec:
    """Geometry of the baseline barcode."""

    modules: int = 177          # QR version 40 uses 177x177 modules
    module_pixels: int = 4
    quiet_modules: int = 4

    def __post_init__(self) -> None:
        if self.modules < 21:
            raise EmblemFormatError("a barcode needs at least 21 modules per side")

    @property
    def data_module_count(self) -> int:
        """Modules available for data bits."""
        reserved = 3 * (_FINDER + _SEPARATOR) ** 2      # three corner patterns
        reserved += 2 * (self.modules - 2 * (_FINDER + _SEPARATOR))  # timing row + column
        return self.modules * self.modules - reserved

    @property
    def payload_capacity(self) -> int:
        """Payload bytes per barcode (after the 4-byte CRC and 2-byte length)."""
        return self.data_module_count // 8 - 6


class SimpleBarcode:
    """Encoder/decoder for the QR-style baseline."""

    def __init__(self, spec: BarcodeSpec | None = None):
        self.spec = spec or BarcodeSpec()

    # ------------------------------------------------------------------ #
    def _reserved_mask(self) -> np.ndarray:
        modules = self.spec.modules
        reserved = np.zeros((modules, modules), dtype=bool)
        block = _FINDER + _SEPARATOR
        reserved[:block, :block] = True                 # top-left
        reserved[:block, modules - block:] = True       # top-right
        reserved[modules - block:, :block] = True       # bottom-left
        reserved[_TIMING_INDEX, :] = True               # timing row
        reserved[:, _TIMING_INDEX] = True               # timing column
        return reserved

    def _fixed_patterns(self) -> np.ndarray:
        modules = self.spec.modules
        grid = np.zeros((modules, modules), dtype=np.uint8)

        def draw_finder(top: int, left: int) -> None:
            grid[top:top + _FINDER, left:left + _FINDER] = 1
            grid[top + 1:top + _FINDER - 1, left + 1:left + _FINDER - 1] = 0
            grid[top + 2:top + _FINDER - 2, left + 2:left + _FINDER - 2] = 1

        draw_finder(0, 0)
        draw_finder(0, modules - _FINDER)
        draw_finder(modules - _FINDER, 0)
        indices = np.arange(modules)
        grid[_TIMING_INDEX, :] = (indices + 1) % 2
        grid[:, _TIMING_INDEX] = (indices + 1) % 2
        return grid

    # ------------------------------------------------------------------ #
    def encode(self, payload: bytes) -> np.ndarray:
        """Render a payload as a barcode raster.

        Raises
        ------
        EmblemFormatError
            If the payload exceeds the barcode's capacity.
        """
        spec = self.spec
        if len(payload) > spec.payload_capacity:
            raise EmblemFormatError(
                f"payload of {len(payload)} bytes exceeds the barcode capacity of "
                f"{spec.payload_capacity} bytes"
            )
        framed = (
            len(payload).to_bytes(2, "little")
            + crc32_of(payload).to_bytes(4, "little")
            + payload
        )
        bits = bytes_to_bits(framed)
        grid = self._fixed_patterns()
        reserved = self._reserved_mask()
        data_positions = np.nonzero(~reserved)
        usable = min(bits.size, data_positions[0].size)
        values = np.zeros(data_positions[0].size, dtype=np.uint8)
        values[:usable] = bits[:usable]
        grid[data_positions] = values
        image = np.full(
            (spec.modules + 2 * spec.quiet_modules,) * 2, 255, dtype=np.uint8
        )
        inner = np.where(grid == 1, 0, 255).astype(np.uint8)
        q = spec.quiet_modules
        image[q:q + spec.modules, q:q + spec.modules] = inner
        if spec.module_pixels > 1:
            image = np.kron(
                image, np.ones((spec.module_pixels, spec.module_pixels), dtype=np.uint8)
            )
        return image

    # ------------------------------------------------------------------ #
    def decode(self, image: np.ndarray) -> bytes:
        """Read a payload back from a (possibly degraded) scan.

        Raises
        ------
        EmblemDetectionError
            If the code cannot be located or fails its CRC (the baseline has
            no error *correction*, only detection).
        """
        spec = self.spec
        image = np.asarray(image, dtype=np.float64)
        threshold = otsu_threshold(image)
        dark = image < threshold
        # Positional clocking: the code is located from the bounding box of
        # rows/columns with a significant amount of ink.
        row_ink = dark.sum(axis=1)
        column_ink = dark.sum(axis=0)
        significant_rows = np.nonzero(row_ink > max(3, 0.01 * dark.shape[1]))[0]
        significant_columns = np.nonzero(column_ink > max(3, 0.01 * dark.shape[0]))[0]
        if significant_rows.size == 0 or significant_columns.size == 0:
            raise EmblemDetectionError("no barcode found in the scan")
        top, bottom = significant_rows[0], significant_rows[-1]
        left, right = significant_columns[0], significant_columns[-1]
        module_height = (bottom - top + 1) / spec.modules
        module_width = (right - left + 1) / spec.modules
        centers = np.arange(spec.modules) + 0.5
        ys = np.clip(np.round(top + centers * module_height).astype(int), 0, image.shape[0] - 1)
        xs = np.clip(np.round(left + centers * module_width).astype(int), 0, image.shape[1] - 1)
        sampled = image[np.ix_(ys, xs)] < threshold
        reserved = self._reserved_mask()
        bits = sampled[~reserved].astype(np.uint8)
        data = bits_to_bytes(bits)
        if len(data) < 6:
            raise EmblemDetectionError("barcode data area is too small")
        length = int.from_bytes(data[0:2], "little")
        checksum = int.from_bytes(data[2:6], "little")
        payload = data[6:6 + length]
        if len(payload) != length or crc32_of(payload) != checksum:
            raise EmblemDetectionError(
                "barcode failed its CRC check (no error correction is available)"
            )
        return payload
