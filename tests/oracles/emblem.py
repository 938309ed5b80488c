"""Oracles for :mod:`repro.mocoder.emblem`: one emblem at a time.

The library renders and decodes emblems in batches
(:func:`~repro.mocoder.emblem.render_emblem_batch`,
:func:`~repro.mocoder.emblem.decode_image_batch`).  This module keeps the
per-emblem forms those batches must match:

- :func:`render_emblem` builds one emblem's cell grid (quiet zone, frame,
  header dots, the RS-encoded, interleaved, Manchester-coded data area) and
  upscales it with :func:`numpy.kron`;
- :func:`decode_image` locates one scanned emblem with
  :class:`EmblemSampler`, samples its cells and decodes them — returning
  ``(emblem, rs_corrections)`` or raising the decode's
  :class:`~repro.errors.MOCoderError`.  Batch decode must return the same
  bytes, correction counts, error types and error messages.
"""

from __future__ import annotations

import numpy as np

from repro.errors import EmblemDetectionError, EmblemFormatError
from repro.mocoder.emblem import (
    BLACK,
    HEADER_DOT_COUNT,
    HEADER_SYNC_PATTERN,
    WHITE,
    Emblem,
    EmblemHeader,
    EmblemSpec,
    otsu_threshold,
)
from repro.util.bits import bits_to_bytes, bytes_to_bits

from oracles.interleave import deinterleave_blocks, interleave_blocks
from oracles.manchester import manchester_decode, manchester_encode_fast


# --------------------------------------------------------------------------- #
# Rendering: emblem -> raster
# --------------------------------------------------------------------------- #
def render_emblem(emblem: Emblem) -> np.ndarray:
    """Render one emblem as a grayscale raster (uint8, 0 = black)."""
    cells = build_cell_grid(emblem)
    image = np.where(cells == 1, BLACK, WHITE).astype(np.uint8)
    block = np.ones((emblem.spec.cell_pixels, emblem.spec.cell_pixels), dtype=np.uint8)
    return np.kron(image, block)


def build_cell_grid(emblem: Emblem) -> np.ndarray:
    """The emblem's cell grid (1 = dark cell)."""
    spec = emblem.spec
    grid = np.zeros((spec.total_cells_y, spec.total_cells_x), dtype=np.uint8)
    q = spec.quiet_cells
    b = spec.border_cells
    frame_right = q + spec.frame_cells_x
    frame_bottom = q + spec.frame_cells_y
    # Thick black frame.
    grid[q:frame_bottom, q:frame_right] = 1
    grid[q + b:frame_bottom - b, q + b:frame_right - b] = 0
    inner_left = q + b + spec.gap_cells
    inner_top = inner_left
    # Header band of large dots.
    for dot_index, bit in enumerate(header_dot_bits(emblem.header)):
        if bit:
            x0 = inner_left + dot_index * spec.dot_cells
            grid[
                inner_top:inner_top + spec.dot_cells * spec.header_dot_rows,
                x0:x0 + spec.dot_cells,
            ] = 1
    # Data area.
    data_top = inner_top + spec.header_band_cells
    grid[
        data_top:data_top + spec.data_cells_y,
        inner_left:inner_left + spec.data_cells_x,
    ] = data_cells(emblem)
    return grid


def header_dot_bits(header: EmblemHeader) -> list[int]:
    """The header band: sync pattern, 2 kind bits, the low 8 index bits."""
    bits = list(HEADER_SYNC_PATTERN)
    bits.append((int(header.kind) >> 1) & 1)
    bits.append(int(header.kind) & 1)
    for shift in range(7, -1, -1):
        bits.append((header.index >> shift) & 1)
    return bits


def data_cells(emblem: Emblem) -> np.ndarray:
    """RS-encode, interleave and Manchester-encode the protected bytes."""
    spec = emblem.spec
    protected = bytearray(emblem.header.pack())
    protected.extend(emblem.payload)
    used = len(protected)
    protected.extend(b"\x00" * (spec.protected_byte_capacity - len(protected)))
    code = spec.inner_code()
    data_blocks = np.frombuffer(bytes(protected), dtype=np.uint8).astype(np.int32)
    data_blocks = data_blocks.reshape(spec.rs_block_count, spec.rs_data)
    # Trailing all-zero padding blocks encode to all-zero codewords (the
    # code is linear and systematic), so only blocks that carry header or
    # payload bytes go through the encoder.
    used_blocks = max(1, -(-used // spec.rs_data))
    codewords = np.zeros((spec.rs_block_count, spec.rs_codeword), dtype=np.int32)
    codewords[:used_blocks] = code.encode_blocks(data_blocks[:used_blocks])
    stream = interleave_blocks(codewords.astype(np.uint8))
    cells = manchester_encode_fast(bytes_to_bits(stream))
    grid = np.zeros(spec.data_cell_count, dtype=np.uint8)
    grid[: cells.size] = cells
    return grid.reshape(spec.data_cells_y, spec.data_cells_x)


# --------------------------------------------------------------------------- #
# Decoding: scanned raster -> emblem
# --------------------------------------------------------------------------- #
def decode_image(spec: EmblemSpec, image: np.ndarray) -> tuple[Emblem, int]:
    """Decode one scanned emblem; returns the emblem and its RS corrections.

    Raises
    ------
    EmblemDetectionError
        If the frame or the header-band sync pattern cannot be located.
    UncorrectableBlockError
        If the scan is damaged beyond the inner code's capability.
    """
    sampler = EmblemSampler(spec, image)
    cell_values = sampler.sample_data_cells()
    cells = (cell_values < sampler.threshold).astype(np.uint8)
    bits = manchester_decode(cells)
    stream = bits_to_bytes(bits)[: spec.coded_byte_capacity]
    codewords = deinterleave_blocks(stream, spec.rs_block_count, spec.rs_codeword)
    data_blocks, corrections = spec.inner_code().decode_blocks(codewords.astype(np.int32))
    protected = data_blocks.astype(np.uint8).tobytes()
    header = EmblemHeader.unpack(protected[: EmblemHeader.SIZE])
    payload = protected[EmblemHeader.SIZE:EmblemHeader.SIZE + header.payload_length]
    if header.payload_length > spec.payload_capacity:
        raise EmblemFormatError(
            f"decoded payload length {header.payload_length} exceeds capacity"
        )
    return Emblem(spec=spec, header=header, payload=payload), corrections


class EmblemSampler:
    """Locates an emblem in a scanned image and samples its cells."""

    def __init__(self, spec: EmblemSpec, image: np.ndarray):
        self.spec = spec
        raw = np.asarray(image)
        self.image = raw.astype(np.float64)
        if self.image.ndim != 2:
            raise EmblemDetectionError("expected a single-channel grayscale scan")
        self.threshold = otsu_threshold(raw)
        self._locate_frame()
        self._verify_header_band()

    def _locate_frame(self) -> None:
        """Find the black frame from ink profiles.

        The frame's horizontal and vertical bands produce near-full-width runs
        of dark rows/columns.  The grid is derived from the *centres* of the
        first and last band (averaging over the band thickness), which is far
        less sensitive to single-pixel edge noise than the outermost dark
        row/column.
        """
        dark = self.image < self.threshold
        row_ink = dark.sum(axis=1)
        column_ink = dark.sum(axis=0)
        if row_ink.max() == 0 or column_ink.max() == 0:
            raise EmblemDetectionError("no dark structure found in the scan")
        top_center, bottom_center = self._band_centers(row_ink)
        left_center, right_center = self._band_centers(column_ink)
        # Distance between the band centres spans (frame_cells - border_cells).
        span_y = self.spec.frame_cells_y - self.spec.border_cells
        span_x = self.spec.frame_cells_x - self.spec.border_cells
        if bottom_center - top_center < span_y or right_center - left_center < span_x:
            raise EmblemDetectionError("detected frame is too small for this emblem spec")
        self.cell_height = (bottom_center - top_center) / span_y
        self.cell_width = (right_center - left_center) / span_x
        self.top = top_center - self.spec.border_cells / 2.0 * self.cell_height
        self.left = left_center - self.spec.border_cells / 2.0 * self.cell_width

    @staticmethod
    def _band_centers(ink_profile: np.ndarray) -> tuple[float, float]:
        """Centres of the first and last thick dark band of an ink profile.

        The reference ink level is the 8th-largest profile value rather than
        the maximum, so a single thin full-length scratch cannot hide the
        real frame bands.
        """
        reference_rank = min(8, ink_profile.size)
        reference = np.sort(ink_profile)[-reference_rank]
        if reference == 0:
            reference = ink_profile.max()
        candidates = np.nonzero(ink_profile > 0.8 * reference)[0]
        if candidates.size == 0:
            raise EmblemDetectionError("emblem frame not found in the scan")
        # Group candidate indices into consecutive runs.
        splits = np.nonzero(np.diff(candidates) > 1)[0] + 1
        runs = np.split(candidates, splits)
        longest = max(len(run) for run in runs)
        # Ignore thin spurious runs (scratches, dust lines); keep real bands.
        bands = [run for run in runs if len(run) >= max(2, longest // 2)]
        if not bands:
            bands = runs
        first, last = bands[0], bands[-1]
        return float(np.mean(first)), float(np.mean(last))

    def _cell_centers(
        self, cell_x: np.ndarray, cell_y: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Pixel coordinates of cell centers, for frame-relative cell indices."""
        xs = self.left + (cell_x + 0.5) * self.cell_width
        ys = self.top + (cell_y + 0.5) * self.cell_height
        return xs, ys

    def _sample_at(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Sample the image at the given positions (mean of a small cross).

        The +-1-pixel cross is only averaged in when a cell spans at least
        3 pixels in the scan; on finer grids the cross arms would land in
        the *neighbouring* cells.
        """
        height, width = self.image.shape
        xs = np.clip(np.round(xs).astype(np.int64), 0, width - 1)
        ys = np.clip(np.round(ys).astype(np.int64), 0, height - 1)
        if min(self.cell_width, self.cell_height) < 3.0:
            return self.image[ys, xs]
        total = np.zeros(xs.shape, dtype=np.float64)
        for dx, dy in ((0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)):
            sample_x = np.clip(xs + dx, 0, width - 1)
            sample_y = np.clip(ys + dy, 0, height - 1)
            total += self.image[sample_y, sample_x]
        return total / 5.0

    def _verify_header_band(self) -> None:
        """Check the large-dot sync pattern; a mismatch means misdetection."""
        spec = self.spec
        inner = spec.border_cells + spec.gap_cells
        dot_centers_x = [
            inner + dot_index * spec.dot_cells + spec.dot_cells / 2.0 - 0.5
            for dot_index in range(HEADER_DOT_COUNT)
        ]
        dot_centers_y = [
            inner + (spec.dot_cells * spec.header_dot_rows) / 2.0 - 0.5
        ] * HEADER_DOT_COUNT
        xs, ys = self._cell_centers(np.array(dot_centers_x), np.array(dot_centers_y))
        bits = (self._sample_at(xs, ys) < self.threshold).astype(int)
        observed_sync = tuple(bits[: len(HEADER_SYNC_PATTERN)])
        if observed_sync != HEADER_SYNC_PATTERN:
            raise EmblemDetectionError(
                f"header-band sync mismatch: expected {HEADER_SYNC_PATTERN}, got {observed_sync}"
            )

    def sample_data_cells(self) -> np.ndarray:
        """Sample every data-area cell; returns a flat array of gray values."""
        spec = self.spec
        inner = spec.border_cells + spec.gap_cells
        data_top = inner + spec.header_band_cells
        grid_x, grid_y = np.meshgrid(np.arange(spec.data_cells_x), np.arange(spec.data_cells_y))
        xs, ys = self._cell_centers(grid_x + inner, grid_y + data_top)
        return self._sample_at(xs, ys).reshape(-1)
