"""Emblem geometry: rendering emblems to rasters and reading them back.

An *emblem* is MOCoder's archival barcode (Figure 1 of the paper).  From the
outside in, an emblem raster consists of:

* a white quiet zone;
* a thick black square frame used for fast, robust detection of the emblem
  geometry in a scanned image;
* a white gap ring;
* a *header band* of large-scale black and white dots (each dot covers
  ``dot_cells`` x ``dot_cells`` cells) carrying a fixed synchronisation
  pattern, the emblem kind and the low bits of the emblem index — the
  "large-scale black and white dots that allow fast and robust initial
  detection of the emblem geometry and type";
* the data area: a grid of cells carrying the differential-Manchester encoded,
  Reed-Solomon protected payload.

The decoder locates the black frame from ink profiles of the binarised scan,
derives the cell grid from the frame position, verifies the header-band
synchronisation pattern and then samples every data cell.
"""

from __future__ import annotations

import enum
import functools
import struct
from dataclasses import dataclass
from typing import Sequence, TypeAlias

import numpy as np

from repro.errors import EmblemDetectionError, EmblemFormatError, MOCoderError
from repro.mocoder.interleave import deinterleave_blocks_batch
from repro.mocoder.manchester import manchester_decode_rows, manchester_encode_rows
from repro.mocoder.reed_solomon import ReedSolomonCode, get_code
from repro.util.raster import bilevel_tones

#: Pixel value of a dark (inked) cell.
BLACK = 0

#: Pixel value of a light cell / background.
WHITE = 255


class EmblemKind(enum.IntEnum):
    """What an emblem carries."""

    DATA = 0     #: a slice of the archived data stream
    PARITY = 1   #: outer-code parity for a group of data emblems
    SYSTEM = 2   #: archived decoder instruction streams (the "system emblems")


# --------------------------------------------------------------------------- #
# Specification
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class EmblemSpec:
    """Geometry and coding parameters of an emblem.

    The defaults are deliberately small; media-specific profiles (A4 paper at
    600 dpi, 16 mm microfilm frames, 2K cinema film frames) live in
    :mod:`repro.core.profiles`.
    """

    name: str = "custom"
    data_cells_x: int = 64
    data_cells_y: int = 64
    cell_pixels: int = 4
    border_cells: int = 4
    quiet_cells: int = 4
    gap_cells: int = 2
    dot_cells: int = 3
    header_dot_rows: int = 1
    rs_codeword: int = 255
    rs_data: int = 223

    def __post_init__(self) -> None:
        if self.data_cells_x < 16 * self.dot_cells:
            raise EmblemFormatError(
                "the data area must be wide enough for the 16-dot header band "
                f"({16 * self.dot_cells} cells); got {self.data_cells_x}"
            )
        if self.cell_pixels < 2:
            raise EmblemFormatError("cells need at least 2 pixels to be scannable")
        if self.payload_capacity <= 0:
            raise EmblemFormatError("spec leaves no room for payload bytes")

    # ----------------------------- geometry ---------------------------- #
    @property
    def header_band_cells(self) -> int:
        """Height of the header dot band in cells (plus one separator row)."""
        return self.header_dot_rows * self.dot_cells + 1

    @property
    def inner_cells_x(self) -> int:
        """Width of the area inside the frame and gap, in cells."""
        return self.data_cells_x

    @property
    def inner_cells_y(self) -> int:
        """Height of the area inside the frame and gap, in cells."""
        return self.header_band_cells + self.data_cells_y

    @property
    def frame_cells_x(self) -> int:
        """Width from frame outer edge to frame outer edge, in cells."""
        return self.inner_cells_x + 2 * (self.border_cells + self.gap_cells)

    @property
    def frame_cells_y(self) -> int:
        """Height from frame outer edge to frame outer edge, in cells."""
        return self.inner_cells_y + 2 * (self.border_cells + self.gap_cells)

    @property
    def total_cells_x(self) -> int:
        """Total raster width in cells, including the quiet zone."""
        return self.frame_cells_x + 2 * self.quiet_cells

    @property
    def total_cells_y(self) -> int:
        """Total raster height in cells, including the quiet zone."""
        return self.frame_cells_y + 2 * self.quiet_cells

    @property
    def pixels_x(self) -> int:
        """Total raster width in pixels."""
        return self.total_cells_x * self.cell_pixels

    @property
    def pixels_y(self) -> int:
        """Total raster height in pixels."""
        return self.total_cells_y * self.cell_pixels

    # ----------------------------- capacity ---------------------------- #
    @property
    def data_cell_count(self) -> int:
        """Number of cells in the data area."""
        return self.data_cells_x * self.data_cells_y

    @property
    def raw_byte_capacity(self) -> int:
        """Bytes representable in the data area before error correction."""
        return self.data_cell_count // 2 // 8

    @property
    def rs_block_count(self) -> int:
        """Number of inner-code blocks that fit in the data area."""
        return self.raw_byte_capacity // self.rs_codeword

    @property
    def coded_byte_capacity(self) -> int:
        """Bytes of RS codewords stored in the data area."""
        return self.rs_block_count * self.rs_codeword

    @property
    def protected_byte_capacity(self) -> int:
        """RS-protected bytes per emblem (header + payload)."""
        return self.rs_block_count * self.rs_data

    @property
    def payload_capacity(self) -> int:
        """User payload bytes per emblem (after the emblem header)."""
        return self.protected_byte_capacity - EmblemHeader.SIZE

    def inner_code(self) -> ReedSolomonCode:
        """The inner Reed-Solomon code configured by this spec (shared/cached)."""
        return get_code(self.rs_codeword, self.rs_data)


# --------------------------------------------------------------------------- #
# Per-emblem header (stored inside the RS-protected bytes)
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class EmblemHeader:
    """Metadata stored (RS-protected) at the start of every emblem."""

    kind: EmblemKind
    index: int
    total: int
    group_index: int
    slot_in_group: int
    payload_length: int
    stream_length: int
    stream_crc32: int

    MAGIC = b"EM"
    VERSION = 1
    _STRUCT = struct.Struct("<2sBBHHHBBIII")
    SIZE = _STRUCT.size

    def pack(self) -> bytes:
        """Serialise the header."""
        return self._STRUCT.pack(
            self.MAGIC,
            self.VERSION,
            int(self.kind),
            self.index,
            self.total,
            self.group_index,
            self.slot_in_group,
            0,
            self.payload_length,
            self.stream_length,
            self.stream_crc32,
        )

    @classmethod
    def unpack(cls, raw: bytes) -> "EmblemHeader":
        """Parse a header, validating magic and version."""
        if len(raw) < cls.SIZE:
            raise EmblemFormatError(f"emblem header truncated: {len(raw)} bytes")
        magic, version, kind, index, total, group_index, slot, _reserved, payload_length, \
            stream_length, stream_crc32 = cls._STRUCT.unpack(raw[: cls.SIZE])
        if magic != cls.MAGIC:
            raise EmblemFormatError(f"bad emblem magic {magic!r}")
        if version != cls.VERSION:
            raise EmblemFormatError(f"unsupported emblem version {version}")
        return cls(
            kind=EmblemKind(kind),
            index=index,
            total=total,
            group_index=group_index,
            slot_in_group=slot,
            payload_length=payload_length,
            stream_length=stream_length,
            stream_crc32=stream_crc32,
        )


#: Fixed synchronisation prefix drawn as large dots in the header band.
HEADER_SYNC_PATTERN = (1, 0, 1, 1, 0, 0)

#: Number of header dots: sync + 2 kind bits + 8 index bits.
HEADER_DOT_COUNT = len(HEADER_SYNC_PATTERN) + 2 + 8


# --------------------------------------------------------------------------- #
# Emblem
# --------------------------------------------------------------------------- #
@dataclass
class Emblem:
    """A fully described emblem: spec, header and payload."""

    spec: EmblemSpec
    header: EmblemHeader
    payload: bytes

    def __post_init__(self) -> None:
        if len(self.payload) > self.spec.payload_capacity:
            raise EmblemFormatError(
                f"payload of {len(self.payload)} bytes exceeds emblem capacity "
                f"{self.spec.payload_capacity}"
            )

    def to_image(self) -> np.ndarray:
        """Render the emblem as a grayscale raster (uint8, 0=black)."""
        return render_emblem_batch([self])[0]

    def _header_dot_bits(self) -> list[int]:
        bits = list(HEADER_SYNC_PATTERN)
        bits.append((int(self.header.kind) >> 1) & 1)
        bits.append(int(self.header.kind) & 1)
        for shift in range(7, -1, -1):
            bits.append((self.header.index >> shift) & 1)
        return bits


@functools.lru_cache(maxsize=None)
def _base_cell_grid(spec: EmblemSpec) -> np.ndarray:
    """The payload-independent cell grid of a spec: quiet zone + black frame.

    Cached per spec (specs are frozen/hashable) because every emblem of a
    stream starts from the same frame; callers must copy before writing.
    """
    grid = np.zeros((spec.total_cells_y, spec.total_cells_x), dtype=np.uint8)
    q = spec.quiet_cells
    b = spec.border_cells
    frame_right = q + spec.frame_cells_x
    frame_bottom = q + spec.frame_cells_y
    # Thick black frame.
    grid[q:frame_bottom, q:frame_right] = 1
    grid[q + b:frame_bottom - b, q + b:frame_right - b] = 0
    grid.setflags(write=False)
    return grid


def _cells_to_pixels(cells: np.ndarray, cell_pixels: int) -> np.ndarray:
    """Cell grid(s) -> grayscale raster(s); upscales each cell to a square.

    ``cells`` may be one grid (Y, X) or a batch (count, Y, X).  Cell values
    map to pixel levels arithmetically (``(cell ^ 1) * 255`` in uint8 — the
    table gather ``[WHITE, BLACK][cells]`` used to dominate the whole render at
    raster sizes).  The upscale then doubles columns into strided slots and
    duplicates rows with contiguous copies; both run at memcpy-like speed,
    unlike a broadcast + reshape (whose zero-stride gather is an order of
    magnitude slower).  Equivalent to ``np.kron`` with a ones block.
    """
    image = cells ^ 1
    image *= WHITE                  # relies on BLACK == 0, WHITE fitting uint8
    if cell_pixels <= 1:
        return image
    height, width = image.shape[-2], image.shape[-1]
    lead = image.shape[:-2]
    wide = np.empty(lead + (height, width * cell_pixels), dtype=np.uint8)
    for dx in range(cell_pixels):
        wide[..., dx::cell_pixels] = image
    out = np.empty(lead + (height * cell_pixels, width * cell_pixels), dtype=np.uint8)
    rows = out.reshape(lead + (height, cell_pixels, width * cell_pixels))
    for dy in range(cell_pixels):
        rows[..., :, dy, :] = wide
    return out


def render_emblem_batch(emblems: "list[Emblem]") -> np.ndarray:
    """Render many same-spec emblems in one vectorised pass.

    Returns a ``(count, pixels_y, pixels_x)`` uint8 array, one raster per
    emblem.  The RS encode, interleave, bit unpacking, Manchester encode and
    pixel upscale each run once across the whole batch: a test-profile
    emblem carries only ~200 payload bytes, so rendering emblems one at a
    time spends its time in numpy dispatch overhead rather than arithmetic.
    """
    if not emblems:
        return np.zeros((0, 0, 0), dtype=np.uint8)
    spec = emblems[0].spec
    for emblem in emblems:
        if emblem.spec != spec:
            raise EmblemFormatError("render_emblem_batch needs a single shared spec")
    count = len(emblems)
    block_count = spec.rs_block_count

    # Protected bytes (header + payload, zero padded) for every emblem.
    protected = np.zeros((count, spec.protected_byte_capacity), dtype=np.uint8)
    used_blocks = np.empty(count, dtype=np.int64)
    for row, emblem in enumerate(emblems):
        raw = emblem.header.pack() + emblem.payload
        protected[row, : len(raw)] = np.frombuffer(raw, dtype=np.uint8)
        used_blocks[row] = max(1, -(-len(raw) // spec.rs_data))

    # RS encode all used blocks of all emblems in one call; all-zero padding
    # blocks encode to all-zero codewords and are skipped outright.
    data_blocks = protected.reshape(count * block_count, spec.rs_data)
    block_is_used = (
        np.arange(block_count)[None, :] < used_blocks[:, None]
    ).reshape(-1)
    used_index = np.nonzero(block_is_used)[0]
    codewords = np.zeros((count * block_count, spec.rs_codeword), dtype=np.uint8)
    code = spec.inner_code()
    codewords[used_index] = code.encode_blocks(
        data_blocks[used_index].astype(np.int32)
    ).astype(np.uint8)

    # Per-emblem interleave, bit unpack and differential-Manchester encode,
    # batched along axis 0 / axis 1.
    stream = codewords.reshape(count, block_count, spec.rs_codeword)
    stream = stream.transpose(0, 2, 1).reshape(count, -1)
    stream = np.ascontiguousarray(stream)
    bits = np.unpackbits(stream, axis=1)
    cells = manchester_encode_rows(bits)

    # Assemble the full cell grids: shared frame, per-emblem header dots,
    # and the data areas as one block assignment.
    grids = np.repeat(_base_cell_grid(spec)[None, :, :], count, axis=0)
    inner_left = spec.quiet_cells + spec.border_cells + spec.gap_cells
    inner_top = inner_left
    dot_height = spec.dot_cells * spec.header_dot_rows
    for row, emblem in enumerate(emblems):
        for dot_index, bit in enumerate(emblem._header_dot_bits()):
            if not bit:
                continue
            x0 = inner_left + dot_index * spec.dot_cells
            grids[row, inner_top:inner_top + dot_height, x0:x0 + spec.dot_cells] = 1
    data_area = np.zeros((count, spec.data_cell_count), dtype=np.uint8)
    data_area[:, : cells.shape[1]] = cells
    data_top = inner_top + spec.header_band_cells
    grids[
        :,
        data_top:data_top + spec.data_cells_y,
        inner_left:inner_left + spec.data_cells_x,
    ] = data_area.reshape(count, spec.data_cells_y, spec.data_cells_x)
    return _cells_to_pixels(grids, spec.cell_pixels)


def otsu_threshold(image: np.ndarray) -> float:
    """Otsu's threshold on a grayscale image (used to binarise scans).

    The decoder's batched :func:`_binarisation_thresholds` hands this the
    scans it cannot threshold itself: non-uint8 stacks and degenerate
    (single-valued) histograms, whose threshold is the image mean.
    """
    raw = np.asarray(image)
    if raw.dtype == np.uint8:
        # Same bins as np.histogram(range=(0, 256), bins=256) — every uint8
        # value v lands in bin v — but an order of magnitude faster.
        histogram = np.bincount(raw.ravel(), minlength=256).astype(np.float64)
        bin_edges = np.arange(257, dtype=np.float64)
        values = raw.reshape(-1)
    else:
        values = raw.astype(np.float64).ravel()
        histogram, bin_edges = np.histogram(values, bins=256, range=(0.0, 256.0))
        histogram = histogram.astype(np.float64)
    total = histogram.sum()
    if total == 0:
        return 128.0
    bin_centers = (bin_edges[:-1] + bin_edges[1:]) / 2.0
    weight_background = np.cumsum(histogram)
    weight_foreground = total - weight_background
    cumulative_mean = np.cumsum(histogram * bin_centers)
    grand_mean = cumulative_mean[-1]
    valid = (weight_background > 0) & (weight_foreground > 0)
    if not np.any(valid):
        return float(values.mean())
    mean_background = np.where(valid, cumulative_mean / np.maximum(weight_background, 1), 0.0)
    mean_foreground = np.where(
        valid, (grand_mean - cumulative_mean) / np.maximum(weight_foreground, 1), 0.0
    )
    between_variance = weight_background * weight_foreground * (mean_background - mean_foreground) ** 2
    between_variance[~valid] = -1.0
    return float(bin_centers[int(np.argmax(between_variance))])


# --------------------------------------------------------------------------- #
# Batched decode: many scanned rasters -> emblems in vectorised passes
# --------------------------------------------------------------------------- #
#: Pixel budget per decoded sub-batch: bounds the (count, H, W) stack and its
#: boolean binarisation so the temporaries stay cache-friendly; measured on
#: the committed restore benchmark, smaller sub-batches beat one huge stack.
_DECODE_PIXEL_BUDGET = 16_000_000


@dataclass(frozen=True)
class AbsentFrame:
    """The place of a frame the medium could not supply (a lost or
    unparsable record): it decodes as a failure carrying ``reason``."""

    reason: str


#: One frame handed to the decoder: a raster, or the place of an absent one.
Frame: TypeAlias = "np.ndarray | AbsentFrame"


def decode_image_batch(
    spec: EmblemSpec, images: Sequence[Frame]
) -> "list[tuple[Emblem, int] | MOCoderError]":
    """Decode many scanned emblem images in vectorised batch passes.

    Returns one entry per image, in input order: either ``(emblem,
    rs_corrections)`` or the :class:`~repro.errors.MOCoderError` that image's
    decode raised (an :class:`AbsentFrame`'s carries its reason), so one bad
    scan never disturbs the others.  Scans are grouped by shape and dtype,
    and every group — a group of one included — shares one pass each for
    thresholding, frame location, cell sampling, Manchester decode,
    deinterleave and RS syndromes.
    """
    results: "list[tuple[Emblem, int] | MOCoderError | None]" = [None] * len(images)
    groups: "dict[tuple, list[int]]" = {}
    for index, image in enumerate(images):
        if isinstance(image, AbsentFrame):
            results[index] = MOCoderError(image.reason)
            continue
        array = np.asarray(image)
        if array.ndim != 2:
            results[index] = EmblemDetectionError("expected a single-channel grayscale scan")
            continue
        groups.setdefault((array.shape, array.dtype), []).append(index)
    for (shape, _dtype), members in groups.items():
        step = max(1, _DECODE_PIXEL_BUDGET // max(1, shape[0] * shape[1]))
        for start in range(0, len(members), step):
            chosen = members[start:start + step]
            stack = np.stack([np.asarray(images[index]) for index in chosen])
            for offset, outcome in enumerate(_decode_stack(spec, stack)):
                results[chosen[offset]] = outcome
    return results  # type: ignore[return-value]  # every slot is filled above


def _decode_stack(spec: EmblemSpec, stack: np.ndarray) -> "list[tuple[Emblem, int] | MOCoderError]":
    """Decode a (count, H, W) stack of same-shape scans; one entry per scan.

    Per-image failures are captured, so one bad scan never disturbs its
    batch-mates.  The stages, per scan:

    1. binarise at the scan's Otsu threshold (see
       :func:`_binarisation_thresholds`);
    2. locate the black frame from the row and column ink profiles (the
       centres of the first and last thick dark band), which fixes the cell
       pitch and origin;
    3. check the header band's sync dots;
    4. sample every data cell (a 5-pixel cross when cells span >= 3 pixels)
       and binarise the samples;
    5. Manchester-decode, deinterleave and RS-correct the codewords, then
       parse the emblem header.
    """
    count = stack.shape[0]
    outcomes: "list[tuple[Emblem, int] | MOCoderError | None]" = [None] * count
    code = spec.inner_code()

    thresholds = _binarisation_thresholds(stack)

    # Ink profiles of every scan in one pass.  int32 accumulators: a profile
    # entry is at most one scan dimension, and int32 halves the memory
    # traffic of the default int64.
    floors = np.floor(thresholds)
    if (
        stack.dtype == np.uint8
        and np.all((floors >= 0) & (floors <= 255) & (floors != thresholds))
    ):
        # Otsu thresholds are histogram-bin centres (k + 0.5), so for integer
        # pixels ``v < k + 0.5`` is exactly ``v <= k`` — a pure uint8 compare
        # instead of promoting every pixel to float64.
        dark = stack <= floors.astype(np.uint8)[:, None, None]
    else:
        dark = stack < thresholds[:, None, None]
    row_ink = dark.sum(axis=2, dtype=np.int32)
    column_ink = dark.sum(axis=1, dtype=np.int32)
    has_ink = (row_ink.max(axis=1) > 0) & (column_ink.max(axis=1) > 0)
    for index in np.nonzero(~has_ink)[0]:
        outcomes[index] = EmblemDetectionError("no dark structure found in the scan")
    alive = np.nonzero(has_ink)[0]
    if alive.size == 0:
        return outcomes  # type: ignore[return-value]

    top_center, bottom_center = _band_centers_rows(row_ink[alive])
    left_center, right_center = _band_centers_rows(column_ink[alive])
    span_y = spec.frame_cells_y - spec.border_cells
    span_x = spec.frame_cells_x - spec.border_cells
    too_small = (bottom_center - top_center < span_y) | (right_center - left_center < span_x)
    for index in alive[too_small]:
        outcomes[index] = EmblemDetectionError("detected frame is too small for this emblem spec")
    keep = ~too_small
    alive = alive[keep]
    if alive.size == 0:
        return outcomes  # type: ignore[return-value]
    top_center, bottom_center = top_center[keep], bottom_center[keep]
    left_center, right_center = left_center[keep], right_center[keep]
    cell_height = (bottom_center - top_center) / span_y
    cell_width = (right_center - left_center) / span_x
    top = top_center - spec.border_cells / 2.0 * cell_height
    left = left_center - spec.border_cells / 2.0 * cell_width
    use_cross = np.minimum(cell_width, cell_height) >= 3.0

    # Header-band sync verification.
    inner_left = spec.border_cells + spec.gap_cells
    inner_top = spec.border_cells + spec.gap_cells
    dot_centers_x = np.array([
        inner_left + dot_index * spec.dot_cells + spec.dot_cells / 2.0 - 0.5
        for dot_index in range(HEADER_DOT_COUNT)
    ])
    dot_centers_y = np.array([
        inner_top + (spec.dot_cells * spec.header_dot_rows) / 2.0 - 0.5
    ] * HEADER_DOT_COUNT)
    dot_xs = left[:, None] + (dot_centers_x[None, :] + 0.5) * cell_width[:, None]
    dot_ys = top[:, None] + (dot_centers_y[None, :] + 0.5) * cell_height[:, None]
    dot_values = _sample_stack_split(stack, alive, dot_xs, dot_ys, use_cross)
    header_bits = (dot_values < thresholds[alive][:, None]).astype(int)
    sync_length = len(HEADER_SYNC_PATTERN)
    synced_rows = []
    for row, index in enumerate(alive):
        observed_sync = tuple(header_bits[row, :sync_length])
        if observed_sync != HEADER_SYNC_PATTERN:
            outcomes[index] = EmblemDetectionError(
                f"header-band sync mismatch: expected {HEADER_SYNC_PATTERN}, got {observed_sync}"
            )
        else:
            synced_rows.append(row)
    if not synced_rows:
        return outcomes  # type: ignore[return-value]
    synced = np.array(synced_rows)
    alive = alive[synced]
    top, left = top[synced], left[synced]
    cell_width, cell_height = cell_width[synced], cell_height[synced]
    use_cross = use_cross[synced]

    # Data-area sampling and binarisation.
    data_top = spec.border_cells + spec.gap_cells + spec.header_band_cells
    grid_x, grid_y = np.meshgrid(np.arange(spec.data_cells_x), np.arange(spec.data_cells_y))
    base_x = (grid_x + inner_left) + 0.5
    base_y = (grid_y + data_top) + 0.5
    cell_xs = left[:, None, None] + base_x[None, :, :] * cell_width[:, None, None]
    cell_ys = top[:, None, None] + base_y[None, :, :] * cell_height[:, None, None]
    cell_values = _sample_stack_split(stack, alive, cell_xs, cell_ys, use_cross)
    cells = (cell_values.reshape(alive.size, -1) < thresholds[alive][:, None]).astype(np.uint8)

    # Row-batched Manchester decode, bit packing and deinterleave.
    bits = manchester_decode_rows(cells)
    streams = np.packbits(bits, axis=1)[:, : spec.coded_byte_capacity]
    codewords = deinterleave_blocks_batch(streams, spec.rs_block_count, spec.rs_codeword)

    # One syndrome pass over every RS block of every emblem in the chunk;
    # clean emblems (the common case) skip the corrector outright, and only
    # the damaged ones run decode_blocks — which batches Chien internally —
    # reusing the syndromes computed here.
    syndromes = code.syndromes_blocks(
        codewords.reshape(-1, spec.rs_codeword).astype(np.int32)
    ).reshape(alive.size, spec.rs_block_count, -1)
    emblem_damaged = np.any(syndromes != 0, axis=(1, 2))

    for row, index in enumerate(alive):
        try:
            if emblem_damaged[row]:
                data_blocks, corrections = code.decode_blocks(
                    codewords[row].astype(np.int32), syndromes=syndromes[row]
                )
            else:
                data_blocks, corrections = codewords[row][:, : code.k], 0
            protected = data_blocks.astype(np.uint8).tobytes()
            header = EmblemHeader.unpack(protected[: EmblemHeader.SIZE])
            payload = protected[
                EmblemHeader.SIZE:EmblemHeader.SIZE + header.payload_length
            ]
            if header.payload_length > spec.payload_capacity:
                raise EmblemFormatError(
                    f"decoded payload length {header.payload_length} exceeds capacity"
                )
            outcomes[index] = (Emblem(spec=spec, header=header, payload=payload), corrections)
        except MOCoderError as error:
            outcomes[index] = error
    return outcomes  # type: ignore[return-value]


def _sample_stack_split(
    stack: np.ndarray,
    image_rows: np.ndarray,
    xs: np.ndarray,
    ys: np.ndarray,
    use_cross: np.ndarray,
) -> np.ndarray:
    """Batched ``_sample_at`` dispatch: images may mix cross/no-cross modes."""
    values = np.empty(xs.shape, dtype=np.float64)
    for flag in (False, True):
        selected = np.nonzero(use_cross == flag)[0]
        if selected.size:
            values[selected] = _sample_stack(
                stack, image_rows[selected], xs[selected], ys[selected], flag
            )
    return values


def _sample_stack(
    stack: np.ndarray,
    image_rows: np.ndarray,
    xs: np.ndarray,
    ys: np.ndarray,
    use_cross: bool,
) -> np.ndarray:
    """Sample many images of a stack at per-image positions in one gather.

    ``xs``/``ys`` carry one leading row per entry of ``image_rows`` (an index
    into ``stack``).  Positions round to the nearest pixel; with
    ``use_cross`` a sample is the mean of a +-1-pixel cross, clipped at the
    scan edges (on cells under 3 pixels the cross arms would land in the
    neighbouring cells, so callers only ask for it on coarser grids).
    Gathered samples are exact in float64, so converting *after* the gather
    instead of converting the whole image up front changes nothing but the
    amount of work.
    """
    height, width = stack.shape[1], stack.shape[2]
    # int32 indices halve the gather's index bandwidth; the pixel budget
    # keeps stacks far below the int32 range, but guard anyway.
    index_dtype = np.int64 if stack.size >= 2**31 - width else np.int32
    xs = np.clip(np.round(xs).astype(index_dtype), 0, width - 1)
    ys = np.clip(np.round(ys).astype(index_dtype), 0, height - 1)
    lead = image_rows.reshape(image_rows.shape + (1,) * (xs.ndim - 1))
    if not use_cross:
        return stack[lead, ys, xs].astype(np.float64)
    if (
        stack.dtype == np.uint8
        and xs.size
        and xs.min() >= 1
        and xs.max() <= width - 2
        and ys.min() >= 1
        and ys.max() <= height - 2
    ):
        # Interior fast path: every cross arm stays inside the scan, so the
        # per-arm clips are identities and the five arms become constant
        # offsets into the flattened stack — five flat ``np.take`` gathers
        # instead of five fancy-indexed ones.  uint16 holds the sum exactly
        # (5 * 255 < 2**16) and small integers convert to float64 exactly,
        # so total / 5.0 matches the clipped float64 path bit-for-bit.
        base = lead.astype(index_dtype) * (height * width) + ys * width + xs
        flat = stack.reshape(-1)
        total = np.zeros(xs.shape, dtype=np.uint16)
        for offset in (0, 1, -1, width, -width):
            total += np.take(flat, base + offset)
        return total.astype(np.float64) / 5.0
    total = np.zeros(xs.shape, dtype=np.float64)
    for dx, dy in ((0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)):
        sample_x = np.clip(xs + dx, 0, width - 1)
        sample_y = np.clip(ys + dy, 0, height - 1)
        total += stack[lead, sample_y, sample_x]
    return total / 5.0


def _binarisation_thresholds(stack: np.ndarray) -> np.ndarray:
    """Per-image Otsu thresholds for a (count, H, W) stack.

    A uint8 image whose pixels are all 0 or 255 with both values present —
    every stored frame, and every rendered one with 0/255 dust or scratches
    — takes 0.5 without a histogram.  That is exactly Otsu's answer for it:
    every split from 0 to 254 gives the same between-class variance,
    ``argmax`` takes the first, and its bin centre is 0.5.  Gray scans and
    single-valued images go through :func:`_otsu_threshold_stack`.
    """
    count = stack.shape[0]
    if stack.dtype != np.uint8:
        return np.array([otsu_threshold(stack[i]) for i in range(count)], dtype=np.float64)
    thresholds = np.full(count, 0.5)
    gray = [index for index in range(count) if bilevel_tones(stack[index]) != 2]
    if gray:
        thresholds[gray] = _otsu_threshold_stack(stack, gray)
    return thresholds


def _otsu_threshold_stack(
    stack: np.ndarray, rows: "Sequence[int] | None" = None
) -> np.ndarray:
    """Otsu thresholds for the images ``rows`` (default: all) of a
    (count, H, W) uint8 stack.

    Entry ``i`` equals ``otsu_threshold(stack[rows[i]])`` exactly: the
    histogram is still one bincount per image (that part is intrinsic), but
    the whole inter-class-variance sweep — a dozen-plus numpy passes per
    image — runs once across the images.  Degenerate histograms (empty or
    single-valued images) fall back to :func:`otsu_threshold` per image.

    The per-image histogram counts byte *pairs* (the scan viewed as uint16)
    and folds the 256x256 pair matrix back to two byte histograms.  Emblem
    scans are near-bimodal, so a plain byte bincount serialises on the same
    few counters; pair counting halves the increments and measures ~30%
    faster, while the fold is exact integer arithmetic — identical counts.
    """
    if rows is None:
        rows = range(stack.shape[0])
    flat = stack.reshape(stack.shape[0], -1)
    pixels = flat.shape[1]
    even = pixels // 2 * 2
    pairs = flat[:, :even]
    histograms = np.empty((len(rows), 256), dtype=np.float64)
    for at, index in enumerate(rows):
        pair_counts = np.bincount(
            pairs[index].view(np.uint16), minlength=65536
        ).reshape(256, 256)
        # Little-endian pair (low, high) lands at pair_counts[high, low]:
        # axis-0 sums count low bytes, axis-1 sums count high bytes.
        histogram = pair_counts.sum(axis=0) + pair_counts.sum(axis=1)
        if even != pixels:
            histogram[flat[index, -1]] += 1
        histograms[at] = histogram
    totals = histograms.sum(axis=1)
    bin_centers = np.arange(256, dtype=np.float64) + 0.5
    weight_background = np.cumsum(histograms, axis=1)
    weight_foreground = totals[:, None] - weight_background
    cumulative_mean = np.cumsum(histograms * bin_centers[None, :], axis=1)
    grand_mean = cumulative_mean[:, -1]
    valid = (weight_background > 0) & (weight_foreground > 0)
    mean_background = np.where(
        valid, cumulative_mean / np.maximum(weight_background, 1), 0.0
    )
    mean_foreground = np.where(
        valid,
        (grand_mean[:, None] - cumulative_mean) / np.maximum(weight_foreground, 1),
        0.0,
    )
    between_variance = (
        weight_background * weight_foreground * (mean_background - mean_foreground) ** 2
    )
    between_variance[~valid] = -1.0
    thresholds = bin_centers[np.argmax(between_variance, axis=1)]
    degenerate = ~np.any(valid, axis=1)
    for at in np.nonzero(degenerate)[0]:
        thresholds[at] = otsu_threshold(stack[rows[at]])
    return thresholds


def _band_centers_rows(profiles: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First/last band centres for every row of an ink-profile matrix.

    A row's candidate indices are those whose ink exceeds 80 % of its
    8th-largest value (the maximum when that is 0), so one thin full-length
    scratch cannot hide the real frame bands.  Candidates group into runs
    of consecutive indices; runs thinner than ``max(2, longest // 2)`` are
    dropped unless none is left, and the result is the centre
    ``(first + last) / 2`` of the first and of the last remaining run.  Run
    extraction is one edge-transition pass plus segmented ``reduceat``
    reductions for the whole batch.  Callers must have checked
    ``profiles.max(axis=1) > 0`` (the "no dark structure" guard), which
    guarantees every row has at least one band.
    """
    profiles = np.asarray(profiles)
    count, size = profiles.shape
    reference_rank = min(8, size)
    reference = np.partition(profiles, size - reference_rank, axis=1)[:, size - reference_rank]
    reference = np.where(reference == 0, profiles.max(axis=1), reference)
    mask = profiles > 0.8 * reference[:, None]

    padded = np.zeros((count, size + 2), dtype=np.int8)
    padded[:, 1:-1] = mask
    transitions = padded[:, 1:] - padded[:, :-1]
    run_rows, run_starts = np.nonzero(transitions == 1)
    _, run_ends = np.nonzero(transitions == -1)  # aligned: runs are ordered per row
    lengths = run_ends - run_starts
    runs_per_row = np.bincount(run_rows, minlength=count)
    if runs_per_row.min() == 0:
        raise EmblemDetectionError("emblem frame not found in the scan")
    offsets = np.zeros(count, dtype=np.int64)
    np.cumsum(runs_per_row[:-1], out=offsets[1:])

    longest = np.maximum.reduceat(lengths, offsets)
    kept = lengths >= np.repeat(np.maximum(2, longest // 2), runs_per_row)
    any_kept = np.logical_or.reduceat(kept, offsets)
    # Fall back to *all* runs when none is thick enough.
    kept |= ~np.repeat(any_kept, runs_per_row)
    run_index = np.arange(lengths.size)
    first_run = np.minimum.reduceat(np.where(kept, run_index, lengths.size), offsets)
    last_run = np.maximum.reduceat(np.where(kept, run_index, -1), offsets)
    first_center = (run_starts[first_run] + run_ends[first_run] - 1) / 2.0
    last_center = (run_starts[last_run] + run_ends[last_run] - 1) / 2.0
    return first_center, last_center


def build_emblem(
    spec: EmblemSpec,
    kind: EmblemKind,
    index: int,
    total: int,
    group_index: int,
    slot_in_group: int,
    payload: bytes,
    stream_length: int,
    stream_crc32: int,
) -> Emblem:
    """Convenience constructor assembling the header and the emblem."""
    header = EmblemHeader(
        kind=kind,
        index=index,
        total=total,
        group_index=group_index,
        slot_in_group=slot_in_group,
        payload_length=len(payload),
        stream_length=stream_length,
        stream_crc32=stream_crc32,
    )
    return Emblem(spec=spec, header=header, payload=payload)
