"""MOCoder: the media layout encoder/decoder of Micr'Olonys.

MOCoder performs the "physical" layout of bits across barcodes — *emblems* —
for visual analog media.  The pipeline, following §3.1 of the paper:

1. the DBCoder bit stream is split across emblems, with three parity emblems
   added per group of seventeen data emblems (the *outer* code);
2. each emblem's bytes are protected by an *inner* Reed-Solomon code over
   blocks of 223 data + 32 redundancy bytes, interleaved across the emblem;
3. the protected bytes are serialised as a self-clocking differential
   Manchester cell stream (bit and clock signals paired, no separate clocking
   system);
4. the cells are drawn into the emblem's data area, which is surrounded by a
   thick black square and large-scale black-and-white dots used for fast and
   robust detection of the emblem geometry and type.

Decoding reverses each step and tolerates the distortions the paper lists:
dust, scratches, fading, lens curvature and unsteady scanner motion.
"""

from repro.mocoder.reed_solomon import ReedSolomonCode
from repro.mocoder.manchester import manchester_encode_rows, manchester_decode_rows
from repro.mocoder.emblem import EmblemSpec, Emblem, EmblemKind
from repro.mocoder.outer_code import OuterCode
from repro.mocoder.mocoder import MOCoder, EncodedStream

__all__ = [
    "ReedSolomonCode",
    "manchester_encode_rows",
    "manchester_decode_rows",
    "EmblemSpec",
    "Emblem",
    "EmblemKind",
    "OuterCode",
    "MOCoder",
    "EncodedStream",
]
