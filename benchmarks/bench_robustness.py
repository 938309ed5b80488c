"""C1 — the error-correction claims of §3.1.

* the inner RS(255,223) code corrects up to 7.2 % damaged data per emblem;
* the outer code restores a group of 20 emblems with any 3 missing;
* emblems survive scanner damage that defeats a conventional 2-D barcode.
"""

import numpy as np

from repro.baselines import SimpleBarcode
from repro.core.profiles import TEST_PROFILE
from repro.errors import MOCoderError, ReproError
from repro.media.distortions import DistortionProfile
from repro.mocoder import EmblemKind, MOCoder
from repro.mocoder.emblem import build_emblem, decode_image_batch
from repro.mocoder.reed_solomon import INNER_CODE

from conftest import report


def test_inner_code_damage_threshold(benchmark):
    """Sweep byte-corruption rates across one emblem's RS blocks."""
    rng = np.random.default_rng(5)  # lint: disable=REP101 -- benchmark harness; seed is an explicit literal
    data = rng.integers(0, 256, size=(40, 223), dtype=np.int32)
    codewords = INNER_CODE.encode_blocks(data)

    def survives(rate: float) -> bool:
        damaged = codewords.copy()
        errors_per_block = int(round(rate * 223))
        for block in range(damaged.shape[0]):
            for position in rng.choice(255, size=errors_per_block, replace=False):
                damaged[block, position] ^= int(rng.integers(1, 256))
        try:
            decoded, _ = INNER_CODE.decode_blocks(damaged)
        except ReproError:
            return False
        return np.array_equal(decoded, data)

    rows = []
    for rate in (0.02, 0.05, 0.07, 0.072, 0.08, 0.10):
        rows.append((f"{rate:.3f} damaged", "restored" if survives(rate) else "lost"))
    benchmark.pedantic(lambda: survives(0.05), rounds=1, iterations=1)
    report("C1: intra-emblem damage tolerance (paper: up to 7.2 %)", rows)
    assert survives(0.07) and not survives(0.10)


def test_outer_code_emblem_loss(benchmark):
    """Any 3 of 20 emblems may be missing; 4 is too many."""
    spec = TEST_PROFILE.spec
    mocoder = MOCoder(spec)
    rng = np.random.default_rng(9)  # lint: disable=REP101 -- benchmark harness; seed is an explicit literal
    data = bytes(rng.integers(0, 256, size=spec.payload_capacity * 17, dtype=np.uint8))
    images = mocoder.encode_to_images(data)

    def survives(lost: int) -> bool:
        survivors = images[lost:]
        try:
            recovered, _ = mocoder.decode(survivors)
        except ReproError:
            return False
        return recovered == data

    rows = [(f"{lost} emblems lost", "restored" if survives(lost) else "lost")
            for lost in (0, 1, 2, 3, 4)]
    benchmark.pedantic(lambda: survives(3), rounds=1, iterations=1)
    report("C1: inter-emblem loss tolerance (paper: any 3 of 20)", rows)
    assert survives(3) and not survives(4)


def test_emblem_vs_barcode_under_scanner_damage(benchmark):
    """Emblems keep decoding under dust levels that break the QR-style baseline."""
    spec = TEST_PROFILE.spec
    rng = np.random.default_rng(3)  # lint: disable=REP101 -- benchmark harness; seed is an explicit literal
    payload = bytes(rng.integers(0, 256, size=spec.payload_capacity, dtype=np.uint8))
    emblem = build_emblem(spec, EmblemKind.DATA, 0, 1, 0, 0, payload, len(payload), 0)
    emblem_image = emblem.to_image()
    barcode = SimpleBarcode()
    barcode_image = barcode.encode(payload[:1000])

    def emblem_survives(profile):
        [outcome] = decode_image_batch(spec, [profile.apply(emblem_image)])
        return not isinstance(outcome, MOCoderError) and outcome[0].payload == payload

    def barcode_survives(profile):
        try:
            return barcode.decode(profile.apply(barcode_image)) == payload[:1000]
        except MOCoderError:
            return False

    rows = []
    advantage_seen = False
    seeds = (17, 23, 31)
    for dust in (0, 2, 4, 6, 8, 12):
        emblem_ok = 0
        barcode_ok = 0
        for seed in seeds:
            profile = DistortionProfile(name=f"dust{dust}", dust_spots=dust,
                                        dust_max_radius=2, noise_sigma=3.0, seed=seed)
            emblem_ok += emblem_survives(profile)
            barcode_ok += barcode_survives(profile)
        rows.append((f"{dust} dust spots",
                     f"emblem {emblem_ok}/{len(seeds)}",
                     f"barcode {barcode_ok}/{len(seeds)}"))
        if emblem_ok > barcode_ok:
            advantage_seen = True
    benchmark.pedantic(lambda: emblem_survives(DistortionProfile(dust_spots=5, seed=1)),
                       rounds=1, iterations=1)
    report("C1: self-clocking + RS emblems vs QR-style baseline (survival rate)", rows)
    assert advantage_seen
