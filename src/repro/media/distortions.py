"""Distortion models for analog media and scanners.

§3.1 of the paper lists the degradations an archival barcode must survive:
the film "can distort to a small extent over time and become damaged in
various ways with fading, hot spots, scratches", scanners "use lenses which
can change straight lines into curves", mechanical motion "will introduce
small perturbations or unsteady movements while scanning", and "dust can also
be a source of degradation".  Each of those effects is modelled here as a
parameterised, seedable transform on a grayscale raster, and
:class:`DistortionProfile` bundles them into a single reproducible channel
model used by the media channels and by the robustness benchmarks.
:data:`DISTORTIONS` names the four built-in profiles, so a config can pick
one by name (:func:`distortion_name`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import ndimage

from repro.errors import resolve_name
from repro.util.rng import deterministic_rng


def add_gaussian_noise(image: np.ndarray, sigma: float, rng: np.random.Generator) -> np.ndarray:
    """Additive sensor noise."""
    if sigma <= 0:
        return image
    noisy = image.astype(np.float64) + rng.normal(0.0, sigma, size=image.shape)
    return np.clip(noisy, 0, 255).astype(np.uint8)


def add_dust(
    image: np.ndarray,
    spots: int,
    max_radius: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Dark dust specks (on the film, the glass plates, or the filmed surface)."""
    if spots <= 0:
        return image
    result = image.copy()
    height, width = result.shape
    for _ in range(spots):
        radius = int(rng.integers(1, max(2, max_radius + 1)))
        center_y = int(rng.integers(0, height))
        center_x = int(rng.integers(0, width))
        y0, y1 = max(0, center_y - radius), min(height, center_y + radius + 1)
        x0, x1 = max(0, center_x - radius), min(width, center_x + radius + 1)
        ys, xs = np.ogrid[y0:y1, x0:x1]
        mask = (ys - center_y) ** 2 + (xs - center_x) ** 2 <= radius ** 2
        shade = 0 if rng.random() < 0.7 else 255
        region = result[y0:y1, x0:x1]
        region[mask] = shade
    return result


def add_scratches(
    image: np.ndarray,
    scratches: int,
    max_width: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Long thin scratches across the frame (mostly light on film, dark on paper)."""
    if scratches <= 0:
        return image
    result = image.copy()
    height, width = result.shape
    for _ in range(scratches):
        vertical = rng.random() < 0.5
        thickness = int(rng.integers(1, max(2, max_width + 1)))
        shade = 255 if rng.random() < 0.5 else 0
        if vertical:
            x = int(rng.integers(0, width))
            result[:, x:min(width, x + thickness)] = shade
        else:
            y = int(rng.integers(0, height))
            result[y:min(height, y + thickness), :] = shade
    return result


def apply_fading(image: np.ndarray, amount: float, rng: np.random.Generator) -> np.ndarray:
    """Contrast loss plus a smooth illumination gradient (fading / hot spots)."""
    if amount <= 0:
        return image
    amount = min(amount, 0.9)
    values = image.astype(np.float64)
    # Pull everything toward mid-gray.
    values = 128.0 + (values - 128.0) * (1.0 - amount)
    # Smooth gradient across the frame with a random orientation.
    height, width = image.shape
    ys, xs = np.mgrid[0:height, 0:width]
    angle = rng.uniform(0, 2 * np.pi)
    ramp = (np.cos(angle) * xs / max(width, 1) + np.sin(angle) * ys / max(height, 1))
    values += 40.0 * amount * (ramp - ramp.mean())
    return np.clip(values, 0, 255).astype(np.uint8)


def apply_lens_curvature(image: np.ndarray, strength: float) -> np.ndarray:
    """Barrel distortion: straight lines bow outwards near the edge of the field."""
    if strength <= 0:
        return image
    height, width = image.shape
    center_y, center_x = (height - 1) / 2.0, (width - 1) / 2.0
    ys, xs = np.mgrid[0:height, 0:width].astype(np.float64)
    norm_y = (ys - center_y) / max(center_y, 1)
    norm_x = (xs - center_x) / max(center_x, 1)
    radius_sq = norm_x ** 2 + norm_y ** 2
    factor = 1.0 + strength * radius_sq
    source_y = np.clip(center_y + (ys - center_y) / factor, 0, height - 1)
    source_x = np.clip(center_x + (xs - center_x) / factor, 0, width - 1)
    return image[source_y.round().astype(int), source_x.round().astype(int)]


def apply_scanner_jitter(
    image: np.ndarray, amplitude: float, rng: np.random.Generator
) -> np.ndarray:
    """Per-row horizontal displacement from unsteady linear-array scanner motion."""
    if amplitude <= 0:
        return image
    height, width = image.shape
    # A smooth random walk keeps neighbouring rows coherent, like a real
    # transport mechanism wobbling rather than white noise.
    steps = rng.normal(0.0, amplitude / 4.0, size=height)
    offsets = np.cumsum(steps)
    offsets -= offsets.mean()
    offsets = np.clip(offsets, -amplitude, amplitude)
    result = np.empty_like(image)
    for row in range(height):
        shift = int(round(offsets[row]))
        result[row] = np.roll(image[row], shift)
    return result


def apply_blur(image: np.ndarray, radius: float) -> np.ndarray:
    """Optical / motion blur from the scanner."""
    if radius <= 0:
        return image
    blurred = ndimage.gaussian_filter(image.astype(np.float64), sigma=radius)
    return np.clip(blurred, 0, 255).astype(np.uint8)


def apply_rotation(image: np.ndarray, degrees: float) -> np.ndarray:
    """Small skew from imperfect media alignment on the scanner bed."""
    if abs(degrees) < 1e-9:
        return image
    rotated = ndimage.rotate(
        image.astype(np.float64), degrees, reshape=False, order=1, mode="constant", cval=255.0
    )
    return np.clip(rotated, 0, 255).astype(np.uint8)


def to_bitonal(image: np.ndarray, threshold: int = 128) -> np.ndarray:
    """Hard thresholding, as performed by bitonal microfilm writers/readers."""
    return np.where(image < threshold, 0, 255).astype(np.uint8)


@dataclass
class DistortionProfile:
    """A bundle of degradation parameters applied in a fixed, realistic order.

    Severities of zero disable the corresponding effect, so the same class
    describes anything from a pristine scan to heavily damaged film.
    """

    name: str = "pristine"
    noise_sigma: float = 0.0
    dust_spots: int = 0
    dust_max_radius: int = 3
    scratches: int = 0
    scratch_max_width: int = 2
    fading: float = 0.0
    lens_curvature: float = 0.0
    jitter_amplitude: float = 0.0
    blur_radius: float = 0.0
    rotation_degrees: float = 0.0
    bitonal_output: bool = False
    seed: int | None = field(default=None)

    def apply(self, image: np.ndarray, rng: np.random.Generator | None = None) -> np.ndarray:
        """Apply the full degradation chain to a raster image."""
        if rng is None:
            rng = deterministic_rng(self.seed)
        result = np.asarray(image, dtype=np.uint8)
        result = apply_fading(result, self.fading, rng)
        result = add_scratches(result, self.scratches, self.scratch_max_width, rng)
        result = add_dust(result, self.dust_spots, self.dust_max_radius, rng)
        result = apply_lens_curvature(result, self.lens_curvature)
        result = apply_rotation(result, self.rotation_degrees)
        result = apply_scanner_jitter(result, self.jitter_amplitude, rng)
        result = apply_blur(result, self.blur_radius)
        result = add_gaussian_noise(result, self.noise_sigma, rng)
        if self.bitonal_output:
            result = to_bitonal(result)
        return result

    def scaled(self, factor: float, name: str | None = None) -> "DistortionProfile":
        """Return a copy with every continuous severity multiplied by ``factor``."""
        return DistortionProfile(
            name=name or f"{self.name} x{factor:g}",
            noise_sigma=self.noise_sigma * factor,
            dust_spots=int(round(self.dust_spots * factor)),
            dust_max_radius=self.dust_max_radius,
            scratches=int(round(self.scratches * factor)),
            scratch_max_width=self.scratch_max_width,
            fading=self.fading * factor,
            lens_curvature=self.lens_curvature * factor,
            jitter_amplitude=self.jitter_amplitude * factor,
            blur_radius=self.blur_radius * factor,
            rotation_degrees=self.rotation_degrees * factor,
            bitonal_output=self.bitonal_output,
            seed=self.seed,
        )


#: A pristine channel (no degradation at all).
PRISTINE = DistortionProfile(name="pristine")

#: A gently-used flatbed scan of laser-printed paper.
OFFICE_SCAN = DistortionProfile(
    name="office-scan",
    noise_sigma=6.0,
    dust_spots=30,
    dust_max_radius=2,
    fading=0.05,
    jitter_amplitude=1.0,
    blur_radius=0.5,
)

#: Aged microfilm read on a library scanner.
AGED_MICROFILM = DistortionProfile(
    name="aged-microfilm",
    noise_sigma=2.0,
    dust_spots=40,
    dust_max_radius=2,
    scratches=1,
    scratch_max_width=2,
    fading=0.10,
    lens_curvature=0.0002,
    jitter_amplitude=0.3,
    blur_radius=0.3,
    bitonal_output=True,
)

#: Cinema film scanned on a professional scanner (sharper, low distortion).
CINEMA_SCAN = DistortionProfile(
    name="cinema-scan",
    noise_sigma=3.0,
    dust_spots=15,
    dust_max_radius=2,
    fading=0.05,
    lens_curvature=0.0003,
    blur_radius=0.4,
)

#: The distortion name table: the built-in profiles, by name.
DISTORTIONS = {
    profile.name: profile for profile in (PRISTINE, OFFICE_SCAN, AGED_MICROFILM, CINEMA_SCAN)
}


def distortion_name(name: str) -> str:
    """The :data:`DISTORTIONS` key ``name`` spells, in any case; an unknown
    name raises :class:`~repro.errors.UnknownNameError` with a did-you-mean
    suggestion."""
    return resolve_name("distortion profile", name, sorted(DISTORTIONS))
