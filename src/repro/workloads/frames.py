"""Seeded synthetic inputs standing in for the Mediabench data sets.

The paper's results are driven entirely by memory-pattern *geometry*
(row strides, overlapping search windows, correlation lags), not by
the pixel values themselves; these generators produce deterministic,
realistically structured data so the functional results (motion
vectors, lags) are non-trivial.
"""

from __future__ import annotations

import numpy as np


def synthetic_frame(width: int, height: int, seed: int = 0) -> np.ndarray:
    """A smooth random luminance frame (uint8, shape (height, width)).

    Smoothness matters: motion estimation on white noise finds no
    coherent motion, while a low-pass field gives the SAD surface a
    clear minimum, as natural video would.
    """
    rng = np.random.default_rng(seed)
    noise = rng.integers(0, 256, size=(height, width)).astype(np.float64)
    kernel = np.ones(5) / 5.0
    for axis in (0, 1):
        noise = np.apply_along_axis(
            lambda m: np.convolve(m, kernel, mode="same"), axis, noise)
    lo, hi = noise.min(), noise.max()
    scaled = (noise - lo) / (hi - lo + 1e-9) * 255.0
    return scaled.astype(np.uint8)


def shifted_frame(frame: np.ndarray, dx: int, dy: int,
                  noise_amp: int = 4, seed: int = 1) -> np.ndarray:
    """Shift ``frame`` by (dx, dy) and add mild noise.

    Used as the "current" frame for motion estimation: the best match
    for a block at (x, y) lies near (x - dx, y - dy) in the reference.
    """
    rng = np.random.default_rng(seed)
    shifted = np.roll(np.roll(frame, dy, axis=0), dx, axis=1)
    noise = rng.integers(-noise_amp, noise_amp + 1, size=frame.shape)
    return np.clip(shifted.astype(np.int32) + noise, 0, 255).astype(np.uint8)


def synthetic_rgb(width: int, height: int,
                  seed: int = 0) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Planar R, G, B channels (each uint8, (height, width))."""
    return (synthetic_frame(width, height, seed),
            synthetic_frame(width, height, seed + 1),
            synthetic_frame(width, height, seed + 2))


def synthetic_speech(n_samples: int, seed: int = 0,
                     pitch_lag: int = 57) -> np.ndarray:
    """Pitched int16 "speech" signal for the GSM long-term predictor.

    A decaying periodic pulse train plus noise; the LTP search should
    recover a lag close to ``pitch_lag``.
    """
    rng = np.random.default_rng(seed)
    signal = rng.normal(0, 250, size=n_samples)
    pulse = np.zeros(n_samples)
    pulse[::pitch_lag] = 4000.0
    kernel = np.exp(-np.arange(12) / 3.0)
    pulse = np.convolve(pulse, kernel, mode="same")
    samples = signal + pulse
    # Amplitudes are kept modest so the MMX coding's packed-i32
    # correlation accumulation cannot wrap (it must equal the exact
    # 192-bit accumulator result of the MOM codings).
    return np.clip(samples, -12000, 12000).astype(np.int16)
