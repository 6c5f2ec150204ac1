"""Synthetic speech-like test signals.

The paper compresses acoustic data; real recordings are not available
offline, so we synthesise the signal class LPC is built for: an
autoregressive (all-pole) process — a pulse train (voiced excitation)
plus white noise driven through a resonant AR filter.  LPC analysis of
such a signal recovers the filter, so prediction gain is high, exactly
as with speech (substitution documented in DESIGN.md §2).
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

__all__ = ["SpeechLikeSource", "ar_filter", "frame_stream"]


def ar_filter(
    excitation: Sequence[float], coefficients: Sequence[float]
) -> np.ndarray:
    """All-pole filter: ``y[n] = e[n] + sum_k a[k] y[n-k]``.

    The recursion runs on Python floats.  For each ``n`` the sum starts
    at zero and adds ``a[k] y[n-1-k]`` for ``k = 0, 1, ...`` before
    ``e[n]`` is added: the order of a sequential dot product over the
    reversed history, which the output must match bit for bit.
    """
    a = np.asarray(coefficients, dtype=np.float64).tolist()
    e = np.asarray(excitation, dtype=np.float64)
    y: List[float] = []
    for n, sample in enumerate(e.tolist()):
        if n and a:
            acc = 0.0
            for coefficient, past in zip(a, reversed(y[-len(a):])):
                acc += coefficient * past
            sample += acc
        y.append(sample)
    return np.array(y, dtype=np.float64)


class SpeechLikeSource:
    """Deterministic generator of speech-like frames.

    Two formant-style resonances (stable pole pairs) are excited by a
    pitch-period pulse train plus low-level noise; amplitude is
    normalised into ``[-peak, peak]`` so the quantiser's full scale is
    meaningful.
    """

    def __init__(
        self,
        seed: int = 2008,
        pitch_period: int = 40,
        noise_level: float = 0.02,
        peak: float = 0.9,
    ) -> None:
        if pitch_period < 2:
            raise ValueError("pitch_period must be >= 2")
        self._rng = np.random.RandomState(seed)
        self.pitch_period = pitch_period
        self.noise_level = noise_level
        self.peak = peak
        # two resonances: r=0.95 @ 0.07*pi and r=0.9 @ 0.25*pi
        self.coefficients = self._pole_pairs_to_ar(
            [(0.95, 0.07 * np.pi), (0.90, 0.25 * np.pi)]
        )

    @staticmethod
    def _pole_pairs_to_ar(pole_pairs) -> np.ndarray:
        """Expand conjugate pole pairs into AR coefficients ``a[1..]``."""
        poly = np.array([1.0])
        for radius, angle in pole_pairs:
            pair = np.array([1.0, -2.0 * radius * np.cos(angle), radius ** 2])
            poly = np.convolve(poly, pair)
        return -poly[1:]

    def samples(self, count: int) -> np.ndarray:
        """Generate ``count`` samples of the signal."""
        if count < 1:
            raise ValueError("count must be >= 1")
        excitation = self.noise_level * self._rng.randn(count)
        excitation[:: self.pitch_period] += 1.0
        signal = ar_filter(excitation, self.coefficients)
        scale = np.max(np.abs(signal))
        if scale > 0:
            signal = signal * (self.peak / scale)
        return signal

    def frames(self, frame_size: int, count: int) -> List[np.ndarray]:
        """``count`` consecutive frames of ``frame_size`` samples."""
        stream = self.samples(frame_size * count)
        return [
            stream[i * frame_size : (i + 1) * frame_size]
            for i in range(count)
        ]


def frame_stream(
    total_samples: int, frame_size: int, seed: int = 2008
) -> List[np.ndarray]:
    """Split ``total_samples`` of synthetic speech into frames.

    This mirrors the paper's setup: "the input signal contains L
    samples, and these samples are divided into frames each of size N".
    A final partial frame is dropped (as any fixed-frame codec does).
    """
    if frame_size < 1:
        raise ValueError("frame_size must be >= 1")
    source = SpeechLikeSource(seed=seed)
    count = total_samples // frame_size
    if count == 0:
        raise ValueError("total_samples shorter than one frame")
    return source.frames(frame_size, count)
