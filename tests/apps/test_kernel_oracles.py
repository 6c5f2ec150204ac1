"""Vectorized LPC host kernels equal their sequential definitions.

Every kernel is compared with ``np.array_equal`` against the loop it
replaced (kept in :mod:`tests.apps.lpc_reference`): whole-array work is
only allowed where it reproduces the same float operations in the same
order.
"""

import numpy as np
import pytest

from repro.apps.lpc import signal_gen
from repro.apps.lpc.fft import fft
from repro.apps.lpc.lpc import (
    autocorrelation,
    lpc_coefficients,
    normal_equations,
    predict,
    reconstruct,
)
from repro.apps.lpc.signal_gen import ar_filter, frame_stream
from tests.apps.lpc_reference import (
    ar_filter_loop,
    fft_loop,
    normal_equations_loop,
    predict_loop,
    reconstruct_loop,
)

ORDERS = range(1, 33)


def lengths(order):
    """Empty, single-sample, within-transient and long frames."""
    return sorted({0, 1, max(0, order - 1), order, 136, 513, 1024})


def stable_predictor(rng, order):
    """Coefficients with ``sum |a| < 1``, so the all-pole filter decays."""
    a = rng.standard_normal(order)
    return 0.95 * a / np.abs(a).sum()


def lpc_stream_frames(seed):
    """The 16 frames of 512 samples the LPC streaming benchmark uses."""
    return frame_stream(total_samples=16 * 512, frame_size=512, seed=seed)


@pytest.mark.parametrize("order", ORDERS)
def test_predict_matches_per_sample_dot(order):
    rng = np.random.default_rng(order)
    coefficients = rng.standard_normal(order)
    for n in lengths(order):
        frame = rng.standard_normal(n)
        assert np.array_equal(
            predict(frame, coefficients), predict_loop(frame, coefficients)
        )


@pytest.mark.parametrize("order", ORDERS)
def test_ar_filter_and_reconstruct_match_per_sample_dot(order):
    rng = np.random.default_rng(100 + order)
    coefficients = stable_predictor(rng, order)
    for n in lengths(order):
        excitation = rng.standard_normal(n)
        assert np.array_equal(
            ar_filter(excitation, coefficients),
            ar_filter_loop(excitation, coefficients),
        )
        assert np.array_equal(
            reconstruct(excitation, coefficients),
            reconstruct_loop(excitation, coefficients),
        )


def test_ar_filter_without_coefficients_passes_excitation_through():
    excitation = np.array([0.5, -0.25, 1.0])
    assert np.array_equal(ar_filter(excitation, []), excitation)
    assert ar_filter([], [0.5]).shape == (0,)


@pytest.mark.parametrize("n", [1, 2, 4, 8, 64, 512, 1024])
def test_fft_matches_per_block_butterflies(n):
    rng = np.random.default_rng(n)
    samples = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    assert np.array_equal(fft(samples), fft_loop(samples))


@pytest.mark.parametrize("order", [0, 1, 2, 8, 32])
def test_normal_equations_match_entrywise_fill(order):
    r = autocorrelation(np.random.default_rng(order).standard_normal(64), order)
    matrix, rhs = normal_equations(r)
    want_matrix, want_rhs = normal_equations_loop(r)
    assert matrix.shape == (order, order)
    assert np.array_equal(matrix, want_matrix)
    assert np.array_equal(rhs, want_rhs)


@pytest.mark.parametrize("seed", [1, 9001])
def test_lpc_stream_frames_bit_identical(seed, monkeypatch):
    frames = lpc_stream_frames(seed)
    with monkeypatch.context() as patch:
        patch.setattr(signal_gen, "ar_filter", ar_filter_loop)
        for frame, want in zip(frames, lpc_stream_frames(seed)):
            assert np.array_equal(frame, want)
    for frame in frames:
        coefficients = lpc_coefficients(frame, 8)
        predicted = predict(frame, coefficients)
        assert np.array_equal(predicted, predict_loop(frame, coefficients))
        assert np.array_equal(
            reconstruct(frame - predicted, coefficients),
            reconstruct_loop(frame - predicted, coefficients),
        )
        assert np.array_equal(fft(frame), fft_loop(frame))
