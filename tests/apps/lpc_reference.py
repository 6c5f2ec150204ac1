"""Sequential reference forms of the vectorized LPC host kernels.

Each function here is the plain per-sample (or per-block) definition
that a kernel in ``repro.apps.lpc`` replaces with whole-array work.
The tests assert that every rewritten kernel equals its reference bit
for bit (``np.array_equal``), so these loops are the contract, not a
fallback.
"""

import math

import numpy as np

from repro.apps.lpc.fft import _bit_reverse_indices, is_power_of_two


def predict_loop(frame, coefficients):
    """One dot product of the ``min(i, M)`` predecessors per sample."""
    x = np.asarray(frame, dtype=np.float64)
    order = coefficients.shape[0]
    predicted = np.zeros_like(x)
    for i in range(x.shape[0]):
        history = min(i, order)
        if history:
            predicted[i] = coefficients[:history] @ x[i - history : i][::-1]
    return predicted


def reconstruct_loop(error, coefficients):
    """Rebuild a frame from its residual, one sample at a time."""
    e = np.asarray(error, dtype=np.float64)
    order = coefficients.shape[0]
    x = np.zeros_like(e)
    for i in range(e.shape[0]):
        history = min(i, order)
        predicted = 0.0
        if history:
            predicted = coefficients[:history] @ x[i - history : i][::-1]
        x[i] = e[i] + predicted
    return x


def ar_filter_loop(excitation, coefficients):
    """All-pole recursion with one numpy dot per output sample."""
    a = np.asarray(coefficients, dtype=np.float64)
    e = np.asarray(excitation, dtype=np.float64)
    y = np.zeros_like(e)
    order = a.shape[0]
    for n in range(e.shape[0]):
        history = min(n, order)
        acc = e[n]
        if history:
            acc += a[:history] @ y[n - history : n][::-1]
        y[n] = acc
    return y


def fft_loop(samples):
    """Radix-2 DIT FFT with one Python iteration per butterfly block."""
    data = np.asarray(samples, dtype=np.complex128)
    n = data.shape[0]
    if not is_power_of_two(n):
        raise ValueError(f"FFT length must be a power of two, got {n}")
    if n == 1:
        return data.copy()
    out = data[_bit_reverse_indices(n)].copy()
    span = 2
    while span <= n:
        half = span // 2
        twiddles = np.exp(-2j * math.pi * np.arange(half) / span)
        for block in range(0, n, span):
            upper = out[block:block + half].copy()
            lower = out[block + half:block + span] * twiddles
            out[block:block + half] = upper + lower
            out[block + half:block + span] = upper - lower
        span *= 2
    return out


def normal_equations_loop(r):
    """Toeplitz matrix filled entry by entry, plus the right-hand side."""
    order = r.shape[0] - 1
    matrix = np.empty((order, order))
    for i in range(order):
        for j in range(order):
            matrix[i, j] = r[abs(i - j)]
    return matrix, r[1 : order + 1]
