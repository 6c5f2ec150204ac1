"""Linear predictive coding: analysis, prediction error, quantisation.

The paper's application 1 is "LPC (linear predictive coding) based
acoustic data compression (ADC)": for each input frame, predictor
coefficients are generated, the prediction error (residual) is computed,
and the error plus coefficients are quantised — that quantised stream is
the compressed data.

The predictor solves the normal equations ``R a = r`` where ``R`` is the
Toeplitz autocorrelation matrix of the frame (via the LU actor —
:mod:`repro.apps.lpc.linalg`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from repro.apps.lpc.linalg import SingularMatrixError, solve
from repro.apps.lpc.signal_gen import ar_filter

__all__ = [
    "autocorrelation",
    "autocorrelation_batch",
    "normal_equations",
    "lpc_coefficients",
    "predict",
    "predict_batch",
    "prediction_error",
    "prediction_error_batch",
    "reconstruct",
    "Quantizer",
    "autocorr_cycles",
    "error_cycles",
]


def autocorrelation(frame: Sequence[float], lags: int) -> np.ndarray:
    """Biased autocorrelation ``r[0..lags]`` of one frame."""
    x = np.asarray(frame, dtype=np.float64)
    n = x.shape[0]
    if lags >= n:
        raise ValueError(f"need frame longer than {lags} samples, got {n}")
    return np.array([x[: n - k] @ x[k:] for k in range(lags + 1)])


def autocorrelation_batch(frames: np.ndarray, lags: int) -> np.ndarray:
    """Biased autocorrelation of a batch of equal-length frames.

    ``frames`` is ``(B, N)``; returns ``(B, lags + 1)``.  The batch
    dimension is vectorized (one einsum per lag over all B frames), so
    a batched accelerator dispatch prices B windows at one numpy-call
    overhead instead of B.  Each row equals
    :func:`autocorrelation` of that frame up to float summation order.
    """
    x = np.atleast_2d(np.asarray(frames, dtype=np.float64))
    n = x.shape[1]
    if lags >= n:
        raise ValueError(f"need frames longer than {lags} samples, got {n}")
    r = np.empty((x.shape[0], lags + 1))
    for k in range(lags + 1):
        r[:, k] = np.einsum("bi,bi->b", x[:, : n - k], x[:, k:])
    return r


def normal_equations(r: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Toeplitz system ``R a = rhs`` from autocorrelation ``r[0..M]``."""
    order = r.shape[0] - 1
    i = np.arange(order)
    return r[np.abs(i[:, None] - i[None, :])], r[1 : order + 1]


def lpc_coefficients(
    frame: Sequence[float], order: int, regularization: float = 1e-9
) -> np.ndarray:
    """Predictor coefficients ``a[1..M]`` of one frame via LU solve.

    A tiny diagonal regularisation keeps pathological (e.g. silent)
    frames solvable; a genuinely singular system falls back to the
    zero predictor (the residual then equals the signal, which is the
    correct degenerate behaviour).
    """
    r = autocorrelation(frame, order)
    matrix, rhs = normal_equations(r)
    matrix = matrix + regularization * np.eye(order) * max(1.0, r[0])
    try:
        return solve(matrix, rhs)
    except SingularMatrixError:
        return np.zeros(order)


def predict(frame: Sequence[float], coefficients: np.ndarray) -> np.ndarray:
    """Predicted value of each sample from its ``M`` predecessors.

    Samples with fewer than ``M`` predecessors use the available ones
    (the frame-initial transient).  This is the one-row case of
    :func:`predict_batch`.
    """
    x = np.asarray(frame, dtype=np.float64)
    return predict_batch(x[None], np.asarray(coefficients)[None])[0]


def predict_batch(frames: np.ndarray, coefficients: np.ndarray) -> np.ndarray:
    """:func:`predict` vectorized over a batch of frames.

    ``frames`` is ``(B, N)`` and ``coefficients`` ``(B, M)`` (one
    predictor per frame).  Lag ``k`` contributes ``a[:, k-1] * x[:, :-k]``
    to every sample at once, across the whole batch.  Each sample
    accumulates its lags in the order ``k = 1, 2, ...`` starting from
    zero, exactly as a sequential dot product over the reversed history
    does, so every row equals that per-sample definition bit for bit.
    """
    x = np.atleast_2d(np.asarray(frames, dtype=np.float64))
    a = np.atleast_2d(np.asarray(coefficients, dtype=np.float64))
    if a.shape[0] != x.shape[0]:
        raise ValueError(
            f"batch mismatch: {x.shape[0]} frames, "
            f"{a.shape[0]} coefficient sets"
        )
    predicted = np.zeros_like(x)
    for k in range(1, min(a.shape[1], x.shape[1] - 1) + 1):
        predicted[:, k:] += a[:, k - 1 : k] * x[:, :-k]
    return predicted


def prediction_error(frame: Sequence[float], coefficients: np.ndarray) -> np.ndarray:
    """The residual actor D computes: ``e[i] = x[i] - x_hat[i]``."""
    x = np.asarray(frame, dtype=np.float64)
    return x - predict(x, coefficients)


def prediction_error_batch(
    frames: np.ndarray, coefficients: np.ndarray
) -> np.ndarray:
    """Residuals of a batch of frames in one vectorized pass."""
    x = np.atleast_2d(np.asarray(frames, dtype=np.float64))
    return x - predict_batch(x, coefficients)


def reconstruct(error: Sequence[float], coefficients: np.ndarray) -> np.ndarray:
    """Invert :func:`prediction_error`: rebuild the frame from residual.

    The predictor run backwards is the all-pole filter driven by the
    residual.
    """
    return ar_filter(error, coefficients)


@dataclass(frozen=True)
class Quantizer:
    """Uniform mid-tread quantiser over ``[-full_scale, full_scale]``."""

    bits: int = 8
    full_scale: float = 1.0

    def __post_init__(self) -> None:
        if self.bits < 2 or self.bits > 24:
            raise ValueError("bits must be in [2, 24]")
        if self.full_scale <= 0:
            raise ValueError("full_scale must be positive")

    @property
    def levels(self) -> int:
        return 1 << self.bits

    @property
    def step(self) -> float:
        return 2.0 * self.full_scale / (self.levels - 1)

    def quantize(self, values: Sequence[float]) -> np.ndarray:
        """Real values -> integer codes (clipped to range)."""
        x = np.clip(np.asarray(values, dtype=np.float64),
                    -self.full_scale, self.full_scale)
        return np.round((x + self.full_scale) / self.step).astype(np.int64)

    def dequantize(self, codes: Sequence[int]) -> np.ndarray:
        """Integer codes -> reconstruction values."""
        q = np.asarray(codes, dtype=np.float64)
        if np.any(q < 0) or np.any(q >= self.levels):
            raise ValueError("code out of range for this quantizer")
        return q * self.step - self.full_scale


def autocorr_cycles(frame_size: int, order: int, cycles_per_mac: int = 1) -> int:
    """Cycle model: ``(M+1)`` inner products of ~``N`` MACs each."""
    return (order + 1) * frame_size * cycles_per_mac + frame_size


def error_cycles(samples: int, order: int, cycles_per_mac: int = 1) -> int:
    """Cycle model of actor D on ``samples`` samples: ``M`` MACs each.

    This is the per-PE hardware datapath of the paper's §5.2: a
    pipelined MAC chain computing one predicted sample per ``M`` cycles
    plus the subtraction, with a small fixed pipeline fill.
    """
    return samples * order * cycles_per_mac + samples + 8
