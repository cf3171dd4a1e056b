"""Seeded benchmark inputs, built with numpy alone.

The generator is the benchmark's own, so a change to ``longmem.synthetic``
cannot shift the inputs of the workloads that use it.  The same seed gives
the same arrays and byte-identical CSV text.
"""

from __future__ import annotations

import numpy as np

START_DAY = "2000-01-03"


def weekdays(n: int, start: str = START_DAY) -> np.ndarray:
    """n consecutive weekdays from ``start`` as datetime64[D]."""
    return np.busday_offset(np.datetime64(start, "D"), np.arange(n),
                            roll="forward")


def fgn(count: int, n: int, hurst: float,
        rng: np.random.Generator) -> np.ndarray:
    """(count, n) independent unit-variance fractional Gaussian noise rows.

    Circulant embedding (Davies & Harte, Biometrika 74, 95, 1987): the
    covariance row is embedded in a circulant of size 2m >= 2n whose
    eigenvalues are nonnegative for fGn, so the real part of one complex
    FFT per row is an exact sample.
    """
    m = 1 << max(n - 1, 1).bit_length()
    k = np.arange(m + 1, dtype=float)
    two_h = 2.0 * hurst
    gamma = 0.5 * ((k + 1) ** two_h - 2.0 * k ** two_h + np.abs(k - 1) ** two_h)
    eig = np.fft.fft(np.concatenate([gamma, gamma[1:m][::-1]])).real
    if eig.min() < -1e-10 * eig.max():
        raise ValueError(f"circulant embedding indefinite for H={hurst}, n={n}")
    scale = np.sqrt(np.maximum(eig, 0.0) / (2 * m))
    z = rng.standard_normal((count, 2 * m)) + 1j * rng.standard_normal((count, 2 * m))
    return np.fft.fft(scale * z, axis=1)[:, :n].real


def blocks(n_blocks: int, block_size: int, weight: float, hurst: float,
           n: int, rng: np.random.Generator) -> np.ndarray:
    """(n_blocks * block_size, n) rows: weight * block factor + rest * own noise.

    Both parts have the same exponent, so every row is fGn at ``hurst``.
    """
    common = np.repeat(fgn(n_blocks, n, hurst, rng), block_size, axis=0)
    own = fgn(n_blocks * block_size, n, hurst, rng)
    return weight * common + (1.0 - weight) * own


def block_ids(n_blocks: int, block_size: int) -> list[str]:
    return [f"b{b + 1:02d}m{j + 1:02d}"
            for b in range(n_blocks) for j in range(block_size)]


def levels_csv(seed: int, n_blocks: int, block_size: int, n: int, *,
               weight: float, hurst: float, blank_share: float,
               complete_head: int) -> str:
    """CSV text of a gappy rate-level panel in the schema longmem reads.

    Levels are cumulated block-mixed fGn on a per-series base level, printed
    with four decimals like quoted rates.  ``blank_share`` of the cells are
    left empty at random, none in the first ``complete_head`` rows, because a
    leading gap cannot be forward-filled.
    """
    rng = np.random.default_rng(seed)
    steps = blocks(n_blocks, block_size, weight, hurst, n, rng)
    base = rng.uniform(0.5, 8.0, size=(steps.shape[0], 1))
    levels = base + 0.02 * np.cumsum(steps, axis=1)
    blank = rng.random(levels.shape) < blank_share
    blank[:, :complete_head] = False

    cells = [["" if b else "%.4f" % v for v, b in zip(vals, gaps)]
             for vals, gaps in zip(levels.T.tolist(), blank.T.tolist())]
    dates = weekdays(n).astype(str).tolist()
    lines = ["date," + ",".join(block_ids(n_blocks, block_size))]
    lines += [d + "," + ",".join(row) for d, row in zip(dates, cells)]
    return "\n".join(lines) + "\n"
