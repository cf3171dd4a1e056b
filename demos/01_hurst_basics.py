"""
Estimating a scaling exponent from noisy increments
===================================================

Generate synthetic noise with a known exponent, build the profile of
mean-centered absolute changes, measure the fluctuation function over a
log-spaced window grid, and read the exponent off the log-log slope.
"""

from longmem import (
    FgnSpec,
    default_grid,
    dfa,
    dma,
    fit_hurst,
    fluctuation,
    generate_fgn,
    series_profile,
)

# The generator produces exact fractional Gaussian noise, so the target
# exponent is known in advance and the estimate can be judged directly.
n = 2 ** 13
grid = default_grid(n)

print("target   dfa(1)   dma(centered)")
for h_true in (0.3, 0.5, 0.7, 0.9):
    row = [f"{h_true:.1f}   "]
    ts = generate_fgn(FgnSpec(n=n, hurst=h_true, seed=1))
    # the synthetic panel holds increments already, not levels
    prof = series_profile(ts, input_kind="increments")
    for method in (dfa(1), dma("centered")):
        est = fit_hurst(fluctuation(prof, grid, method))
        row.append(f"{est.hurst:.3f} ({est.classify()})")
    print("   ".join(row))

# A single seed wobbles around the target by a few hundredths; averaging
# over seeds tightens it (the test suite does exactly that).  Empirical
# rate panels tend to come out strongly persistent, with per-series
# exponents mostly in the 0.6 to 0.95 range and a peak around 0.8, so a
# reading near 0.5 on real data usually means the alignment or the input
# kind is wrong, not that the market forgot its past.
ts = generate_fgn(FgnSpec(n=n, hurst=0.8, seed=7))
prof = series_profile(ts, input_kind="increments")
f = fluctuation(prof, grid, dma("centered"))
est = fit_hurst(f)
print()
print(f"H=0.8 draw: estimate {est.hurst:.3f}, stderr {est.stderr:.4f}, "
      f"r^2 {est.r_squared:.5f}, fitted over s in "
      f"[{est.fit_range[0]}, {est.fit_range[1]}]")

# the raw curve, for eyeballing the power law
print()
print("s      F(s)")
for s, v in zip(f.scales[::4], f.values[::4]):
    print(f"{s:<5d}  {v:.5f}")
