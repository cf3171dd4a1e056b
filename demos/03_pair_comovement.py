"""
Scale-dependent co-movement of two series
=========================================

The detrended cross-correlation coefficient compares the residual
covariance of two profiles against the product of their own residual
fluctuations, inside windows of one size at a time.  It is a correlation
per scale: two series can track each other week to week yet decouple
quarter to quarter, and one number cannot show that.
"""

from longmem import FgnSpec, ScaleGrid, TimeSeries, dma, generate_fgn, rho_vs_scale

method = dma("centered")
n = 2 ** 13

# Mix a shared driver into two otherwise independent noise streams.
common = generate_fgn(FgnSpec(n=n, hurst=0.7, seed=10))
own_a = generate_fgn(FgnSpec(n=n, hurst=0.7, seed=11))
own_b = generate_fgn(FgnSpec(n=n, hurst=0.7, seed=12))

print("weight   rho at s=50   rho at s=250")
for w in (0.0, 0.3, 0.6, 0.9):
    a = TimeSeries(own_a.id, own_a.days, w * common.values + (1 - w) * own_a.values)
    b = TimeSeries(own_b.id, own_b.days, w * common.values + (1 - w) * own_b.values)
    r50, r250 = rho_vs_scale(a, b, ScaleGrid((50, 250)), method=method,
                             input_kind="increments").values
    print(f"{w:.1f}      {r50:+.3f}        {r250:+.3f}")

# The full curve across scales, for one mixed pair.
w = 0.6
a = TimeSeries(own_a.id, own_a.days, w * common.values + (1 - w) * own_a.values)
b = TimeSeries(own_b.id, own_b.days, w * common.values + (1 - w) * own_b.values)
curve = rho_vs_scale(a, b, grid=ScaleGrid((10, 25, 50, 100, 250, 500)),
                     method=method, input_kind="increments")
print()
print("s      rho")
for s, r in zip(curve.scales, curve.values):
    print(f"{s:<5d}  {r:+.3f}")

# Independent streams sit near zero at every scale; the mixed pair holds
# its level.  Sampling noise grows with the window size because fewer
# windows fit, so the largest scales wobble the most.
