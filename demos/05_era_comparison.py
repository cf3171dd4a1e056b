"""
Comparing eras of one panel by network density
==============================================

Stitch two regimes into one dated panel: an early stretch where members
share 60% of their variance with their block driver, then a later
stretch where they share 90%.  Split the panel by calendar windows and
summarize each era's network with the average weighted degree.  The
tighter era should dominate at every scale.
"""

from longmem import (
    BlockSpec,
    RatePanel,
    TimeSeries,
    average_weighted_degree,
    build_network,
    dma,
    generate_blocks,
    pairwise_matrix,
    split_periods,
    trading_dates,
)
import numpy as np

half = 2048
base = dict(n_blocks=3, block_size=5, hurst=0.8, n=half)
loose = generate_blocks(BlockSpec(common_weight=0.6, seed=0, **base))
tight = generate_blocks(BlockSpec(common_weight=0.9, seed=1, **base))

# one continuous date index across both regimes
dates = trading_dates(2 * half)
members = []
for a, b in zip(loose.series, tight.series):
    members.append(TimeSeries(a.id, dates, np.concatenate([a.values, b.values])))
panel = RatePanel(tuple(members))

windows = [(dates[0], dates[half - 1]), (dates[half], dates[-1])]
eras = split_periods(panel, windows)
labels = ("loose era ", "tight era ")

method = dma("centered")
print("era         s     edges  avg weighted degree")
for label, era in zip(labels, eras):
    for s in (50, 150, 250):
        m = pairwise_matrix(era, s, method, input_kind="increments")
        net = build_network(m, threshold=0.5)
        print(f"{label}  {s:<5d} {net.n_edges:<6d} "
              f"{average_weighted_degree(net):.2f}")

# The degree gap is the story: the same names, the same thresholds, but
# the later era carries more and heavier links because more of each
# series is the shared driver.  A full-sample network would blur the
# two regimes together.
