"""Long-memory scaling and cross-correlation analysis for rate panels.

Pipeline: load a dated panel, align it, turn each series into a profile
of mean-centered absolute changes, measure detrended fluctuations across
window sizes, and read scaling exponents, pairwise co-movement
coefficients, thresholded correlation networks and their community
structure off the results.  A synthetic-noise generator with a known
target exponent backs all of it as the test oracle.
"""

from .dcca import (
    DccaMatrix,
    RhoCurve,
    pairwise_matrix,
    rho_from_profiles,
    rho_vs_scale,
)
from .errors import (
    AlignmentError,
    DegenerateSeriesError,
    FitError,
    LongmemError,
    ScaleError,
    SchemaError,
)
from .hurst import (
    CrossoverReport,
    HurstDistribution,
    HurstEstimate,
    classify,
    detect_crossover,
    fit_hurst,
    hurst_distribution,
)
from .network import (
    CommunityPartition,
    CorrelationNetwork,
    average_weighted_degree,
    build_network,
    detect_communities,
    split_periods,
    to_dot,
    to_graphml,
)
from .scaling import (
    DetrendMethod,
    FluctuationFunction,
    ScaleGrid,
    default_grid,
    detrended_segments,
    dfa,
    dma,
    fluctuation,
)
from .series import (
    Profile,
    RatePanel,
    TimeSeries,
    align,
    load_panel,
    panel_to_csv,
    profile_from_values,
    series_profile,
)
from .synthetic import (
    BlockSpec,
    FgnSpec,
    generate_blocks,
    generate_fgn,
    trading_dates,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # series
    "TimeSeries", "RatePanel", "Profile",
    "load_panel", "panel_to_csv", "align",
    "profile_from_values", "series_profile",
    # scaling
    "DetrendMethod", "ScaleGrid", "FluctuationFunction",
    "dfa", "dma", "default_grid", "detrended_segments", "fluctuation",
    # hurst
    "HurstEstimate", "CrossoverReport", "HurstDistribution",
    "classify", "fit_hurst", "detect_crossover", "hurst_distribution",
    # dcca
    "DccaMatrix", "RhoCurve",
    "rho_from_profiles", "pairwise_matrix", "rho_vs_scale",
    # network
    "CorrelationNetwork", "CommunityPartition",
    "build_network", "detect_communities", "average_weighted_degree",
    "split_periods", "to_graphml", "to_dot",
    # synthetic
    "FgnSpec", "BlockSpec", "trading_dates",
    "generate_fgn", "generate_blocks",
    # errors
    "LongmemError", "SchemaError", "AlignmentError", "ScaleError",
    "FitError", "DegenerateSeriesError",
]
