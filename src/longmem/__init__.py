"""Long-memory scaling and cross-correlation analysis for rate panels.

Pipeline: load a dated panel, align it, turn each series into a profile
of mean-centered absolute changes, measure detrended fluctuations across
window sizes, and read scaling exponents, pairwise co-movement
coefficients, thresholded correlation networks and their community
structure off the results.  A synthetic-noise generator with a known
target exponent backs all of it as the test oracle.
"""

from . import dcca, errors, hurst, network, scaling, series, synthetic
from .dcca import *
from .errors import *
from .hurst import *
from .network import *
from .scaling import *
from .series import *
from .synthetic import *

__version__ = "0.1.0"

__all__ = ["__version__"]
__all__ += series.__all__
__all__ += scaling.__all__
__all__ += hurst.__all__
__all__ += dcca.__all__
__all__ += network.__all__
__all__ += synthetic.__all__
__all__ += errors.__all__
