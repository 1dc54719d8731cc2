"""Degree-of-ill-posedness diagnostics from spectral data.

Compact operators enter through their singular values and the counting
function; non-compact (and unbounded) ones through the multiplier function
of their spectral decomposition and its distribution function on a fixed
benchmark measure space.  Both pictures feed the same interval estimator
and mild/moderate/severe classification.
"""

from .core import (CurveMonotonicityError, DistributionFunction,
                   IllPosednessInterval, InsufficientDataError, MeasureSpace,
                   Multiplier, SigmaSequence, TailLaw, Thresholds,
                   TruncationWarning, UnsupportedMeasureError, ball_volume,
                   classify, geometric_grid, ratio)
from .counting import (counting_curve, counting_phi, interval_from_counting,
                       interval_from_sigma, step_multiplier_from_sigma)
from .distribution import (d_lambda, decreasing_rearrangement,
                           essinf_estimate, increasing_rearrangement,
                           lp_check, phi_curve, rearrangement_multiplier,
                           reweight, superlevel_measure,
                           log_superlevel_measure)
from .estimate import (interval_estimate, ratio_samples, regression_estimate)
from .gallery import AnalysisReport, OperatorModel, analyze, make
from .discretize import (KernelSampler, Section, fft_multiplier,
                         hilbert_matrix, hilbert_section,
                         pipeline_from_kernel, pipeline_from_matrix,
                         riemann_liouville_matrix, riemann_liouville_section,
                         singular_values)

__version__ = "0.1.0"
