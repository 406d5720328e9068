"""Distribution preserving quantization: bounds, schemes, measurement harness."""

from .bounds import (Coupling, RdPoint, awgn_oracle_point, check_pmf,
                     discrete_dp_rdf_curve, dp_rdf_gaussian, rdf_gaussian,
                     slb_mse)
from .ecdq import ecdq_decode, ecdq_encode, ecdq_rate_analytic, ecdq_rate_empirical
from .harness import EvalReport, compare_to_bound, evaluate, rd_sweep
from .lattice import Lattice, hexagonal, scaled_integer
from .prob import (EmpiricalSample, SourceModel, gaussian, ks_statistic,
                   laplace, plugin_entropy, uniform)
from .schemes import (AwgnOracle, ResampleDpq, SimpleDpq, TransformDpq,
                      awgn_oracle_apply, resample_dpq, simple_dpq,
                      transform_dpq_decode, transform_dpq_encode)
from .transform import (BivariateGaussian, dpq_transform,
                        gaussian_smoothed_transform, smoothed_cdf)

__version__ = "0.1.0"
