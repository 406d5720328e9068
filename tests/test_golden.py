"""Golden reports: every non-timing field of `evaluate` and `rd_sweep`.

The literals below must not be edited to follow a code change: a refactor of
the schemes or of the harness has to reproduce them bit for bit.  A
deliberate change to the numbers a scheme produces regenerates them and says
in CHANGES.md why, and each moved field's old and new value.

`transform_hex_inexact` runs the hexagonal path at scale 0.3, where the other
hexagon report, at scale 0.5, cannot see a last-bit change in how the lattice
points are formed.  Its second axis fails KS at this seed, as `sweep_awgn`
does: a golden pins the numbers, not the verdict.
"""

import dataclasses
import json

import pytest

from dpquant.harness import evaluate, rd_sweep
from dpquant.lattice import hexagonal, scaled_integer
from dpquant.prob import gaussian, laplace
from dpquant.schemes import AwgnOracle, ResampleDpq, SimpleDpq, TransformDpq

N = 10_000

GOLDEN = {'awgn_mean': {'ks_per_axis': [[0.00640862222130989, True]],
                        'moment_errors': {'mean': -0.011845973253239106,
                                          'skewness': 0.006364159590360911,
                                          'variance': -0.018687907054435682},
                        'mse_per_dim': 0.42673850329292917,
                        'mse_se': 0.005477044945532966,
                        'n': 10000,
                        'rate_nats_per_dim': 0.8047189562170501,
                        'rate_se': 0.0,
                        'scheme': {'kind': 'AwgnOracle',
                                   'noise_var': 0.5,
                                   'seed': 103,
                                   'source': {'dim': 1,
                                              'family': 'gaussian',
                                              'params': [0.7, 2.0]}},
                        'seed': 103},
          'resample_laplace': {'ks_per_axis': [[0.006030584290878216, True]],
                               'moment_errors': {'mean': -0.013392789463406492,
                                                 'skewness': -0.1729213141477713,
                                                 'variance': -0.013007195287982887},
                               'mse_per_dim': 0.014759618104299576,
                               'mse_se': 0.000161074437179867,
                               'n': 10000,
                               'rate_nats_per_dim': 2.9010127933747922,
                               'rate_se': 0.008776530905593759,
                               'scheme': {'kind': 'ResampleDpq',
                                          'seed': 102,
                                          'source': {'dim': 1,
                                                     'family': 'laplace',
                                                     'params': [0.0, 1.0]},
                                          'step': 0.3},
                               'seed': 102},
          'simple': {'ks_per_axis': [[0.007798989998803796, True]],
                     'moment_errors': {'mean': 0.0019386245168730252,
                                       'skewness': 0.008428634215444437,
                                       'variance': 0.017340902816239012},
                     'mse_per_dim': 2.0139498387867283,
                     'mse_se': 0.02419841547442492,
                     'n': 10000,
                     'rate_nats_per_dim': 0.0,
                     'rate_se': 0.0,
                     'scheme': {'kind': 'SimpleDpq',
                                'seed': 101,
                                'source': {'dim': 1,
                                           'family': 'gaussian',
                                           'params': [0.0, 1.0]}},
                     'seed': 101},
          'sweep_awgn': {'ks_per_axis': [[0.013895711315625725, False]],
                         'moment_errors': {'mean': -0.013458650268694448,
                                           'skewness': -0.001438647762227247,
                                           'variance': -0.028733910258637474},
                         'mse_per_dim': 0.21084969724049893,
                         'mse_se': 0.0028353896303671047,
                         'n': 10000,
                         'param': 0.25,
                         'rate_nats_per_dim': 0.8047189562170501,
                         'rate_se': 0.0,
                         'scheme': {'kind': 'AwgnOracle',
                                    'noise_var': 0.25,
                                    'seed': 106,
                                    'source': {'dim': 1,
                                               'family': 'gaussian',
                                               'params': [0.0, 1.0]}},
                         'seed': 106},
          'sweep_resample': {'ks_per_axis': [[0.012561697850695497, True]],
                             'moment_errors': {'mean': -0.00922272349747002,
                                               'skewness': 0.014518298905952041,
                                               'variance': -0.005709244292175897},
                             'mse_per_dim': 0.041515005633879436,
                             'mse_se': 0.00047182313966027137,
                             'n': 10000,
                             'param': 0.5,
                             'rate_nats_per_dim': 2.1182419535383064,
                             'rate_se': 0.005290627484466607,
                             'scheme': {'kind': 'ResampleDpq',
                                        'seed': 106,
                                        'source': {'dim': 1,
                                                   'family': 'gaussian',
                                                   'params': [0.0, 1.0]},
                                        'step': 0.5},
                             'seed': 106},
          'sweep_simple': {'ks_per_axis': [[0.007842458704846011, True]],
                           'moment_errors': {'mean': -0.008191857572820788,
                                             'skewness': -0.03810767418446626,
                                             'variance': -0.00647489234247256},
                           'mse_per_dim': 1.9710494308266866,
                           'mse_se': 0.031086274368804248,
                           'n': 10000,
                           'param': 1.0,
                           'rate_nats_per_dim': 0.0,
                           'rate_se': 0.0,
                           'scheme': {'kind': 'SimpleDpq',
                                      'seed': 106,
                                      'source': {'dim': 1,
                                                 'family': 'gaussian',
                                                 'params': [0.0, 1.0]}},
                           'seed': 106},
          'sweep_transform': {'ks_per_axis': [[0.010078770237905266, True]],
                              'moment_errors': {'mean': -0.0060888342234764565,
                                                'skewness': 0.017810188383677716,
                                                'variance': -0.010243645709818838},
                              'mse_per_dim': 0.07857128422489126,
                              'mse_se': 0.0006338577502148383,
                              'n': 10000,
                              'param': 1.0,
                              'rate_nats_per_dim': 1.4579920383768616,
                              'rate_se': 0.002453353844401988,
                              'scheme': {'kind': 'TransformDpq',
                                         'lattice': {'dim': 1,
                                                     'kind': 'scaled_integer',
                                                     'step': 1.0},
                                         'seed': 106,
                                         'source': {'dim': 1,
                                                    'family': 'gaussian',
                                                    'params': [0.0, 1.0]}},
                              'seed': 106},
          'transform_cube': {'ks_per_axis': [[0.007311939493319181, True]],
                             'moment_errors': {'mean': 0.0008288884489709575,
                                               'skewness': 0.0241959282973957,
                                               'variance': -0.007493557417876051},
                             'mse_per_dim': 0.02061418180537577,
                             'mse_se': 0.0001890858087481966,
                             'n': 10000,
                             'rate_nats_per_dim': 2.121486423247464,
                             'rate_se': 0.001423544894994626,
                             'scheme': {'kind': 'TransformDpq',
                                        'lattice': {'dim': 1,
                                                    'kind': 'scaled_integer',
                                                    'step': 0.5},
                                        'seed': 104,
                                        'source': {'dim': 1,
                                                   'family': 'gaussian',
                                                   'params': [0.0, 1.0]}},
                             'seed': 104},
          'transform_hex': {'ks_per_axis': [[0.009138233293598919, True],
                                            [0.009522289885848911, True]],
                            'moment_errors': {'mean': -0.00019890051328797344,
                                              'skewness': -0.0015132001379884177,
                                              'variance': -0.008588566103226891},
                            'mse_per_dim': 0.017117934122470355,
                            'mse_se': 0.00010866138176241202,
                            'n': 10000,
                            'rate_nats_per_dim': 2.1851344478699666,
                            'rate_se': 0.0010731105097606629,
                            'scheme': {'kind': 'TransformDpq',
                                       'lattice': {'dim': 2,
                                                   'kind': 'hexagonal',
                                                   'step': 0.5},
                                       'seed': 105,
                                       'source': {'dim': 2,
                                                  'family': 'gaussian',
                                                  'params': [0.0, 1.0]}},
                            'seed': 105},
          'transform_hex_inexact': {'ks_per_axis': [[0.008170137144904333, True],
                                                    [0.013644622093196224, False]],
                                    'moment_errors': {'mean': -0.006045875027015413,
                                                      'skewness': 0.022068216876808173,
                                                      'variance': 0.007795605152731033},
                                    'mse_per_dim': 0.006197456142722288,
                                    'mse_se': 3.5282117318637314e-05,
                                    'n': 10000,
                                    'rate_nats_per_dim': 2.683209327509169,
                                    'rate_se': 0.0012322749900318265,
                                    'scheme': {'kind': 'TransformDpq',
                                               'lattice': {'dim': 2,
                                                           'kind': 'hexagonal',
                                                           'step': 0.3},
                                               'seed': 107,
                                               'source': {'dim': 2,
                                                          'family': 'gaussian',
                                                          'params': [0.0, 1.0]}},
                                    'seed': 107}}


def _fields(report) -> dict:
    d = json.loads(json.dumps(dataclasses.asdict(report)))
    d.pop("wall_time")
    return d


EVALUATED = {
    "simple": (SimpleDpq(gaussian(0, 1), 11), 101),
    "resample_laplace": (ResampleDpq(laplace(0, 1), 12, 0.3), 102),
    "awgn_mean": (AwgnOracle(gaussian(0.7, 2.0), 13, 0.5), 103),
    "transform_cube": (TransformDpq(gaussian(0, 1), 14, scaled_integer(0.5)), 104),
    "transform_hex": (TransformDpq(gaussian(0, 1, dim=2), 15, hexagonal(0.5)),
                      105),
    # At scale 0.3 the products in the lattice's matmul are inexact, so a
    # nearest-point rule that forms its points another way moves this report.
    "transform_hex_inexact": (
        TransformDpq(gaussian(0, 1, dim=2), 16, hexagonal(0.3)), 107),
}

SWEPT = {"transform": 1.0, "resample": 0.5, "awgn": 0.25, "simple": 1.0}


@pytest.mark.parametrize("case", sorted(EVALUATED))
def test_evaluate_golden(case):
    scheme, seed = EVALUATED[case]
    assert _fields(evaluate(scheme, N, seed)) == GOLDEN[case]


@pytest.mark.parametrize("family", sorted(SWEPT))
def test_rd_sweep_golden(family):
    [(param, report)] = rd_sweep(family, [SWEPT[family]], gaussian(0, 1), N, 106)
    assert {"param": param, **_fields(report)} == GOLDEN[f"sweep_{family}"]
