"""Public calls refuse an argument of the wrong kind by naming the kind they take.

Each refusal sits where the argument first enters the library: ``vec``,
``matricize`` (behind every ``linalg`` call), the stats reader of a
sample set's rows (behind every estimator and ``fit_normal``), the seed
check of the samplers, the row check of the batch log-densities and the
params check of every density, sampler and equivalence check.
"""

import numpy as np
import pytest

from tensorstat import linalg
from tensorstat.distributions import (
    RngSeed,
    TensorNormalParams,
    elliptical_density,
    elliptical_log_density,
    elliptical_log_density_batch,
    elliptical_sample,
    fit_normal,
    kronecker_equivalence_check,
    normal_density,
    normal_log_density,
    normal_log_density_batch,
    normal_log_density_vec_oracle,
    normal_sample,
)
from tensorstat.linalg import KroneckerFactors
from tensorstat.stats import (
    correlation,
    covariance,
    covariance_of_vec,
    cross_correlation,
    cross_covariance,
    mean_tensor,
)
from tensorstat.tensor_core import DenseTensor, Shape, SquareTensor, matricize, vec

SHAPE = Shape((2,))
PARAMS = TensorNormalParams(DenseTensor.zeros(SHAPE), SquareTensor.identity(SHAPE))
SAMPLES = normal_sample(PARAMS, RngSeed(5), 4)
OBSERVATIONS = list(SAMPLES)
ROWS = SAMPLES.to_matrix().copy()
TENSOR = DenseTensor([1.0, 2.0], SHAPE)
SQUARE_ARRAY = np.eye(2)
# Params of the wrong kind: a (location, scale) pair, bare factors, a bare
# scale and nothing.
NOT_PARAMS = (
    (PARAMS.location, PARAMS.scale),
    KroneckerFactors((np.eye(2),)),
    SquareTensor.identity(SHAPE),
    None,
)

CASES = [
    *(
        (call.__name__, call, bad, "SampleSet")
        for call in (mean_tensor, covariance, covariance_of_vec, correlation, fit_normal)
        for bad in (OBSERVATIONS, ROWS)
    ),
    *(
        (call.__name__, call, args, "SampleSet")
        for call in (cross_covariance, cross_correlation)
        for args in ((SAMPLES, OBSERVATIONS), (ROWS, SAMPLES))
    ),
    ("normal_sample", lambda seed: normal_sample(PARAMS, seed, 3), 7, "RngSeed"),
    ("elliptical_sample", lambda seed: elliptical_sample(PARAMS, seed, 3), 7, "RngSeed"),
    *(
        (call.__name__, call, bad, "SquareTensor")
        for call in (
            linalg.det, linalg.slogdet, linalg.inverse, linalg.cholesky,
            linalg.is_symmetric, linalg.is_positive_definite, matricize,
        )
        for bad in (TENSOR, SQUARE_ARRAY)
    ),
    ("vec", vec, [1.0, 2.0], "DenseTensor or SquareTensor"),
    ("vec", vec, np.array([1.0, 2.0]), "DenseTensor or SquareTensor"),
    *(
        (call.__name__, lambda points, call=call: call(PARAMS, points), bad, r"rows are vec")
        for call in (normal_log_density_batch, elliptical_log_density_batch)
        for bad in (TENSOR, SquareTensor.identity(SHAPE))
    ),
    # A tuple case is the call's argument list, so each params is wrapped.
    *(
        (call.__name__, lambda p, call=call: call(p, TENSOR), (bad,), "EllipticalParams")
        for call in (
            normal_log_density, elliptical_log_density, normal_log_density_vec_oracle,
            normal_density, elliptical_density,
        )
        for bad in NOT_PARAMS
    ),
    *(
        (call.__name__, lambda p, call=call: call(p, ROWS), (bad,), "EllipticalParams")
        for call in (normal_log_density_batch, elliptical_log_density_batch)
        for bad in NOT_PARAMS
    ),
    *(
        (call.__name__, lambda p, call=call: call(p, RngSeed(5), 3), (bad,), "EllipticalParams")
        for call in (normal_sample, elliptical_sample)
        for bad in NOT_PARAMS
    ),
    *(
        ("kronecker_equivalence_check", kronecker_equivalence_check, args, kind)
        for bad in NOT_PARAMS
        for args, kind in (((bad, PARAMS), "dense must be an EllipticalParams"),
                           ((PARAMS, bad), "structured must be an EllipticalParams"))
    ),
]


@pytest.mark.parametrize(
    "call, bad, kind",
    [case[1:] for case in CASES],
    ids=[f"{case[0]}-{type(case[2]).__name__}" for case in CASES],
)
def test_wrong_kind_is_refused_by_name(call, bad, kind):
    args = bad if isinstance(bad, tuple) else (bad,)
    with pytest.raises(TypeError, match=kind):
        call(*args)
