"""Array input at every public entry point goes through ``config.check_array``:
integer and real entries (complex ones too where the array is complex) are
accepted, while booleans, strings, objects, complex-for-real and non-finite
entries raise ``ValueError`` naming the input."""

import numpy as np
import pytest

from conftest import NOT_NUMERIC_ARRAY, NOT_NUMERIC_COMPLEX_ARRAY, two_qubit_z_network
from qsnet import (
    QFIM,
    LinearFunctional,
    SensorSpec,
    encode,
    orthogonal_completion,
    pnorm,
    qcrb,
    rotate_qfim,
)
from qsnet.hilbert import SIGMA_X, SIGMA_Z, DensityOperator, PureState, embed_local, kron_all

_RESOURCE = np.diag([0.0, 1.0])

# name: (entry point taking the array, a valid array, the name its messages give)
REAL_INPUTS = {
    "QFIM": (QFIM, np.eye(2), "information matrix"),
    "qcrb_weights": (lambda x: qcrb(QFIM(np.eye(2)), x), [1.0, 1.0], "weights"),
    "qcrb_weight_matrix": (lambda x: qcrb(QFIM(np.eye(2)), x), np.eye(2), "weights"),
    "rotate_qfim": (lambda x: rotate_qfim(QFIM(np.eye(2)), x), np.eye(2), "rotation m"),
    "orthogonal_completion": (orthogonal_completion, [1.0, 0.0], "vector v"),
    "LinearFunctional": (lambda x: LinearFunctional(x, 1.0, 2), [1.0, 0.0], "coefficient vector"),
    "pnorm": (lambda x: pnorm(x, 1.0), [3.0, 4.0], "vector"),
    "encode_phi": (
        lambda x: encode(two_qubit_z_network(), PureState(np.eye(4)[0], (2, 2)), x),
        [0.5, 0.0],
        "parameter point",
    ),
}
COMPLEX_INPUTS = {
    "SensorSpec_generator": (lambda x: SensorSpec(2, (x,), _RESOURCE), SIGMA_Z / 2, "generator 0"),
    "SensorSpec_resource": (lambda x: SensorSpec(2, (SIGMA_Z,), x), _RESOURCE, "resource operator"),
    "PureState": (lambda x: PureState(x, (2,)), [1.0, 0.0], "amplitudes"),
    "DensityOperator": (lambda x: DensityOperator(x, (2,)), np.diag([1.0, 0.0]), "density operator"),
    "kron_all": (lambda x: kron_all([x, SIGMA_Z]), SIGMA_X, "factor 0"),
    "embed_local": (lambda x: embed_local(x, 0, (2, 2)), SIGMA_X, "local operator"),
}


@pytest.mark.parametrize("spoil", NOT_NUMERIC_ARRAY)
@pytest.mark.parametrize("entry", REAL_INPUTS)
def test_real_input_refused(entry, spoil):
    build, valid, name = REAL_INPUTS[entry]
    build(valid)
    with pytest.raises(ValueError, match=name):
        build(spoil(valid))


@pytest.mark.parametrize("spoil", NOT_NUMERIC_COMPLEX_ARRAY)
@pytest.mark.parametrize("entry", COMPLEX_INPUTS)
def test_complex_input_refused(entry, spoil):
    build, valid, name = COMPLEX_INPUTS[entry]
    build(valid)
    with pytest.raises(ValueError, match=name):
        build(spoil(valid))


def test_integer_arrays_equal_float_input():
    fim = QFIM(np.diag([2.0, 4.0]))
    assert qcrb(fim, [1, 1]) == qcrb(fim, [1.0, 1.0])
    ints = PureState([1, 0], (2,)).amplitudes
    assert ints.dtype == complex
    assert np.array_equal(ints, PureState([1.0, 0.0], (2,)).amplitudes)
