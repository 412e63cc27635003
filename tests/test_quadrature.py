import numpy as np
import pytest

from sobex import quadrature as Q


def test_gauss_legendre_reuses_a_read_only_reference_rule():
    x_ref, w_ref = np.polynomial.legendre.leggauss(12)
    x, w = Q._reference_rule(12)
    assert np.array_equal(x, x_ref) and np.array_equal(w, w_ref)
    with pytest.raises(ValueError):
        x[0] = 0.0
    with pytest.raises(ValueError):
        w[0] = 0.0
    first = Q.gauss_legendre(12, -0.3, 1.7)
    second = Q.gauss_legendre(12, -0.3, 1.7)
    assert Q._reference_rule(12)[0] is x
    for a, b in zip(first, second):
        assert a.tobytes() == b.tobytes()
    # the scaled rule is the caller's own array
    first[0][0] = 5.0
    assert Q.gauss_legendre(12, -0.3, 1.7)[0].tobytes() == second[0].tobytes()
