import numpy as np
import pytest

from profix.errors import OracleEvalFailure
from profix.numdiff import fd_bilinear, fd_path, fd_theta


class TestFdTheta:
    def test_quadratic(self):
        d = fd_theta(lambda t: t[0] ** 2, np.array([3.0]), step=1e-5)
        assert d[0] == pytest.approx(6.0, abs=1e-9)

    def test_constant(self):
        d = fd_theta(lambda t: 7.0, np.array([1.0, 2.0]))
        assert np.allclose(d, 0.0)

    def test_cubic_error_bound(self):
        # central difference of a cubic errs by exactly h^2 at theta = 1
        h = 1e-3
        d = fd_theta(lambda t: t[0] ** 3, np.array([1.0]), step=h)
        assert abs(d[0] - 3.0) <= 2 * h * h

    def test_vector_output_shape(self):
        d = fd_theta(lambda t: np.array([t[0], t[0] * t[1]]),
                     np.array([1.0, 2.0]))
        assert d.shape == (2, 2)
        assert np.allclose(d, [[1.0, 2.0], [0.0, 1.0]], atol=1e-8)

    def test_probe_failure(self):
        def bad(t):
            raise ValueError("boom")

        with pytest.raises(OracleEvalFailure):
            fd_theta(bad, np.array([0.0]))


class TestFdPath:
    def test_linear_path_exact(self):
        v = np.array([1.0, -2.0, 3.0])
        d = fd_path(lambda t: t * v)
        assert np.array_equal(d, v)

    def test_constant_path(self):
        d = fd_path(lambda t: np.ones(3))
        assert np.allclose(d, 0.0)

    def test_richardson_improves_order(self):
        h = 1e-2

        def err(step):
            return abs(fd_path(lambda t: np.exp(t), step=step) - 1.0)

        assert err(h) / err(h / 2) >= 3.0


class TestFdBilinear:
    def test_quadratic_form(self, rng):
        T = rng.normal(size=(4, 4, 4))
        T = T + T.transpose(0, 2, 1)
        base = rng.normal(size=4)

        def f(s, t):
            v = base + s * h1 + t * h2
            return np.einsum("ijk,j,k->i", T, v, v)

        h1, h2 = rng.normal(size=(2, 4))
        approx = fd_bilinear(f, h1, h2, step=1e-4)
        exact = 2.0 * np.einsum("ijk,j,k->i", T, h1, h2)
        assert np.abs(approx - exact).max() < 1e-6 * max(np.abs(exact).max(), 1)

    def test_richardson_improves_order(self):
        # the mixed derivative of exp(s + 2t) at 0 is 2; the plain cross
        # quotient's error falls as step^2, the combined one's as step^4
        def err(step):
            return abs(fd_bilinear(lambda s, t: np.exp(s + 2.0 * t), None, None,
                                   step=step) - 2.0)

        assert err(0.2) / err(0.1) >= 12.0
