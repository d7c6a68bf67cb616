import numpy as np
import pytest

from dupin.numerics import TensorGrid
from dupin.seeds import circle_seed, cylinder_seed, torus_seed
from dupin.verify import _cholesky_frame


def _jet_alpha(jet):
    """The ambient second fundamental form alpha (D, D, *grid, N) of a
    numeric jet from its stored fields: H_r = L S_r L^T, with g = L L^T the
    Cholesky factors of its metric, contracted with its normal basis nu_r.
    NaN where the jet's fields are."""
    coframe = _cholesky_frame(jet.metric)[1]                  # L^T
    H = coframe.swapaxes(-1, -2) @ jet.shape_sym @ coframe
    return np.einsum("r...ij,r...k->ij...k", H, jet.normal_basis)


@pytest.fixture(scope="session")
def jet_alpha():
    return _jet_alpha


@pytest.fixture(scope="session")
def torus_patch():
    return torus_seed(R=1.0, r=0.3, shape=(21, 21), u1_range=(0.1, 1.1), u2_range=(0.2, 1.2))


@pytest.fixture(scope="session")
def torus_fine():
    return torus_seed(R=1.0, r=0.3, shape=(41, 41), u1_range=(0.1, 0.5), u2_range=(0.2, 0.6))


@pytest.fixture(scope="session")
def cylinder_patch():
    return cylinder_seed(radius=1.0, shape=(21, 21), u_range=(0.1, 1.1), z_range=(0.0, 1.0))


@pytest.fixture(scope="session")
def circle4():
    return circle_seed(radius=1.0, n=21, u_range=(0.0, 0.4), ambient=4)


@pytest.fixture(scope="session")
def recursion_step1(circle4):
    from dupin.ribaucour import dupin_step

    ygrid = TensorGrid((21,), (0.01,), (0.8,))
    return dupin_step(circle4, n_indices=(1,), y_grid=ygrid, B0=(0.1,), phi0=1.0,
                      gamma0=(0.2,), beta0=(0.3, 0.0, 0.9), substeps=16)


@pytest.fixture(scope="session")
def recursion_step2(recursion_step1):
    from dupin.ribaucour import dupin_step

    return dupin_step(recursion_step1.sample, n_indices=(1,),
                      y_grid=TensorGrid((21,), (0.01,), (0.828,)),
                      B0=(-0.204, 0.141), phi0=1.0, gamma0=(0.010, -0.042),
                      beta0=(-0.618, -0.174), substeps=10)


@pytest.fixture(scope="session")
def recursion_k4():
    """The acceptance criterion-10 chain: circle in R^5 -> 4-Dupin on 11^4."""
    from dupin.ribaucour import dupin_step

    c = circle_seed(radius=1.0, n=11, u_range=(0.0, 0.4), ambient=5)
    s1 = dupin_step(c, n_indices=(1,), y_grid=TensorGrid((11,), (0.01,), (0.8,)),
                    B0=(0.1,), phi0=1.0, gamma0=(0.2,), beta0=(0.3, 0.0, 0.0, 0.9),
                    substeps=16)
    s2 = dupin_step(s1.sample, n_indices=(1,), y_grid=TensorGrid((11,), (0.01,), (0.828,)),
                    B0=(-0.204, 0.141), phi0=1.0, gamma0=(0.010, -0.042),
                    beta0=(-0.618, 0.0, -0.174), substeps=10)
    return dupin_step(s2.sample, n_indices=(1,), y_grid=TensorGrid((11,), (0.01,), (0.6,)),
                      B0=(0.15, -0.1, 0.12), phi0=1.0, gamma0=(0.02, 0.01, -0.03),
                      beta0=(0.4, -0.5), substeps=8)
