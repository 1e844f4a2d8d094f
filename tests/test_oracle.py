"""A continuum oracle for lambda(mu): Fourier-Galerkin on the periodic cell.

The tilted operator -dt + d dxx - (2 mu d + g) dx + (d mu^2 + g mu + b) acts
on the modes exp(2 pi i (k t/omega + n x/ell)), |k| <= K and |n| <= N, as a
dense matrix: each coefficient becomes the convolution with its Fourier
coefficients, taken from a 2-D FFT of its samples.  The coefficients here
are trigonometric polynomials of degree 1, so the FFT is exact and the only
error is the truncation, which the smooth eigenfunction makes negligible.
lambda is the largest real part of the matrix's eigenvalues.  The
finite-difference scheme is first order in dt and dx, so lambda_of_mu's
error must be small, of one sign and halve with each grid doubling.
"""

import numpy as np
import pytest

from speedlab import eigen, pde

from conftest import field

# species 1 of the benchmark's report-tx media, as (d, g, b)
REPORT_TX = ("1 + 0.25*cos(2*pi*x)", "0.2*sin(2*pi*(x - t))", "2 + 0.5*cos(2*pi*x)")
# the same species with the drift frozen in t: eigen's t-independent route,
# one step matrix raised to the nt-th power, which report-tx never takes
X_ONLY = ("1 + 0.25*cos(2*pi*x)", "0.2*sin(2*pi*x)", "2 + 0.5*cos(2*pi*x)")
SAMPLES = 64  # per period in t and in x, past twice the largest mode difference


def sample(expr):
    """expr at SAMPLES x SAMPLES points of the cell [0, 1)^2, indexed (t, x)."""
    t, x = np.meshgrid(np.arange(SAMPLES) / SAMPLES, np.arange(SAMPLES) / SAMPLES,
                       indexing="ij")
    values = eval(expr, {"sin": np.sin, "cos": np.cos, "pi": np.pi, "t": t, "x": x})
    return np.broadcast_to(values, t.shape)


def galerkin_lambda(coefficients, mu, modes_t=8, modes_x=12):
    """Largest real part of the spectrum of the tilted operator with
    coefficients (d, g, b) on |k| <= modes_t, |n| <= modes_x (omega = ell = 1)."""
    d, g, b = (sample(e) for e in coefficients)
    tilted = [np.fft.fft2(c) / SAMPLES**2 for c in (d, 2 * mu * d + g, d * mu**2 + g * mu + b)]
    k, n = (a.ravel() for a in np.meshgrid(np.arange(-modes_t, modes_t + 1),
                                           np.arange(-modes_x, modes_x + 1), indexing="ij"))
    dk = (k[:, None] - k[None, :]) % SAMPLES
    dn = (n[:, None] - n[None, :]) % SAMPLES
    diffusion, drift, potential = (c[dk, dn] for c in tilted)
    wave = 2j * np.pi * n[None, :]  # d/dx of the column mode
    matrix = diffusion * wave**2 - drift * wave + potential - np.diag(2j * np.pi * k)
    return float(np.max(np.linalg.eigvals(matrix).real))


def assert_first_order(coefficients, mu):
    """lambda_of_mu's error against the oracle is positive, below 1e-3 and
    halves, to an observed order in [0.9, 1.1], across one grid doubling."""
    exact = galerkin_lambda(coefficients, mu)
    errors = []
    for nt, nx in ((200, 64), (400, 128)):
        d, g, b = (field(e, nt=nt, nx=nx) for e in coefficients)
        errors.append(eigen.lambda_of_mu(d, g, b, mu).lam - exact)
    assert all(0.0 < e < 1e-3 for e in errors), errors
    order = np.log2(errors[0] / errors[1])
    assert 0.9 <= order <= 1.1, (errors, order)


@pytest.mark.parametrize("mu", [0.0, 1.0])
def test_galerkin_oracle_is_converged_in_its_modes(mu):
    assert abs(galerkin_lambda(REPORT_TX, mu) - galerkin_lambda(REPORT_TX, mu, 10, 16)) <= 1e-10


@pytest.mark.parametrize("mu", [0.0, 1.0])
def test_lambda_of_mu_converges_to_the_continuum_at_first_order(mu):
    assert_first_order(REPORT_TX, mu)


@pytest.mark.parametrize("mu", [0.0, 1.0])
def test_lambda_of_mu_converges_at_first_order_on_x_only_media(mu):
    d, g, b = (field(e) for e in X_ONLY)
    assert pde.CellPeriodMap(d, *eigen.tilted_coefficients(d, g, b, mu)).time_independent
    assert_first_order(X_ONLY, mu)
