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

from speedlab import eigen

from conftest import field

# species 1 of the benchmark's report-tx media, sampled by galerkin_lambda too
D1 = "1 + 0.25*cos(2*pi*x)"
G1 = "0.2*sin(2*pi*(x - t))"
B1 = "2 + 0.5*cos(2*pi*x)"
SAMPLES = 64  # per period in t and in x, past twice the largest mode difference


def galerkin_lambda(mu, modes_t=8, modes_x=12):
    """Largest real part of the spectrum of the tilted operator on |k| <= modes_t,
    |n| <= modes_x (omega = ell = 1)."""
    t, x = np.meshgrid(np.arange(SAMPLES) / SAMPLES, np.arange(SAMPLES) / SAMPLES,
                       indexing="ij")
    d = 1.0 + 0.25 * np.cos(2 * np.pi * x)
    g = 0.2 * np.sin(2 * np.pi * (x - t))
    b = 2.0 + 0.5 * np.cos(2 * np.pi * x)
    coefficients = [np.fft.fft2(c) / SAMPLES**2
                    for c in (d, 2 * mu * d + g, d * mu**2 + g * mu + b)]
    k, n = (a.ravel() for a in np.meshgrid(np.arange(-modes_t, modes_t + 1),
                                           np.arange(-modes_x, modes_x + 1), indexing="ij"))
    dk = (k[:, None] - k[None, :]) % SAMPLES
    dn = (n[:, None] - n[None, :]) % SAMPLES
    diffusion, drift, potential = (c[dk, dn] for c in coefficients)
    wave = 2j * np.pi * n[None, :]  # d/dx of the column mode
    matrix = diffusion * wave**2 - drift * wave + potential - np.diag(2j * np.pi * k)
    return float(np.max(np.linalg.eigvals(matrix).real))


@pytest.mark.parametrize("mu", [0.0, 1.0])
def test_galerkin_oracle_is_converged_in_its_modes(mu):
    assert abs(galerkin_lambda(mu) - galerkin_lambda(mu, 10, 16)) <= 1e-10


@pytest.mark.parametrize("mu", [0.0, 1.0])
def test_lambda_of_mu_converges_to_the_continuum_at_first_order(mu):
    exact = galerkin_lambda(mu)
    errors = []
    for nt, nx in ((200, 64), (400, 128)):
        d, g, b = (field(e, nt=nt, nx=nx) for e in (D1, G1, B1))
        errors.append(eigen.lambda_of_mu(d, g, b, mu).lam - exact)
    assert all(0.0 < e < 1e-3 for e in errors), errors
    order = np.log2(errors[0] / errors[1])
    assert 0.9 <= order <= 1.1, (errors, order)
