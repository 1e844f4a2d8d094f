"""A travelling-wave oracle for the minimal wave speed c* on constant media.

On media constant in t and x a travelling wave u(x - ct) of the competition
system solves four first-order ODEs in xi = x - ct, with the unknowns U1,
U1', V = u2* - u2 and V' and the speed c as a free parameter.  It joins
(u1*, 0) on the left, where species 1 has taken over, to the invaded state
(0, u2*) on the right.  A pulled front's minimal wave decays at U1's slow
linear rate and has speed c0; a pushed front's minimal wave is the one that
decays at the fast rate, which exists only at an isolated c* > c0 (Hosono
1998; van Saarloos 2003, section 2).  So the right end is put on the
strong-stable subspace of (0, 0): the state is orthogonal to the left
eigenvectors of the linearization for U1's slow rate and for V's growing
rate (Beyn 1990, IMA J. Numer. Anal. 10:379-405).

scipy's solve_bvp also returns status-0 "waves" with c < c0, where U1's
tail rates are complex and no positive wave decays, and waves with U1 < 0;
the oracle accepts a result only with status 0, c > c0 and U1 >= 0.  No
scheme of the package enters: c* here is independent of the recursion
brackets and of the measured front.
"""

import numpy as np
import pytest
from scipy.integrate import solve_bvp

# competition constants with a fast-diffusing, strongly suppressed resident:
# species 1 invades pushed, about 0.9% above its linear speed c0
D1, D2, B1, B2, A11, A12, A21, A22 = 1.0, 40.0, 2.0, 1.0, 1.0, 0.3, 4.0, 1.0
U1_STAR, U2_STAR = B1 / A11, B2 / A22
R1 = B1 - A12 * U2_STAR            # species 1's linear growth at the invaded state
C0 = 2.0 * np.sqrt(D1 * R1)
LEFT_GAP = 1e-6                    # U1 = u1*(1 - LEFT_GAP) at the left end


def _rhs(xi, y, p):
    c = p[0]
    u, du, v, dv = y
    return np.vstack([du, (-c * du - u * (B1 - A11 * u - A12 * (U2_STAR - v))) / D1,
                      dv, (-c * dv - (U2_STAR - v) * (A21 * u - A22 * v)) / D2])


def _jacobian(c):
    """The linearization of _rhs at (0, 0): block lower triangular in (U1, V)."""
    return np.array([[0.0, 1.0, 0.0, 0.0],
                     [-R1 / D1, -c / D1, 0.0, 0.0],
                     [0.0, 0.0, 0.0, 1.0],
                     [-A21 * U2_STAR / D2, 0.0, A22 * U2_STAR / D2, -c / D2]])


def _rates(c):
    """U1's slow decay rate and V's growth rate at (0, 0); the slow rate is
    taken at a zero discriminant below c0, where it is complex."""
    slow = (-c + np.sqrt(max(c * c - 4.0 * D1 * R1, 0.0))) / (2.0 * D1)
    grow = (-c + np.sqrt(c * c + 4.0 * D2 * A22 * U2_STAR)) / (2.0 * D2)
    return slow, grow


def _left_eigenvectors(c):
    """Left eigenvectors of _jacobian(c) for U1's slow rate and V's growing rate."""
    slow, grow = _rates(c)
    jac = _jacobian(c)
    l_slow = np.array([slow + c / D1, 1.0, 0.0, 0.0])
    l_v = np.array([grow + c / D2, 1.0])
    l_u = np.linalg.solve((grow * np.eye(2) - jac[:2, :2]).T, l_v @ jac[2:, :2])
    return l_slow, np.concatenate([l_u, l_v])


def _bc(ya, yb, p):
    l_slow, l_grow = _left_eigenvectors(p[0])
    return np.array([ya[0] - U1_STAR * (1.0 - LEFT_GAP), ya[1], ya[2] - U2_STAR,
                     l_slow @ yb, l_grow @ yb])


def fast_decay_wave_speed(lo, hi, c_start):
    """c* from a fast-decay wave on [lo, hi], or None when the result is rejected.

    The start is a tanh front at c_start whose left tail meets the left
    boundary condition: it leaves u1* at the rate r of U1's linearization at
    (u1*, 0), so its width is 2/r and it sits ln(1/LEFT_GAP)/r from lo.  The
    solve at tol 1e-8 is polished at tol 1e-10 from its own result: at 1e-8
    alone, c still moves by some 1e-8 relative with the mesh.
    """
    rate = (-c_start + np.sqrt(c_start ** 2 + 4.0 * D1 * A11 * U1_STAR)) / (2.0 * D1)
    xi = np.linspace(lo, hi, 400)
    z = (xi - lo - np.log(1.0 / LEFT_GAP) / rate) * rate / 2.0
    shape, slope = 0.5 * (1.0 - np.tanh(z)), -0.25 * rate / np.cosh(z) ** 2
    guess = np.vstack([U1_STAR * shape, U1_STAR * slope, U2_STAR * shape, U2_STAR * slope])
    wave = solve_bvp(_rhs, _bc, xi, guess, p=[c_start], tol=1e-8, max_nodes=20_000)
    if wave.status == 0:
        wave = solve_bvp(_rhs, _bc, wave.x, wave.y, p=wave.p, tol=1e-10, max_nodes=20_000)
    c = wave.p[0]
    if wave.status != 0 or c <= C0 or wave.y[0].min() < 0.0:
        return None
    return c


@pytest.mark.parametrize("c", [1.02 * C0, 1.5 * C0], ids=["1.02c0", "1.5c0"])
def test_right_end_vectors_are_left_eigenvectors_of_the_linearization(c):
    slow, grow = _rates(c)
    jac = _jacobian(c)
    for vec, rate in zip(_left_eigenvectors(c), (slow, grow)):
        np.testing.assert_allclose(vec @ jac, rate * vec, atol=1e-14)


def test_pushed_minimal_wave_speed_on_two_domains():
    speeds = [fast_decay_wave_speed(lo, hi, 1.02 * C0) for lo, hi in ((-30, 45), (-40, 60))]
    assert None not in speeds
    assert speeds[0] == pytest.approx(2.630703, abs=1e-6)
    assert speeds[1] == pytest.approx(speeds[0], rel=1e-8)
