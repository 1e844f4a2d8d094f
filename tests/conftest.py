import json
import math

import numpy as np
import pytest
from hypothesis import strategies as st

from speedlab import LineState, LineSystemEvolver, SystemSpec, build_field, front_position
from speedlab.pde import cell_offsets


def load_strict_json(fh):
    """json.load that rejects NaN and +-Infinity, which strict JSON does not allow."""
    def reject(name):
        raise ValueError(f"{name} is not strict JSON")
    return json.load(fh, parse_constant=reject)


def field(expr, omega=1.0, ell=1.0, nt=200, nx=64):
    return build_field(expr, omega, ell, nt, nx)


# the benchmark's report-tx instance: t- and x-periodic species 1, t-periodic species 2
REPORT_TX_MEDIA = {"d1": "1 + 0.25*cos(2*pi*x)", "g1": "0.2*sin(2*pi*(x - t))",
                   "b1": "2 + 0.5*cos(2*pi*x)", "b2": "1 + 0.5*sin(2*pi*t)"}


# media that vary in t only: (mean, amplitude, phase) of each coefficient
# mean + amplitude*sin(2 pi t + phase), on ranges where H1 and H2 hold
T_ONLY_MEANS = {"d1": (0.5, 1.5), "d2": (0.3, 1.2), "g1": (-0.3, 0.3), "g2": (-0.3, 0.3),
                "b1": (1.5, 3.0), "b2": (0.5, 1.5)}
T_ONLY_AMPLITUDES = {"d1": 0.2, "d2": 0.12, "g1": 0.3, "g2": 0.3, "b1": 1.0, "b2": 0.8}
t_only_media = st.fixed_dictionaries({
    name: st.tuples(st.floats(*T_ONLY_MEANS[name]), st.floats(0.0, T_ONLY_AMPLITUDES[name]),
                    st.floats(0.0, 2.0 * math.pi))
    for name in T_ONLY_MEANS})


def t_only_exprs(media):
    """Coefficient expressions of a t_only_media draw."""
    return {name: f"{mean!r} + {amp!r}*sin(2*pi*t + {phase!r})"
            for name, (mean, amp, phase) in media.items()}


def make_system(nt=200, nx=64, omega=1.0, ell=1.0, **overrides):
    """Constants competition instance; override individual expressions."""
    exprs = {"d1": "1", "d2": "0.5", "g1": "0", "g2": "0", "b1": "2", "b2": "1",
             "a11": "1", "a12": "0.3", "a21": "1.2", "a22": "1"}
    exprs.update(overrides)
    return SystemSpec.from_expressions(exprs, omega, ell, nt, nx)


def fixed_line_positions(sys, half_width, periods):
    """Front positions on the fixed line [-A, A] from the front's initial data.

    The oracle for the co-moving window: a line wide enough for the whole run
    has no moving boundary to truncate the front.
    """
    u1 = sys.u1_star()
    ev = LineSystemEvolver(sys, -half_width, half_width)
    v = np.zeros((2, ev.n_nodes))
    v[0] = np.where(ev.x <= 0.0, u1.snapshots[0][cell_offsets(ev.x, sys.ell, sys.nx)], 0.0)
    positions = []
    for p in range(periods):
        v = ev.period(v)
        state = LineState(v, (p + 1) * sys.omega, -half_width, half_width)
        positions.append(front_position(state, u1))
    return np.array(positions)


@pytest.fixture(scope="session")
def constants_system():
    """The drift-free constants instance used across the determinacy tests."""
    return make_system()


@pytest.fixture(scope="session")
def fisher_system():
    """Decoupled constants instance: two independent logistic species."""
    return make_system(b1="1", d2="1", a12="0", a21="0")


@pytest.fixture(scope="session")
def periodic_b2_system():
    """x-independent instance with a time-periodic species-2 growth, mean 1."""
    return make_system(nx=8, b2="1 + 0.5*sin(2*pi*t)")


def rng(seed=0):
    return np.random.default_rng(seed)
