import tracemalloc

import numpy as np
import pytest

from symrec.expressions import parse_coeff
from symrec.measurement_recovery import MeasurementModel, plan_orders
from symrec.symbols import HomogeneousTerm, SymbolExpansion
from symrec.wave_packets import WavePacketFamily, make_profile


@pytest.fixture(scope="session")
def profile():
    return make_profile(1.0)


@pytest.fixture(scope="session")
def family(profile):
    return WavePacketFamily(x0=0.3, xi0=1.0, lam=2.0, profile=profile)


@pytest.fixture(scope="session")
def two_term_model(profile):
    """Two-term observable with orders (1, 0), mildly varying coefficients."""
    terms = (
        HomogeneousTerm(1.0, parse_coeff("1 + 0.2*sin(x)")),
        HomogeneousTerm(0.0, parse_coeff("0.5 + 0.2*cos(x)")),
    )
    observable = SymbolExpansion(terms)
    return MeasurementModel(observable, beta=0.0, x0=0.0, xi0=1.0, profile=profile)


@pytest.fixture(scope="session")
def two_term_plan():
    return plan_orders([1.0, 0.0, -1.0], 0.0)


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)


def _traced_call(fn, *args):
    tracemalloc.start()
    try:
        out = fn(*args)
        return tracemalloc.get_traced_memory()[1], out
    finally:
        tracemalloc.stop()


@pytest.fixture()
def traced_peak():
    """The tracemalloc peak, in bytes, of one call fn(*args)."""
    return lambda fn, *args: _traced_call(fn, *args)[0]


@pytest.fixture()
def traced_call():
    """The tracemalloc peak, in bytes, of one call fn(*args), and its result."""
    return _traced_call
