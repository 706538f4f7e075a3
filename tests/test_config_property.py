"""Property test: serialize_config and parse_config are inverse on any
configuration the parser accepts."""

import dataclasses

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from symrec.cli_io import ExperimentConfig, TermSpec, parse_config, serialize_config  # noqa: E402
from symrec.measurement_recovery import MAX_AVERAGE_NODES  # noqa: E402

_floats = st.floats(allow_nan=False, allow_infinity=False)
_float_lists = st.lists(_floats, max_size=4).map(tuple)
_scales = st.floats(min_value=1.0, allow_nan=False, allow_infinity=False)
_positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
_probabilities = st.floats(min_value=0.0, max_value=1.0, exclude_min=True)


def _with_consistent_orders(cfg):
    """``cfg`` with plan orders that stop short of the symbol's term orders
    or extend them, the two ways a config may give them."""
    symbol = tuple(t.order for t in cfg.terms)
    orders = st.one_of(
        st.integers(0, len(symbol)).map(lambda n: symbol[:n]),
        _float_lists.map(lambda extra: symbol + extra),
    )
    return orders.map(lambda o: dataclasses.replace(cfg, orders=o))


@settings(max_examples=200, deadline=None)
@given(cfg=st.builds(
    ExperimentConfig,
    beta=_floats,
    x0_grid=st.lists(_floats, min_size=1, max_size=4).map(tuple),
    xi0=st.sampled_from([1.0, -1.0]),
    profile_sharpness=st.floats(min_value=1e-6, max_value=372.5),
    noise=st.booleans(),
    subtract=st.sampled_from(["oracle", "self", "both"]),
    grid=st.lists(_scales, min_size=1, max_size=4).map(tuple),
    scale=_scales,
    average_nodes=st.one_of(st.just(0), st.integers(2, MAX_AVERAGE_NODES)),
    trials=st.integers(1, 10**6),
    seed=st.integers(-(2**63), 2**63),
    out=st.text("abc/_-.0123456789", min_size=1, max_size=12),
    workers=st.integers(1, 64),
    term=st.integers(1, 9),
    mode=st.sampled_from(["plain", "averaged"]),
    threshold=_positive,
    rate_eps=st.lists(_positive, min_size=1, max_size=4).map(tuple),
    rate_delta=st.lists(_probabilities, min_size=1, max_size=4).map(tuple),
    lambda_overrides=st.dictionaries(st.integers(1, 9), _floats).map(
        lambda d: tuple(sorted(d.items()))
    ),
    alert_threshold=_positive,
    plain_margin=_floats,
    averaged_margin=_floats,
    terms=st.lists(
        st.builds(
            TermSpec, order=_floats,
            coeff=st.sampled_from(["1", "0.5 + 0.2*cos(x)", "exp(x*2) - x**2"]),
            h_minus=_floats, h_plus=_floats,
        ),
        max_size=3,
    ).map(tuple),
).flatmap(_with_consistent_orders))
def test_round_trip_property(cfg):
    assert parse_config(serialize_config(cfg)) == cfg
