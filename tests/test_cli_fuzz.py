"""Bounded CLI fuzz test: one hostile ``key = value`` line appended to a
working config must end in exit 0, 2 or 3, with no traceback, and a failed
run must write no rows."""

import contextlib
import io
import tempfile
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from symrec.cli_io import _DISPATCH, _KINDS, main  # noqa: E402
from test_cli_io import TWO_TERM_CFG  # noqa: E402

_KEYS = sorted(set(_KINDS) - {"lambda_overrides", "terms"}) + [
    "lambda_0", "lambda_1", "lambda_2", "lambda_x", "symbol_count",
    "symbol_1_order", "symbol_1_coeff", "symbol_2_h_minus", "symbol_3_order",
    "bogus",
]
_HOSTILE = [
    "", "nan", "inf", "-inf", "0", "-0", "-1", "1.5", "1e300", "-1e300",
    "1e-300", "400", "100000", "abc", "true", ",", "1,,2", "1, nan", "x",
    "10**400", "exp(x*1000)", "1/0", "'", "0x10",
]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    command=st.sampled_from(tuple(_DISPATCH)),
    key=st.sampled_from(_KEYS),
    value=st.sampled_from(_HOSTILE),
)
def test_hostile_line_exits_cleanly(command, key, value):
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "fuzz.cfg"
        cfg.write_text(TWO_TERM_CFG + f"{key} = {value}\n")
        out = Path(tmp) / "out"
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main([command, "--config", str(cfg), "--out", str(out), "--quiet"])
        assert code in (0, 2, 3), err.getvalue()
        assert "Traceback" not in err.getvalue()
        if code != 0:
            assert not list(out.glob("*_rows.csv"))
