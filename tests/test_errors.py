"""The one rule every integer setting of the library obeys."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from elastic_mine.errors import ElasticMineError, _integer

LOWEST, HIGHEST = -(2**63), 2**63 - 1  # the int64 range


class SettingError(ElasticMineError, ValueError):
    """Stands in for the error class of a setting's site."""


@st.composite
def bounded(draw):
    """``(value, low, high)``: bounds that may be open, and an int64 value between them."""
    low = draw(st.none() | st.integers(LOWEST, HIGHEST))
    high = draw(st.none() | st.integers(LOWEST if low is None else low, HIGHEST))
    value = draw(st.integers(LOWEST if low is None else low, HIGHEST if high is None else high))
    return value, low, high


@given(bounded(), st.integers(1, 2**64),
       st.floats() | st.floats().map(np.float64) | st.booleans() | st.sampled_from([np.True_, np.False_]))
def test_integer_rule(case, distance, non_integer):
    """An int or np.int64 in range comes back as an equal int; one out of range,
    and any float (of integral value too) or bool, raises the site's error."""
    value, low, high = case
    for given_value in (value, np.int64(value)):
        got = _integer(SettingError, "size", given_value, low, high)
        assert type(got) is int and got == value
    for bound, step in ((low, -distance), (high, distance)):
        if bound is not None:
            with pytest.raises(SettingError, match="^size must be (>=|<=|in) "):
                _integer(SettingError, "size", bound + step, low, high)
    with pytest.raises(SettingError, match="^size must be an integer, got "):
        _integer(SettingError, "size", non_integer, low, high)
