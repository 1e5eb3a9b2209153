import json
from fractions import Fraction

import pytest

from curvesgp.report import dumps


@pytest.mark.parametrize("value", [
    {},
    [],
    {"a": {}, "b": []},
    [{}, [], [[]], {"c": {}}],
    [True, 1, 0, False],
    {"flags": [False, True], "ints": [1, True]},
    [-7, 10 ** 29, -(10 ** 29) - 1],
    -123456789012345678901234567890,
    'quote " backslash \\ tab \t bell \x07 and é, 𝄞',
    {'k"\\\x01é': ['"', "\\", "\x1f", "ü"]},
    {"terms": [[0, "1/2"], [3, "-4"]], "complete": True, "n": 0},
])
def test_dumps_matches_json_indent_2(value):
    assert dumps(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize("value", [1.5, Fraction(1, 2), {1: 2}, [1, 1.5],
                                   {"a": [Fraction(1, 2)]}, None, (1, 2)])
def test_dumps_rejects_values_a_report_never_holds(value):
    with pytest.raises(TypeError):
        dumps(value)
