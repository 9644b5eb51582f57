import math

import numpy as np
import pytest

from aucmax import rules

INF, NAN = math.inf, math.nan


@pytest.mark.parametrize("rule, accepted, refused", [
    (rules.POSITIVE, [1e-300, 2, np.float64(0.5), np.int64(3)],
     [0, -1.0, INF, NAN, np.float64(-0.0)]),
    (rules.NONNEGATIVE, [0, 0.0, np.float32(2.5)], [-1e-300, INF, NAN, np.float64(-1)]),
    (rules.FINITE, [0, -1e300, np.float64(7)], [INF, -INF, NAN, np.float64(NAN)]),
    (rules.POSITIVE_INTEGER, [1, 2.0, np.int64(50_000), np.uint8(1), 10**400],
     [0, -3, 1.5, INF, NAN, np.float64(0.5), np.int64(0)]),
    (rules.NONNEGATIVE_INTEGER, [0, 1, 2.0, np.int64(0), np.uint8(7), 10**400],
     [-1, 1.7, 0.5, -0.5, INF, NAN, np.float64(1.7), np.int64(-1)]),
    (rules.FRACTION, [0.5, 1e-300, np.float64(0.8)], [0, 1, 1.5, -0.1, NAN, np.float64(1.0)]),
    (rules.BROYDEN_TAU, ["sr1", "dfp", "bfgs", 0, 1, np.float64(0.25)],
     ["bfg", "", -0.1, 1.01, NAN, np.float64(2.0)]),
    (rules.FILTER_ORDER, [1, 4, 20, np.int64(20)], [0, 21, 100, 4.5, INF, NAN]),
    (rules.choice(("a", "b")), ["a", np.str_("b")], ["c", 1, None]),
], ids=["positive", "nonnegative", "finite", "positive-integer", "nonnegative-integer",
        "fraction", "broyden-tau", "filter-order", "choice"])
def test_rule_tests_the_range_only(rule, accepted, refused):
    """Python and numpy scalars alike: each rule accepts its range and nothing else."""
    assert [v for v in accepted if not rule.test(v)] == []
    assert [v for v in refused if rule.test(v)] == []


def test_require_names_the_value_in_its_rules_words():
    rules.require("x", np.float64(1.0), rules.POSITIVE)
    with pytest.raises(ValueError, match=r"^x must be an integer from 1 to 20$"):
        rules.require("x", 21, rules.FILTER_ORDER)
    with pytest.raises(ValueError, match=r"^y must be one of 1, 2$"):
        rules.require("y", 3, rules.choice((1, 2)))
