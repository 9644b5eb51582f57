"""What a numeric parameter accepts, and how its refusal reads: each rule is
one predicate, which tests the range only and accepts numpy scalars, and the
phrase that ends ``<name> must be ...``.  The library's guards and the
command line's key kinds both use them, so a range reads one way everywhere."""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

BROYDEN_MODES = ("sr1", "dfp", "bfgs")
MAX_FILTER_ORDER = 20       # a higher Butterworth order overflows (f/fc)^(2n)


class Rule(NamedTuple):
    test: Callable[[object], bool]
    what: str


def require(name: str, value, rule: Rule) -> None:
    """Raise ``ValueError("<name> must be <rule.what>")`` unless ``rule`` accepts ``value``."""
    if not rule.test(value):
        raise ValueError(f"{name} must be {rule.what}")


def choice(options: tuple) -> Rule:
    """Exactly one of ``options``."""
    return Rule(lambda v: v in options, "one of " + ", ".join(map(str, options)))


POSITIVE = Rule(lambda v: 0 < v < math.inf, "a positive finite number")
NONNEGATIVE = Rule(lambda v: 0 <= v < math.inf, "a nonnegative finite number")
FINITE = Rule(lambda v: -math.inf < v < math.inf, "a finite number")
POSITIVE_INTEGER = Rule(lambda v: 1 <= v < math.inf and v % 1 == 0, "a positive integer")
NONNEGATIVE_INTEGER = Rule(lambda v: 0 <= v < math.inf and v % 1 == 0, "a nonnegative integer")
FRACTION = Rule(lambda v: 0 < v < 1, "strictly between 0 and 1")
BROYDEN_TAU = Rule(lambda v: v in BROYDEN_MODES if isinstance(v, str) else 0 <= v <= 1,
                   "sr1/dfp/bfgs or a number in [0, 1]")
FILTER_ORDER = Rule(lambda v: POSITIVE_INTEGER.test(v) and v <= MAX_FILTER_ORDER,
                    f"an integer from 1 to {MAX_FILTER_ORDER}")
