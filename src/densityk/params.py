"""The parameters and their domains: each range a parameter may take,
written once with its one message, and the :class:`Param` objects that the
algorithm registry and every function taking a parameter check through."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Domain:
    holds: Callable[[object], bool]  # false for NaN
    message: str  # formatted with the value outside the domain


POSITIVE_FINITE = Domain(lambda v: 0 < v < math.inf, "must be a positive finite number, got {}")
POSITIVE = Domain(lambda v: v > 0, "must be positive, got {}")
NON_NEGATIVE = Domain(lambda v: v >= 0, "must be >= 0, got {}")
AT_LEAST_ONE = Domain(lambda v: v >= 1, "must be >= 1, got {}")


def one_of(*choices: str) -> Domain:
    return Domain(lambda v: v in choices, f"must be one of {', '.join(choices)}; got {{!r}}")


@dataclass(frozen=True)
class Param:
    """A parameter: its name, the type a run receives (``kind(value)``), its
    domain and whether a configuration must give it. A function that takes
    the parameter checks it with :meth:`check`; the algorithm registry and
    ``SynthSpec`` with :meth:`validate`, before any document is read."""

    name: str
    kind: type = float  # float, int or str
    domain: Domain | None = None
    required: bool = False

    def check(self, value, prefix: str = "") -> None:
        """Raise ``ValueError`` for a value outside the domain."""
        if self.domain is not None and not self.domain.holds(value):
            raise ValueError(f"{prefix}{self.name} {self.domain.message.format(value)}")

    def validate(self, value, prefix: str = "") -> None:
        """Raise ``ValueError`` unless the value is a number (any value, for
        a ``str`` kind), in the domain, then finite and, for an ``int``, whole:
        NaN and -1 outside a domain get its message, ``inf`` inside it not."""
        number = isinstance(value, numbers.Real) and not isinstance(value, bool)
        if number or self.kind is str:
            self.check(value, prefix)
        if self.kind is str:
            return
        try:
            finite = number and math.isfinite(value)
        except OverflowError:  # an int beyond the float range
            finite = False
        if not finite:
            raise ValueError(f"{prefix}{self.name} must be a finite number, got {value!r}")
        if self.kind is int and value != int(value):
            raise ValueError(f"{prefix}{self.name} must be an integer, got {value!r}")


AVG_PAIRWISE = "avg_pairwise"  # omd's measures
HULL_AREA = "hull_area"

DELTA_D = Param("delta_d", float, POSITIVE_FINITE)
UPPER_BOUND = Param("upper_bound", float, NON_NEGATIVE)
EPSILON = Param("epsilon", float, POSITIVE, required=True)
MIN_PTS = Param("min_pts", int, AT_LEAST_ONE, required=True)
K = Param("k", int, AT_LEAST_ONE, required=True)
MEASURE = Param("measure", str, one_of(AVG_PAIRWISE, HULL_AREA))
CAP = Param("cap", int, AT_LEAST_ONE)  # then checked against the document's combination count
RADIUS = Param("radius", float, NON_NEGATIVE)  # dedupe_candidates'
WORKERS = Param("workers", int, AT_LEAST_ONE)  # evaluate_corpus'
