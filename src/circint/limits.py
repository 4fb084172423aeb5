"""Resource guards.

Desk-scale inputs are the design point; anything larger is refused loudly
with LimitExceeded instead of grinding or overflowing silently. Bounds are
resolved here, at call time, from the defaults below or the environment
overrides, and are checked only on quantities a caller supplies: an order
n, a field's conductor, a modulus g.
"""

from __future__ import annotations

import os

from .errors import CircError, LimitExceeded

MODULUS_LIMIT = 100_000
EXACT_ORDER_LIMIT = 10_000
ENUM_BUDGET = 1 << 20
EXHAUSTIVE_BOUND = 14

ENV_MODULUS = "CIRC_LIMIT_MODULUS"
ENV_ENUM = "CIRC_LIMIT_ENUM"


def check_modulus(n: int) -> None:
    bound = _env_limit(ENV_MODULUS) or MODULUS_LIMIT
    if n > bound:
        raise LimitExceeded(f"modulus {n} exceeds limit {bound}; {ENV_MODULUS} raises it")


def check_order(n: int) -> None:
    if n > EXACT_ORDER_LIMIT:
        raise LimitExceeded(f"order {n} exceeds exact-order limit {EXACT_ORDER_LIMIT}, which bounds spectrum "
                            f"--exact and the search of a rejected block; no environment variable raises it")


def enum_budget() -> int:
    """Most integral sets enumerate_integral streams without a limit."""
    return _env_limit(ENV_ENUM) or ENUM_BUDGET


def _env_limit(name: str) -> int | None:
    """Read an integer override from the environment; None when unset."""
    raw = os.environ.get(name)
    if raw is None or raw == "":
        return None
    try:
        value = int(raw)
    except ValueError:
        raise CircError(f"environment variable {name} must be an integer, got {raw!r}") from None
    if value < 1:
        raise CircError(f"environment variable {name} must be positive, got {value}")
    return value
