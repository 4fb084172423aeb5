"""Resource guards.

Desk-scale inputs are the design point; anything larger is refused loudly
with LimitExceeded instead of grinding or overflowing silently. Bounds are
resolved here, at call time, from the defaults below or the environment
overrides, and are checked only on quantities a caller supplies: an order
n, a field's conductor, a modulus g.

The per-order caches are bounded here too, by what they hold: see Memo.
"""

from __future__ import annotations

import functools
import itertools
import os
import threading

from .errors import CircError, LimitExceeded

MODULUS_LIMIT = 100_000
EXACT_ORDER_LIMIT = 10_000
ENUM_BUDGET = 1 << 20
EXHAUSTIVE_BOUND = 14

# A memo holds at most MEMO_ENTRIES entries and MEMO_RESIDUES residues, an
# entry at order n counting n: about five orders near the modulus bound
MEMO_ENTRIES = 256
MEMO_RESIDUES = 1 << 19

ENV_MODULUS = "CIRC_LIMIT_MODULUS"
ENV_ENUM = "CIRC_LIMIT_ENUM"


def check_modulus(n: int) -> None:
    bound = _env_limit(ENV_MODULUS) or MODULUS_LIMIT
    if n > bound:
        raise LimitExceeded(f"modulus {n} exceeds limit {bound}; {ENV_MODULUS} raises it")


def check_exhaustive(n: int) -> None:
    if n > EXHAUSTIVE_BOUND:
        raise LimitExceeded(f"exhaustive sweep needs n <= {EXHAUSTIVE_BOUND}, got {n}")


def check_order(n: int) -> None:
    if n > EXACT_ORDER_LIMIT:
        raise LimitExceeded(f"order {n} exceeds exact-order limit {EXACT_ORDER_LIMIT}, which bounds spectrum "
                            f"--exact and the search of a rejected block (at most log2|H| + 1 images of length "
                            f"n/d per proper divisor d); no environment variable raises it")


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


class Memo:
    """Memoize build(n, *rest), whose result grows with the order n, by its
    arguments. Entries go oldest first (callers walk orders in turn or
    revisit a few small ones, so recency is not tracked) until at most
    MEMO_ENTRIES hold at most MEMO_RESIDUES residues, but the entry just
    built stays, so calls at one order past the bound still hit. Builds
    run outside the lock: two threads may build one key, and both get the
    entry stored first."""

    def __init__(self, build):
        functools.update_wrapper(self, build)
        self._build = build
        self._lock = threading.Lock()
        self.cache_clear()

    def __call__(self, *key):
        try:
            value = self._entries[key]
        except KeyError:
            next(self._misses)
            return self._store(key, self._build(*key))
        next(self._hits)  # itertools.count: an atomic increment
        return value

    def _store(self, key, value):
        with self._lock:
            entries = self._entries
            if key in entries:  # another thread stored it first
                return entries[key]
            entries[key] = value
            self._residues += key[0]
            while len(entries) > 1 and (len(entries) > MEMO_ENTRIES or self._residues > MEMO_RESIDUES):
                oldest = next(iter(entries))
                del entries[oldest]
                self._residues -= oldest[0]
        return value

    def cache_clear(self) -> None:
        with self._lock:
            self._entries, self._residues = {}, 0
            self._hits, self._misses = itertools.count(), itertools.count()

    def cache_info(self) -> dict:
        with self._lock:
            # repr(count(k)) is "count(k)": read the counter without advancing it
            hits, misses = (int(repr(c)[6:-1]) for c in (self._hits, self._misses))
            return {"hits": hits, "misses": misses, "entries": len(self._entries), "residues": self._residues,
                    "max_entries": MEMO_ENTRIES, "max_residues": MEMO_RESIDUES}
