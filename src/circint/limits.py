"""Resource guards, and the one check of an integer that a caller passes.

checked(n, least, name) is the boundary of every public call that takes an
order, a modulus or a conductor: n as an int if operator.index takes it, as
it takes numpy integers (else DegenerateInput), n >= least (else
DegenerateOrder) and n inside the modulus bound (else LimitExceeded);
integer(x, name) only converts. Bounds are read at call time from the
defaults below or the environment overrides. Memo bounds the caches.
"""

from __future__ import annotations

import functools
import itertools
import os
import threading
from operator import index

from .errors import CircError, DegenerateInput, DegenerateOrder, LimitExceeded

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


def integer(x, name: str) -> int:
    """x as an int; DegenerateInput, naming it, if operator.index does not take it."""
    try:
        return index(x)
    except TypeError:
        raise DegenerateInput(f"{name} {x!r} is not an integer") from None


def checked(n, least: int, name: str) -> int:
    """integer(n, name), once n >= least and n is inside the modulus bound."""
    if (n := integer(n, name)) < least:
        raise DegenerateOrder(f"{name} needs n >= {least}, got {n}")
    check_modulus(n)
    return n


def check_modulus(n: int) -> None:
    bound = _env_limit(ENV_MODULUS) or MODULUS_LIMIT
    if n > bound:
        raise LimitExceeded(f"modulus {n} exceeds limit {bound}; {ENV_MODULUS} raises it")


def check_exhaustive(n: int) -> None:
    if n > EXHAUSTIVE_BOUND:
        raise LimitExceeded(f"exhaustive sweep needs n <= {EXHAUSTIVE_BOUND}, got {n}; "
                            "no environment variable raises it")


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
    if not (raw := os.environ.get(name)):
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
