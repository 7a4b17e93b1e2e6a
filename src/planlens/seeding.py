"""Deterministic seed derivation.

Every random draw in the package is keyed by content (a root seed plus a
label path), never by call order. This is what makes runs reproducible
across execution modes and event interleavings.
"""

from __future__ import annotations

import random
from hashlib import blake2b

LABEL = "%s\x1f"  # one label's frame; `%s` formats a label as str() does
_FORMATS: dict[int, str] = {}  # label count -> LABEL repeated that often


def _frame(parts: tuple) -> bytes:
    """Hash input for a label path: each part's str() followed by "\x1f"."""
    fmt = _FORMATS.get(len(parts))
    if fmt is None:
        fmt = _FORMATS[len(parts)] = LABEL * len(parts)
    return (fmt % parts).encode()


def derive_seed(root: int, *labels: object) -> int:
    """Derive a child seed from a root seed and a label path."""
    return int.from_bytes(blake2b(_frame((root, *labels)), digest_size=8).digest(), "big")


def hash_uniform(root: int, *labels: object) -> float:
    """Uniform draw in [0, 1) determined entirely by (root, labels)."""
    return derive_seed(root, *labels) / 2.0**64


def rng_for(root: int, *labels: object) -> random.Random:
    """A `random.Random` seeded from (root, labels)."""
    return random.Random(derive_seed(root, *labels))


class SeedPrefix:
    """A root seed and leading labels, hashed once for many derivations.

    ``SeedPrefix(root, *labels).derive(*more) == derive_seed(root, *labels,
    *more)``: keys that share a long prefix pay for hashing it only once.
    A hot loop may do what `derive` does inline: copy `hasher`, the state
    after the prefix, update the copy with (LABEL * n % labels).encode().
    """

    __slots__ = ("hasher",)

    def __init__(self, root: int, *labels: object):
        self.hasher = blake2b(_frame((root, *labels)), digest_size=8)

    def derive(self, *labels: object) -> int:
        hasher = self.hasher.copy()
        hasher.update(_frame(labels))
        return int.from_bytes(hasher.digest(), "big")
