"""Deterministic random-number stream management.

Every stochastic component in the library draws from a stream obtained via
:func:`stream`, keyed by a root seed plus a tuple of string labels.  Two
properties make campaigns reproducible and composable:

* The same ``(seed, labels)`` always yields an identically-seeded
  ``numpy.random.Generator``.
* Distinct label tuples yield statistically independent streams, so adding
  a new consumer never perturbs the draws of existing ones.

This follows the "one generator per logical process" idiom recommended by
numpy's random API documentation.
"""

from __future__ import annotations

import hashlib

import numpy as np


def substream_seed(seed: int, *labels: str) -> int:
    """Derive a child seed from a root seed and a label path.

    Uses SHA-256 over the seed and labels, so the mapping is stable across
    Python versions and platforms (unlike ``hash()``).
    """
    hasher = hashlib.sha256()
    hasher.update(str(int(seed)).encode("utf-8"))
    for label in labels:
        hasher.update(b"\x00")
        hasher.update(label.encode("utf-8"))
    return int.from_bytes(hasher.digest()[:8], "big")


def stream(seed: int, *labels: str) -> np.random.Generator:
    """Return an independent, reproducible generator for a label path.

    >>> a = stream(1, "weather", "london")
    >>> b = stream(1, "weather", "london")
    >>> float(a.random()) == float(b.random())
    True
    """
    return np.random.default_rng(substream_seed(seed, *labels))


class CategoricalSampler:
    """``Generator.choice(len(p), p=p)`` for a fixed ``p``, its CDF built once.

    ``choice`` rebuilds the CDF on every call (``p.cumsum()`` divided by
    its last element) and searches one ``random()`` draw in it; a call
    here makes the same search over the same CDF, so it returns the same
    index and leaves the generator in the same state, at a fraction of
    the cost (``tests/test_rng.py`` pins this against the installed
    numpy).
    """

    __slots__ = ("cdf",)

    def __init__(self, probabilities) -> None:
        cdf = np.asarray(probabilities, dtype=np.float64).cumsum()
        cdf /= cdf[-1]
        self.cdf = cdf

    def __call__(self, rng: np.random.Generator) -> int:
        """Draw one category index from ``rng``."""
        return int(self.cdf.searchsorted(rng.random(), side="right"))
