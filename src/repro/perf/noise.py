"""Deterministic run-to-run variability model.

The paper reports very low variability on A64FX (AMG's runtime CV below
0.114%) with BabelStream the outlier at up to 22% CV (Sec. 2.4); ten
performance runs with fastest-time reporting is its answer.  We
reproduce the *measurement procedure* faithfully, so the harness needs
noise: a deterministic lognormal multiplier seeded from the run's
identity, giving reproducible "measurements" with a controlled
coefficient of variation per benchmark.
"""

from __future__ import annotations

import hashlib
import math


def _unit_normal(*key_parts: object) -> float:
    """Deterministic standard normal via Box-Muller from a hashable
    identity tuple.

    The two uniforms are the leading 64 bits of
    ``sha256("|".join(map(str, (*key_parts, "u1"))))`` and of its
    ``"u2"`` twin; the shared key prefix is formatted and hashed once.
    """
    prefix = "|".join(map(str, key_parts)) + "|" if key_parts else ""
    h1 = hashlib.sha256(prefix.encode())
    h2 = h1.copy()
    h1.update(b"u1")
    h2.update(b"u2")
    u1 = int.from_bytes(h1.digest()[:8], "big") / float(1 << 64)
    u2 = int.from_bytes(h2.digest()[:8], "big") / float(1 << 64)
    u1 = max(u1, 1e-12)
    return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)


def noise_multiplier(cv: float, *key_parts: object) -> float:
    """A one-sided (half-)lognormal slowdown multiplier, deterministic
    in the key: ``exp(sigma * |Z|)`` with ``sigma = sqrt(ln(1 + cv^2))``
    and ``Z`` a key-seeded standard normal.

    System noise makes runs *slower* than the model's ideal time, never
    faster, so the support is ``[1, inf)`` — the infimum 1.0 is
    approached as ``|Z| -> 0`` and the mean sits strictly above 1 (the
    fastest-of-N reporting then recovers a value close to the ideal,
    as on the real machine).  The distribution of ``ln(multiplier)`` is
    half-normal with scale ``sigma``, giving the documented moments:

    * median: ``exp(0.67448975 * sigma)`` (the half-normal median is
      the normal's upper quartile);
    * mean: ``2 * exp(sigma**2 / 2) * Phi(sigma)`` with ``Phi`` the
      standard normal CDF — for small ``cv`` approximately
      ``1 + sigma * sqrt(2 / pi)``.

    ``cv`` names the *underlying* lognormal's coefficient of variation
    through the usual ``sigma`` relation; the folded multiplier's own
    CV is smaller.  These values are a compatibility contract: every
    journaled trial time, cache key and golden campaign result depends
    on them bit-for-bit.
    """
    if cv < 0:
        raise ValueError("cv must be non-negative")
    if cv == 0:
        return 1.0
    sigma = math.sqrt(math.log(1.0 + cv * cv))
    z = abs(_unit_normal(*key_parts))
    return math.exp(sigma * z)


def timer_resolution_floor(t: float, resolution: float = 1e-6) -> float:
    """Clamp a model time to the harness clock resolution."""
    return max(t, resolution)
