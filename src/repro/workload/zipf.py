"""Zipfian key generator (Gray et al., SIGMOD 1994).

The paper controls contention with "a Zipfian distribution (θ = 2.9 ≈ 82%
the same key)" citing Gray et al.'s *Quickly Generating Billion-Record
Synthetic Databases*.  This module implements that generator: item ranks
are drawn with probability ``P(rank i) ∝ 1 / i^θ`` using the classic
zeta-normalisation algorithm (the same construction YCSB popularised).

θ = 0 degenerates to the uniform distribution; θ = 2.9 over a large
keyspace puts ≈ 82% of the probability mass on the single hottest key —
reproducing the paper's contention axis exactly.

Ranks are mapped to keys with a multiplicative hash so that "hot" keys are
spread over the keyspace instead of clustering at 0 (Gray et al.'s
permutation step).
"""

from __future__ import annotations

import functools
import random


class ZipfianGenerator:
    """Draw items in ``[0, n)`` with Zipf exponent ``theta``.

    ``theta == 0`` is uniform.  For ``theta != 1`` the inverse-CDF uses the
    closed-form approximation of Gray et al.; probabilities follow
    ``1 / rank^theta`` with rank 1 the hottest.
    """

    def __init__(
        self,
        n: int,
        theta: float = 0.0,
        seed: int | None = None,
        scramble: bool = True,
    ) -> None:
        if n <= 0:
            raise ValueError(f"keyspace size must be positive: {n}")
        if theta < 0:
            raise ValueError(f"theta must be non-negative: {theta}")
        self.n = n
        self.theta = theta
        self.scramble = scramble
        self._rng = random.Random(seed)
        if theta > 0:
            self._zetan = self._zeta(n, theta)
            if theta != 1.0:
                self._alpha = 1.0 / (1.0 - theta)
                self._eta = (1.0 - (2.0 / n) ** (1.0 - theta)) / (
                    1.0 - self._zeta(2, theta) / self._zetan
                )
            else:
                # theta == 1: Gray's closed form degenerates (alpha = 1/0),
                # so draw by inverse CDF over precomputed harmonic prefix
                # sums (bounded to the first million ranks; the tail mass
                # beyond that is spread uniformly).
                limit = min(n, 1_000_000)
                prefix = [0.0] * limit
                total = 0.0
                for i in range(1, limit + 1):
                    total += 1.0 / i
                    prefix[i - 1] = total
                self._harmonic_prefix = prefix

    @staticmethod
    @functools.cache
    def _zeta(n: int, theta: float) -> float:
        """Truncated zeta sum ``sum_{i=1..n} 1/i^theta``.

        For very large ``n`` the tail is approximated by the integral
        ``∫ x^-theta dx`` to keep construction O(min(n, cutoff)).  Memoised:
        a pure function of ``(n, theta)``, and every workload generator of a
        sweep point draws over the same keyspace and θ.
        """
        cutoff = 1_000_000
        if n <= cutoff:
            return sum(1.0 / (i**theta) for i in range(1, n + 1))
        head = sum(1.0 / (i**theta) for i in range(1, cutoff + 1))
        if theta == 1.0:
            import math

            return head + math.log(n / cutoff)
        tail = (n ** (1.0 - theta) - cutoff ** (1.0 - theta)) / (1.0 - theta)
        return head + tail

    def next_rank(self) -> int:
        """Draw a 1-based rank (1 = hottest)."""
        if self.theta == 0:
            return self._rng.randrange(self.n) + 1
        u = self._rng.random()
        uz = u * self._zetan
        if uz < 1.0:
            return 1
        if self.theta == 1.0:
            # inverse CDF by bisection over the harmonic prefix sums
            from bisect import bisect_left

            prefix = self._harmonic_prefix
            if uz <= prefix[-1]:
                return bisect_left(prefix, uz) + 1
            # tail beyond the precomputed window: spread uniformly
            return len(prefix) + self._rng.randrange(self.n - len(prefix)) + 1
        if uz < 1.0 + 0.5 ** self.theta:
            return 2
        return 1 + int(self.n * (self._eta * u - self._eta + 1.0) ** self._alpha)

    def next(self) -> int:
        """Draw a key in ``[0, n)`` (rank scrambled over the keyspace).

        θ = 0 bypasses the scramble: the rank is already uniform, and the
        multiplicative fold is not collision-free for arbitrary ``n`` (it
        would dent uniformity).  For θ > 0 collisions merely merge a few
        cold keys, which is immaterial for a contention workload.
        """
        if self.theta == 0:
            return self._rng.randrange(self.n)
        rank = min(self.next_rank(), self.n)
        if not self.scramble:
            return rank - 1
        # Knuth multiplicative hash: bijective over [0, 2^64), folded to n.
        return ((rank - 1) * 0x9E3779B97F4A7C15 & (2**64 - 1)) % self.n

    def sample(self, count: int) -> list[int]:
        return [self.next() for _ in range(count)]

    def hottest_key(self) -> int:
        """The key rank 1 maps to (useful for contention assertions)."""
        if not self.scramble:
            return 0
        return 0 * 0x9E3779B97F4A7C15 % self.n

    def top_key_probability(self) -> float:
        """Analytic P(rank 1) — e.g. ≈ 0.82 for theta=2.9, large n."""
        if self.theta == 0:
            return 1.0 / self.n
        return 1.0 / self._zetan
