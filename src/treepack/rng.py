"""Deterministic 64-bit pseudo-random generator used by all generators.

The update rule is pinned so instances can be reproduced outside this
package from the seed alone:

    state <- (state + 0x9E3779B97F4A7C15) mod 2^64
    z <- state
    z <- (z XOR (z >> 30)) * 0xBF58476D1CE4E5B9 mod 2^64
    z <- (z XOR (z >> 27)) * 0x94D049BB133111EB mod 2^64
    output <- z XOR (z >> 31)

Derived draws are defined on top of the raw 64-bit stream:
  below(n)   = next() mod n                     (n >= 1)
  chance(p, q) = True iff below(q) < p          (probability p/q)
"""

MASK64 = (1 << 64) - 1


class SplitMix64:
    def __init__(self, seed: int):
        self.state = seed & MASK64

    def next(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        if n <= 0:
            raise ValueError("below() needs n >= 1")
        return self.next() % n

    def chance(self, p: int, q: int) -> bool:
        return self.below(q) < p

    def shuffle(self, items: list) -> None:
        # Fisher-Yates driven by below(); in-place, deterministic.
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]

    def sample(self, seq, count: int) -> list:
        pool = list(seq)
        self.shuffle(pool)
        return pool[:count]
