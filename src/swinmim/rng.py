"""Deterministic random number generation.

Every stochastic component (weight init, masking, shuffling, augmentation)
draws from an Rng that is fully determined by an integer seed. Independent
streams are derived with `child`, which hashes the parent seed together with
integer tags, so stream identity depends only on (seed, tags) and never on
draw order elsewhere in the program.
"""

import numpy as np


class Rng:
    """A seeded random stream plus stateless derivation of sub-streams."""

    def __init__(self, seed, _key=None):
        self.seed = int(seed)
        self._key = tuple(_key) if _key is not None else (self.seed,)
        self._gen = np.random.default_rng(np.random.SeedSequence(self._key))

    def child(self, *tags):
        """Derive an independent stream identified by integer tags.

        The same (seed, tags) always yields the same stream, regardless of
        what has been drawn from this or any other Rng.
        """
        for t in tags:
            if not isinstance(t, (int, np.integer)):
                raise TypeError(f"rng tags must be integers, got {t!r}")
        return Rng(self.seed, _key=self._key + tuple(int(t) for t in tags))

    def derived_seed(self):
        """A stable 63-bit integer identifying this stream (not a draw)."""
        return int(np.random.SeedSequence(self._key).generate_state(1, np.uint64)[0] >> 1)

    # -- draws ------------------------------------------------------------

    def uniform(self, low=0.0, high=1.0, size=None):
        return self._gen.uniform(low, high, size)

    def normal(self, mean=0.0, std=1.0, size=None):
        return self._gen.normal(mean, std, size)

    def beta(self, a, b):
        return float(self._gen.beta(a, b))

    def integers(self, low, high=None, size=None):
        return self._gen.integers(low, high, size)

    def permutation(self, n):
        return self._gen.permutation(n)

    def coin(self, p=0.5):
        return bool(self._gen.uniform() < p)

    def trunc_normal(self, shape, std=0.02, bound=2.0, dtype=np.float32):
        """Normal(0, std) with values beyond `bound` std devs redrawn."""
        out = self._gen.normal(0.0, std, size=shape)
        limit = bound * std
        flat = out.reshape(-1)  # a view: the draws are one contiguous array
        redraw = np.flatnonzero(np.abs(flat) > limit)
        while redraw.size:  # each round rescans only the entries it redrew
            draws = self._gen.normal(0.0, std, size=redraw.size)
            flat[redraw] = draws
            redraw = redraw[np.abs(draws) > limit]
        return out.astype(dtype)

    def __repr__(self):
        return f"Rng(seed={self.seed}, key={self._key})"
