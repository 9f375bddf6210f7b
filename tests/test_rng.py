import numpy as np
import pytest

from swinmim.rng import Rng


def trunc_normal_by_rescans(rng, shape, std=0.02, bound=2.0, dtype=np.float32):
    """Rng.trunc_normal as a loop that rescans the whole array each round."""
    out = rng._gen.normal(0.0, std, size=shape)
    limit = bound * std
    bad = np.abs(out) > limit
    while bad.any():
        out[bad] = rng._gen.normal(0.0, std, size=int(bad.sum()))
        bad = np.abs(out) > limit
    return out.astype(dtype)


class TestTruncNormal:
    @pytest.mark.parametrize("shape", [(), 1, (7,), (3, 4), (2, 3, 5), (96, 384), (0,), (1, 0, 3)])
    @pytest.mark.parametrize("seed", [0, 1, 7])
    @pytest.mark.parametrize("bound", [2.0, 0.05])  # 0.05: most entries take many rounds
    def test_same_draws_as_rescanning_loop(self, shape, seed, bound):
        fast, slow = Rng(seed).child(3), Rng(seed).child(3)
        got = fast.trunc_normal(shape, std=0.5, bound=bound)
        want = trunc_normal_by_rescans(slow, shape, std=0.5, bound=bound)
        assert got.shape == np.shape(want) and got.dtype == np.float32
        assert got.tobytes() == want.tobytes()
        # the same number of draws was taken: the streams continue alike
        assert fast.normal(size=4).tobytes() == slow.normal(size=4).tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_within_bound(self, dtype):
        out = Rng(5).trunc_normal((50, 40), std=0.02, bound=0.5, dtype=dtype)
        assert out.dtype == dtype
        assert np.abs(out.astype(np.float64)).max() <= 0.5 * 0.02
