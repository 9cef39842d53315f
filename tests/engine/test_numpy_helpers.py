"""Exactness property tests for the numpy backend's vectorized helpers.

Every helper here replaces a scalar loop somewhere in the hot path, and
each one promises *bit-identity* with that loop — not approximation.
These tests replay the scalar reference next to the vectorized form over
randomized inputs and require exact equality.
"""

import random

import pytest

np = pytest.importorskip("numpy")

from repro.engine.numpy_backend import (  # noqa: E402
    _bit_ext,
    _chunk_fold,
    _fold_trajectory,
    _lane_groups,
)
from repro.predictors.tage import TagePredictor  # noqa: E402


class TestFoldTrajectory:
    def test_matches_reference_swar_push(self):
        """Replay ``TagePredictor._push_history`` against the closed form.

        The predictor is warmed with a random prefix first, so the
        trajectory starts from non-trivial register and GHR state.
        """
        p = TagePredictor()
        tid = 0
        rng = random.Random(2021)
        for _ in range(300):  # warm-up beyond the deepest history length
            p._push_history(bool(rng.getrandbits(1)), tid)

        outcomes = [rng.getrandbits(1) for _ in range(257)]
        regs = p._folded_regs(tid)
        cap = p._ghr._bits
        ghr0 = p._ghr.value(tid)
        lengths = np.asarray(p._history_lengths, dtype=np.int64)
        outc = np.asarray(outcomes, dtype=np.int64)
        ext = _bit_ext(ghr0, cap, outc)

        files = (p._swar_i, p._swar_t0, p._swar_t1)
        trajs = []
        for k, swar in enumerate(files):
            wmask = (1 << swar.width) - 1
            f0 = np.asarray(
                [(regs[k] >> off) & wmask for off in swar.lane_offsets],
                dtype=np.int64)
            trajs.append(_fold_trajectory(swar.width, lengths, f0, outc,
                                          ext, cap))

        def lanes(k):
            swar = files[k]
            wmask = (1 << swar.width) - 1
            return [(regs[k] >> off) & wmask for off in swar.lane_offsets]

        for i, outcome in enumerate(outcomes):
            for k in range(3):
                assert trajs[k][i].tolist() == lanes(k), \
                    f"file {k} diverged entering branch {i}"
            p._push_history(bool(outcome), tid)
        for k in range(3):  # the final (post-window) row as well
            assert trajs[k][len(outcomes)].tolist() == lanes(k)


class TestLaneGroups:
    @pytest.mark.parametrize("n_lanes,pitch,width", [
        (7, 11, 10), (12, 13, 12), (1, 64, 63), (20, 4, 3), (5, 30, 29),
    ])
    def test_groups_partition_and_fit_int64(self, n_lanes, pitch, width):
        groups = _lane_groups(n_lanes, pitch, width)
        covered = [t for a, b in groups for t in range(a, b)]
        assert covered == list(range(n_lanes))
        for a, b in groups:
            assert (b - a - 1) * pitch + width <= 63  # top bit below sign


class TestChunkFold:
    def test_matches_scalar_fold(self):
        rng = random.Random(7)
        total_bits, width = 31, 12
        mask = (1 << width) - 1
        values = [rng.getrandbits(total_bits) for _ in range(200)]
        expected = []
        for value in values:
            folded, v = 0, value
            while v:
                folded ^= v & mask
                v >>= width
            expected.append(folded & mask)
        got = _chunk_fold(np.asarray(values, dtype=np.int64), total_bits,
                          width, mask)
        assert got.tolist() == expected

