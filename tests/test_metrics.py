import math

import numpy as np
import pytest

from evjoint.events import SensorGeometry
from evjoint.metrics import confusion, esr, motion_rmse

G = SensorGeometry(8, 8)


def esr_oracle(positions, geometry, m_ref):
    """Direct loop evaluation of the structural-rate formula."""
    counts = {}
    for x, y in positions:
        j, i = math.floor(x), math.floor(y)
        if 0 <= j < geometry.width and 0 <= i < geometry.height:
            counts[(i, j)] = counts.get((i, j), 0) + 1
    n = len(positions)
    if n < 2:
        return 0.0
    factor1 = sum(c * (c - 1) for c in counts.values()) / (n * (n - 1))
    base = max(0.0, 1.0 - m_ref / n)
    occupied = sum(base ** c for c in counts.values())
    empty = geometry.npixels - len(counts)  # n_ij = 0 gives base^0 = 1
    factor2 = geometry.npixels - (occupied + empty)
    return math.sqrt(factor1 * factor2)


class TestEsr:
    def test_all_events_one_pixel(self):
        n = 12
        pos = np.tile([[3.5, 3.5]], (n, 1))
        assert esr(pos, G, m_ref=n) == pytest.approx(1.0, abs=1e-12)

    def test_spread_events_zero(self):
        pos = np.array([[j + 0.5, i + 0.5] for i in range(4) for j in range(4)])
        assert esr(pos, G, m_ref=4) == 0.0

    def test_two_by_two_hand_case(self):
        g2 = SensorGeometry(2, 2)
        pos = np.array([[0.3, 0.3], [0.6, 0.6]])  # both in pixel (0, 0)
        got = esr(pos, g2, m_ref=2)
        # factor1 = 2*1/(2*1) = 1; base = 0; factor2 = 4 - (0^2 + 3*1)
        assert got == pytest.approx(math.sqrt(1.0 * (4 - 3)), abs=1e-12)
        assert got == pytest.approx(esr_oracle(pos, g2, 2), abs=1e-12)

    def test_fewer_than_two_events(self):
        assert esr(np.zeros((0, 2)), G, m_ref=1) == 0.0
        assert esr(np.array([[1.0, 1.0]]), G, m_ref=1) == 0.0

    def test_m_ref_above_count_warns_and_clamps(self):
        pos = np.array([[1.1, 1.1], [1.2, 1.2], [5.5, 5.5]])
        with pytest.warns(UserWarning, match="clamping"):
            got = esr(pos, G, m_ref=10)
        assert got == pytest.approx(esr_oracle(pos, G, 10), abs=1e-12)

    def test_m_ref_validation(self):
        with pytest.raises(ValueError):
            esr(np.zeros((0, 2)), G, m_ref=0)

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_oracle_on_random_instances(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(50, 3000))
        pos = rng.uniform(0, 8, (n, 2))
        m_ref = int(rng.integers(1, n))
        assert esr(pos, G, m_ref) == pytest.approx(esr_oracle(pos, G, m_ref), abs=1e-12)

    def test_invariant_to_pixel_relabeling(self):
        # depends only on the multiset of per-pixel counts
        pos_a = np.concatenate([np.tile([[0.5, 0.5]], (5, 1)), np.tile([[3.5, 2.5]], (2, 1))])
        pos_b = np.concatenate([np.tile([[6.5, 7.5]], (5, 1)), np.tile([[1.5, 0.5]], (2, 1))])
        assert esr(pos_a, G, 3) == pytest.approx(esr(pos_b, G, 3), abs=1e-14)


class TestConfusion:
    def test_perfect_prediction(self):
        truth = np.array([True, True, False, True])
        c = confusion(truth, truth)
        assert c.sensitivity == 1.0 and c.specificity == 1.0

    def test_all_signal_prediction(self):
        rng = np.random.default_rng(0)
        truth = rng.random(1000) > 0.1
        c = confusion(np.ones(1000, dtype=bool), truth)
        assert c.sensitivity == 1.0
        assert c.specificity == 0.0

    def test_counts_partition(self):
        rng = np.random.default_rng(1)
        pred = rng.random(500) > 0.5
        truth = rng.random(500) > 0.3
        c = confusion(pred, truth)
        assert c.counts.tp + c.counts.fn + c.counts.tn + c.counts.fp == 500
        assert c.counts.tp + c.counts.fn == truth.sum()
        assert c.counts.tn + c.counts.fp == (~truth).sum()

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(2)
        pred = rng.random(300) > 0.4
        truth = rng.random(300) > 0.6
        c = confusion(pred, truth)
        tp = sum(1 for p, t in zip(pred, truth) if p and t)
        fn = sum(1 for p, t in zip(pred, truth) if not p and t)
        tn = sum(1 for p, t in zip(pred, truth) if not p and not t)
        fp = sum(1 for p, t in zip(pred, truth) if p and not t)
        assert (c.counts.tp, c.counts.fn, c.counts.tn, c.counts.fp) == (tp, fn, tn, fp)
        assert c.sensitivity == pytest.approx(tp / (tp + fn))
        assert c.specificity == pytest.approx(tn / (tn + fp))

    def test_degenerate_classes_flagged(self):
        c = confusion(np.array([True, True]), np.array([True, True]))
        assert c.specificity == 1.0 and not c.specificity_defined
        assert c.sensitivity_defined

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            confusion(np.array([True]), np.array([True, False]))


class TestMotionRmse:
    def test_exact_match_is_zero(self):
        traj = [(0.1, np.array([1.0, 2.0])), (0.2, np.array([2.0, 1.0]))]
        assert motion_rmse(traj, traj) == 0.0

    def test_constant_offset(self):
        truth = [(0.0, np.array([5.0, 0.0])), (1.0, np.array([5.0, 0.0]))]
        est = [(t, np.array([5.0 + 0.75, 0.0])) for t in (0.2, 0.5, 0.9)]
        assert motion_rmse(est, truth) == pytest.approx(0.75)

    def test_linear_interpolation_of_truth(self):
        truth = [(0.0, np.array([0.0])), (1.0, np.array([10.0]))]
        est = [(0.25, np.array([2.5])), (0.5, np.array([5.0]))]
        assert motion_rmse(est, truth) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_direct_formula(self, seed):
        rng = np.random.default_rng(seed)
        gt_t = np.sort(rng.uniform(0, 1, 10))
        gt_t[0], gt_t[-1] = 0.0, 1.0
        gt_v = rng.normal(size=(10, 2))
        est_t = rng.uniform(0, 1, 6)
        est_v = rng.normal(size=(6, 2))
        got = motion_rmse(list(zip(est_t, est_v)), list(zip(gt_t, gt_v)))
        acc = 0.0
        for t, v in zip(est_t, est_v):
            interp = np.array([np.interp(t, gt_t, gt_v[:, d]) for d in range(2)])
            acc += float(((v - interp) ** 2).sum())
        assert got == pytest.approx(math.sqrt(acc / 6), abs=1e-12)

    def test_huge_finite_difference_does_not_overflow(self):
        # squaring 1e200 overflows; the RMSE itself is finite
        truth = [(0.0, np.array([0.0, 0.0])), (1.0, np.array([0.0, 0.0]))]
        assert motion_rmse([(0.1, np.array([1e200, 0.0]))], truth) == 1e200

    def test_difference_past_float_range_rejected(self):
        truth = [(0.0, np.array([-1e308])), (1.0, np.array([-1e308]))]
        with pytest.raises(ValueError, match="not finite"):
            motion_rmse([(0.5, np.array([1e308]))], truth)

    @pytest.mark.parametrize("order", [(0, 1, 2), (1, 0, 2)])
    def test_repeated_truth_time_rejected(self, order):
        # np.interp is undefined at a repeated time: the answer followed row order
        rows = [(0.0, np.array([0.0, 0.0])), (0.0, np.array([1.0, 0.0])),
                (1.0, np.array([1.0, 0.0]))]
        with pytest.raises(ValueError, match="truth time 0.0 is repeated"):
            motion_rmse([(0.0, np.array([5.0, 0.0]))], [rows[i] for i in order])

    def test_time_outside_span_rejected(self):
        truth = [(0.0, np.array([0.0])), (1.0, np.array([1.0]))]
        with pytest.raises(ValueError, match="outside"):
            motion_rmse([(1.5, np.array([0.0]))], truth)

    def test_dimension_mismatch_rejected(self):
        truth = [(0.0, np.array([0.0, 1.0])), (1.0, np.array([1.0, 2.0]))]
        with pytest.raises(ValueError, match="dimensions"):
            motion_rmse([(0.5, np.array([0.0]))], truth)

    def test_empty_inputs_rejected(self):
        with pytest.raises(ValueError):
            motion_rmse([], [(0.0, np.array([0.0]))])
