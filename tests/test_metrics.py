import numpy as np
import pytest
from scipy.spatial.distance import cdist

from jointscale import (
    InvalidInput,
    accuracy,
    foscttm,
    knn_transfer,
    node_correctness,
    pairwise_euclidean,
    rmsd_d,
    topk_accuracy,
)


def haar_orthogonal(d, rng):
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    return q * np.sign(np.diag(r))


class TestFoscttm:
    def test_perfect_alignment(self):
        z = np.random.default_rng(0).standard_normal((30, 2))
        assert foscttm(z, z.copy()) == 0.0

    def test_swapped_pair_is_one(self):
        z1 = np.array([[0.0], [1.0]])
        z2 = np.array([[1.0], [0.0]])
        assert foscttm(z1, z2) == 1.0

    def test_random_null_near_half(self):
        rng = np.random.default_rng(1)
        values = [
            foscttm(rng.standard_normal((200, 4)), rng.standard_normal((200, 4)))
            for _ in range(20)
        ]
        assert 0.45 <= np.mean(values) <= 0.55

    def test_symmetric_in_arguments(self):
        rng = np.random.default_rng(2)
        z1 = rng.standard_normal((15, 3))
        z2 = rng.standard_normal((15, 3))
        assert foscttm(z1, z2) == foscttm(z2, z1)

    def test_rigid_motion_invariance(self):
        rng = np.random.default_rng(3)
        z1 = rng.standard_normal((20, 3))
        z2 = rng.standard_normal((20, 3))
        q = haar_orthogonal(3, rng)
        shift = rng.standard_normal(3)
        assert abs(foscttm(z1 @ q + shift, z2 @ q + shift) - foscttm(z1, z2)) < 1e-12

    def test_size_mismatch(self):
        with pytest.raises(InvalidInput):
            foscttm(np.zeros((3, 2)), np.zeros((4, 2)))


class TestNodeCorrectness:
    def test_perfect_permutation(self):
        n = 6
        perm = np.random.default_rng(4).permutation(n)
        t = np.zeros((n, n)); t[np.arange(n), perm] = 1
        assert node_correctness(t / n, t.astype(int)) == 1.0

    def test_uniform_coupling(self):
        n = 8
        t = np.eye(n, dtype=int)
        assert node_correctness(np.full((n, n), 1 / n**2), t) == pytest.approx(1 / n)

    def test_disjoint_permutation_scores_zero(self):
        n = 5
        p = np.zeros((n, n)); p[np.arange(n), (np.arange(n) + 1) % n] = 1 / n
        t = np.eye(n, dtype=int)
        assert node_correctness(p, t) == 0.0

    def test_bounded(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            p = rng.random((6, 7)); p /= p.sum()
            t = (rng.random((6, 7)) < 0.3).astype(int)
            assert 0.0 <= node_correctness(p, t) <= 1.0

    def test_non_binary_truth_rejected(self):
        with pytest.raises(InvalidInput):
            node_correctness(np.ones((2, 2)), np.full((2, 2), 0.5))


class TestTopkAccuracy:
    def test_k_equals_all_columns(self):
        rng = np.random.default_rng(6)
        p = rng.random((10, 4))
        truth = rng.integers(0, 4, 10)
        assert topk_accuracy(p, truth, 4) == 1.0

    def test_diagonal_dominant_k1(self):
        p = np.eye(5) + 0.01
        assert topk_accuracy(p, np.arange(5), 1) == 1.0

    def test_null_model_rate(self):
        rng = np.random.default_rng(7)
        hits = [
            topk_accuracy(rng.random((40, 25)), rng.integers(0, 25, 40), 3)
            for _ in range(50)
        ]
        assert abs(np.mean(hits) - 3 / 25) <= 0.05

    def test_tie_breaks_to_lowest_index(self):
        p = np.array([[0.5, 0.5, 0.1]])
        assert topk_accuracy(p, np.array([0]), 1) == 1.0
        assert topk_accuracy(p, np.array([1]), 1) == 0.0

    def test_matches_row_loop(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            n, m = rng.integers(1, 12, size=2)
            p = rng.integers(0, 3, (n, m)) / 2.0  # many ties
            truth = rng.integers(0, m, n)
            k = int(rng.integers(1, m + 1))
            cols = np.arange(m)
            hits = sum(truth[i] in np.lexsort((cols, -p[i]))[:k] for i in range(n))
            assert topk_accuracy(p, truth, k) == hits / n


class TestRmsdD:
    def _exact_instance(self, rng, n=10):
        z1 = rng.standard_normal((n, 3))
        perm = rng.permutation(n)
        z2 = np.empty_like(z1)
        z2[perm] = z1
        t = np.zeros((n, n), dtype=int); t[np.arange(n), perm] = 1
        return z1, z2, t, pairwise_euclidean(z1), pairwise_euclidean(z2)

    def test_exact_configuration_is_zero(self):
        z1, z2, t, d1, d2 = self._exact_instance(np.random.default_rng(8))
        assert rmsd_d(d1, d2, z1, z2, t) <= 1e-10

    def test_translation_shows_in_third_term(self):
        z1, z2, t, d1, d2 = self._exact_instance(np.random.default_rng(9))
        v = np.array([1.0, -2.0, 0.5])
        assert rmsd_d(d1, d2, z1, z2 + v, t) == pytest.approx(np.linalg.norm(v))

    def test_matches_three_loop_oracle(self):
        rng = np.random.default_rng(10)
        n = 7
        z1 = rng.standard_normal((n, 2))
        z2 = rng.standard_normal((n, 2))
        d1 = pairwise_euclidean(rng.standard_normal((n, 2)))
        d2 = pairwise_euclidean(rng.standard_normal((n, 2)))
        perm = rng.permutation(n)
        t = np.zeros((n, n), dtype=int); t[np.arange(n), perm] = 1

        s1 = s2 = s3 = 0.0
        for i in range(n):
            for j in range(n):
                s1 += (d1[i, j] - np.linalg.norm(z1[i] - z1[j])) ** 2
                s2 += (d2[i, j] - np.linalg.norm(z2[i] - z2[j])) ** 2
                s3 += t[i, j] * np.sum((z1[i] - z2[j]) ** 2)
        expected = np.sqrt(s1 / n**2) + np.sqrt(s2 / n**2) + np.sqrt(s3 / n)
        assert abs(rmsd_d(d1, d2, z1, z2, t) - expected) < 1e-10

    def test_common_rigid_motion_invariance(self):
        rng = np.random.default_rng(11)
        z1, z2, t, d1, d2 = self._exact_instance(rng)
        z2 = z2 + 0.1 * rng.standard_normal(z2.shape)
        base = rmsd_d(d1, d2, z1, z2, t)
        q = haar_orthogonal(3, rng)
        shift = rng.standard_normal(3)
        moved = rmsd_d(d1, d2, z1 @ q + shift, z2 @ q + shift, t)
        assert abs(moved - base) < 1e-10

    def test_non_permutation_rejected(self):
        rng = np.random.default_rng(12)
        z1, z2, t, d1, d2 = self._exact_instance(rng)
        t[0, :] = 0
        with pytest.raises(InvalidInput):
            rmsd_d(d1, d2, z1, z2, t)


class TestKnnTransfer:
    def test_exact_copy_k1(self):
        rng = np.random.default_rng(13)
        src = rng.standard_normal((20, 3))
        labels = rng.integers(0, 4, 20)
        assert np.array_equal(knn_transfer(src, labels, src.copy(), k=1), labels)

    def test_separated_blobs(self):
        rng = np.random.default_rng(14)
        src = np.vstack([rng.standard_normal((15, 2)), rng.standard_normal((15, 2)) + 50])
        labels = np.array([0] * 15 + [1] * 15)
        target = rng.standard_normal((10, 2))  # near blob 0
        assert np.all(knn_transfer(src, labels, target, k=5) == 0)

    def test_degenerate_k_gives_majority(self):
        rng = np.random.default_rng(15)
        src = rng.standard_normal((9, 2))
        labels = np.array([2, 2, 2, 2, 2, 1, 1, 1, 0])
        pred = knn_transfer(src, labels, rng.standard_normal((5, 2)), k=9)
        assert np.all(pred == 2)

    def test_vote_tie_smallest_class(self):
        src = np.array([[0.0], [2.0]])
        labels = np.array([7, 3])
        pred = knn_transfer(src, labels, np.array([[1.0]]), k=2)
        assert pred[0] == 3

    def test_matches_row_bincount(self):
        rng = np.random.default_rng(18)
        for _ in range(50):
            src = rng.integers(0, 3, (int(rng.integers(2, 15)), 2)).astype(float)
            labels = rng.choice([-3, 0, 2, 7], src.shape[0])
            target = rng.integers(0, 3, (int(rng.integers(1, 10)), 2)).astype(float)
            k = int(rng.integers(1, src.shape[0] + 1))
            classes, encoded = np.unique(labels, return_inverse=True)
            nearest = np.argsort(cdist(target, src), axis=1, kind="stable")[:, :k]
            expect = [classes[np.argmax(np.bincount(encoded[row], minlength=classes.size))]
                      for row in nearest]
            assert knn_transfer(src, labels, target, k=k).tolist() == expect

    def test_permutation_equivariant_in_target(self):
        rng = np.random.default_rng(16)
        src = rng.standard_normal((12, 2))
        labels = rng.integers(0, 3, 12)
        target = rng.standard_normal((8, 2))
        perm = rng.permutation(8)
        direct = knn_transfer(src, labels, target, k=3)
        assert np.array_equal(knn_transfer(src, labels, target[perm], k=3), direct[perm])


class TestAccuracy:
    def test_identical(self):
        assert accuracy(np.array([1, 2, 3]), np.array([1, 2, 3])) == 1.0

    def test_disjoint(self):
        assert accuracy(np.array([1, 2]), np.array([3, 4])) == 0.0

    def test_half(self):
        assert accuracy(np.array([1, 2, 3, 4]), np.array([1, 2, 0, 0])) == 0.5

    def test_length_mismatch(self):
        with pytest.raises(InvalidInput):
            accuracy(np.array([1]), np.array([1, 2]))
