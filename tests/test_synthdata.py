import numpy as np
import pytest

from jointscale import GenSpec, InvalidInput, generate, planted_pair, standardize


class TestGenerate:
    def test_seed_determinism(self):
        spec = GenSpec(kind="swiss_roll", n=300, seed=9)
        a = generate(spec)
        b = generate(spec)
        assert np.array_equal(a.x1, b.x1)
        assert np.array_equal(a.x2, b.x2)
        assert np.array_equal(a.labels, b.labels)

    @pytest.mark.parametrize("kind", ["bifurcation", "swiss_roll", "circular_frustum"])
    def test_shapes_and_labels(self, kind):
        pair = generate(GenSpec(kind=kind, n=90, p1=40, p2=60, seed=3))
        assert pair.x1.shape == (90, 40)
        assert pair.x2.shape == (90, 60)
        assert pair.latent.shape == (90, 3)
        assert np.array_equal(np.sort(np.unique(pair.labels)), [0, 1, 2])
        assert np.all(np.bincount(pair.labels) == 30)

    def test_noise_is_injected(self):
        quiet = generate(GenSpec(kind="swiss_roll", n=40, p1=10, p2=10,
                                 noise_sigma=0.0, seed=5))
        noisy = generate(GenSpec(kind="swiss_roll", n=40, p1=10, p2=10,
                                 noise_sigma=1.0, seed=5))
        assert not np.array_equal(quiet.x1, noisy.x1)

    def test_invalid_kind(self):
        with pytest.raises(InvalidInput):
            GenSpec(kind="torus", n=10).validate()

    def test_negative_seed(self):
        with pytest.raises(InvalidInput, match="seed must be >= 0"):
            GenSpec(kind="swiss_roll", n=10, seed=-1).validate()


class TestStandardize:
    def test_two_value_column(self):
        out = standardize(np.array([[1.0], [3.0]]))
        assert np.allclose(out, [[-1.0], [1.0]])

    def test_idempotent(self):
        x = np.random.default_rng(0).standard_normal((30, 5)) * 7 + 3
        once = standardize(x)
        assert np.abs(standardize(once) - once).max() < 1e-10

    def test_constant_column_zeroed(self):
        x = np.column_stack([np.full(10, 4.2), np.arange(10.0)])
        out = standardize(x)
        assert np.all(out[:, 0] == 0)

    def test_moments(self):
        x = np.random.default_rng(1).standard_normal((50, 4)) * 3 - 10
        out = standardize(x)
        assert np.abs(out.mean(axis=0)).max() < 1e-12
        assert np.abs(out.std(axis=0) - 1).max() < 1e-12


class TestPlantedPair:
    def test_exact_structure_without_noise(self):
        z1, z2, perm = planted_pair(25, 4, seed=2, noise=0.0)
        # z2[perm] must equal z1 @ Q for some orthogonal Q: check isometry
        gram1 = z1 @ z1.T
        z2u = z2[perm]
        gram2 = z2u @ z2u.T
        assert np.abs(gram1 - gram2).max() < 1e-10

    def test_determinism(self):
        a = planted_pair(10, 3, seed=4, noise=0.05)
        b = planted_pair(10, 3, seed=4, noise=0.05)
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    def test_permutation_is_valid(self):
        _, _, perm = planted_pair(30, 2, seed=5)
        assert np.array_equal(np.sort(perm), np.arange(30))
