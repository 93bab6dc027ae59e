import numpy as np
import pytest

from fedsim import NumericError, ParamVector
from fedsim.params import linear_combination
from helpers import make_vec, random_vectors


class TestParamVector:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(NumericError):
            make_vec([1.0, bad])

    def test_values_are_read_only(self):
        v = make_vec([1.0, 2.0])
        with pytest.raises(ValueError):
            v.values[0] = 5.0

    def test_converts_to_float64(self):
        v = make_vec(np.array([1, 2], dtype=np.int32))
        assert v.values.dtype == np.float64

    def test_flattens_and_copies(self):
        source = np.array([[1.0, 2.0], [3.0, 4.0]])
        v = ParamVector(source)
        source[0, 0] = 9.0
        assert v.values.shape == (4,) and len(v) == 4
        assert np.array_equal(v.values, [1.0, 2.0, 3.0, 4.0])

    def test_with_values_builds_new_vector(self):
        v = make_vec([1.0, 2.0])
        w = v.with_values(np.array([3.0, 4.0]))
        assert np.array_equal(w.values, [3.0, 4.0])
        assert np.array_equal(v.values, [1.0, 2.0])


class TestLinearCombination:
    """The unchecked ordered sum: its callers check their inputs, and
    ``Aggregator.aggregate`` checks what a server step makes of it."""

    def test_symmetric_average(self):
        out = linear_combination([make_vec([0, 0]), make_vec([2, 2])], [0.5, 0.5])
        assert np.array_equal(out, [1.0, 1.0])

    def test_single_vector_identity(self):
        out = linear_combination([make_vec([3, -1])], [1.0])
        assert np.array_equal(out, [3.0, -1.0])

    def test_weighted_sum_hand_value(self):
        out = linear_combination([make_vec([1]), make_vec([4])], [0.75, 0.25])
        assert np.array_equal(out, [1.75])

    def test_permutation_of_pairs_is_invariant(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            vectors = random_vectors(rng, 5, 17)
            coeffs = rng.normal(size=5).tolist()
            perm = rng.permutation(5)
            a = linear_combination(vectors, coeffs)
            b = linear_combination([vectors[k] for k in perm], [coeffs[k] for k in perm])
            assert np.allclose(a, b, rtol=0, atol=1e-12)

