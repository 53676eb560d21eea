import numpy as np
import pytest

from grappa.featurize import featurize
from grappa.gnn import batch_graphs
from grappa.model import Architecture, init_model
from grappa.pooling import (
    InteractionPoolParams,
    interaction_pool,
    sum_pool,
)
from grappa.smiles import parse_smiles
from grappa.tensor import Tensor

from _oracles import (
    finite_difference_grad,
    max_rel_error,
    naive_interaction_pool,
    param,
    weighted_mean,
)


def random_params(rng, dim=6):
    """Wq, Wk and Wv of shape (dim, dim), drawn in that order."""
    return InteractionPoolParams(
        param(np.hstack([rng.normal(size=(dim, dim)) for _ in range(3)])), dim)


def projections(params):
    """The values of Wq, Wk and Wv: the block split at the key width."""
    block, k = params.qkv.value, params.key_width
    return block[:, :k], block[:, k : 2 * k], block[:, 2 * k :]


def batch_of(*sizes):
    """A batch of carbon chains with the given atom counts; the readouts
    only use its molecule ids and row bounds."""
    return batch_graphs([featurize(parse_smiles("C" * n)) for n in sizes])


def test_sum_pool_single_row():
    x = np.array([[1.0, -2.0, 3.0]])
    np.testing.assert_array_equal(sum_pool(Tensor(x), batch_of(1)).data, x)


def test_sum_pool_of_ones():
    out = sum_pool(Tensor(np.ones((8, 4))), batch_of(5, 3))
    np.testing.assert_array_equal(out.data, [[5.0] * 4, [3.0] * 4])


def test_sum_pool_permutation_invariance():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(7, 5))
    batch = batch_of(7)
    base = sum_pool(Tensor(x), batch).data
    for _ in range(5):
        shuffled = x[rng.permutation(7)]
        np.testing.assert_allclose(sum_pool(Tensor(shuffled), batch).data, base,
                                   atol=1e-9)


def test_empty_graph_rejected():
    with pytest.raises(ValueError):
        batch_graphs([])
    with pytest.raises(ValueError):
        sum_pool(Tensor(np.zeros((0, 4))), batch_of(1))
    rng = np.random.default_rng(1)
    with pytest.raises(ValueError):
        interaction_pool(Tensor(np.zeros((0, 6))), batch_of(1),
                         random_params(rng))


def test_interaction_pool_single_row_is_value_projection():
    rng = np.random.default_rng(2)
    params = random_params(rng, dim=6)
    x = rng.normal(size=(1, 6))
    out = interaction_pool(Tensor(x), batch_of(1), params)
    np.testing.assert_allclose(out.data, x @ projections(params)[2], atol=1e-12)


def test_uniform_attention_collapses_to_sum_pool():
    rng = np.random.default_rng(3)
    dim = 6
    params = InteractionPoolParams(
        param(np.hstack([np.zeros((dim, 2 * dim)), np.eye(dim)])), dim)
    x = rng.normal(size=(9, dim))
    batch = batch_of(5, 4)
    out = interaction_pool(Tensor(x), batch, params)
    np.testing.assert_allclose(out.data, sum_pool(Tensor(x), batch).data,
                               atol=1e-12)


def test_matches_naive_reimplementation():
    rng = np.random.default_rng(4)
    params = random_params(rng, dim=32)
    sizes = (4, 1, 6, 3)
    x = rng.normal(size=(sum(sizes), 32))
    out = interaction_pool(Tensor(x), batch_of(*sizes), params)
    bounds = np.cumsum((0,) + sizes)
    for m, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
        oracle = naive_interaction_pool(x[lo:hi], *projections(params))
        np.testing.assert_allclose(out.data[m], oracle, atol=1e-10)


def test_attention_weight_rows_sum_to_one():
    # With a constant first feature that Wv copies alone into the first
    # output column, that column is the sum of all attention weights of the
    # molecule: its row count exactly when every row of weights sums to one.
    rng = np.random.default_rng(5)
    params = random_params(rng, dim=8)
    wv = projections(params)[2]
    wv[:] = 0.0
    wv[0, 0] = 1.0
    x = rng.normal(size=(10, 8))
    x[:, 0] = 1.0
    out = interaction_pool(Tensor(x), batch_of(6, 1, 3), params)
    np.testing.assert_allclose(out.data[:, 0], [6.0, 1.0, 3.0], atol=1e-12)


def test_interaction_pool_permutation_invariance():
    rng = np.random.default_rng(6)
    params = random_params(rng, dim=8)
    x = rng.normal(size=(6, 8))
    batch = batch_of(6)
    base = interaction_pool(Tensor(x), batch, params).data
    for _ in range(5):
        shuffled = x[rng.permutation(6)]
        out = interaction_pool(Tensor(shuffled), batch, params).data
        np.testing.assert_allclose(out, base, atol=1e-9)


@pytest.mark.parametrize("interaction", [True, False], ids=["interaction", "sum"])
def test_gradients_match_finite_differences(interaction):
    rng = np.random.default_rng(7)
    params = random_params(rng, dim=5)
    batch = batch_of(4, 1, 3)
    x = rng.normal(size=(8, 5))
    weights = rng.normal(size=(3, 5))

    def forward(train=False):
        pooled = interaction_pool(Tensor(x), batch, params, train) \
            if interaction else sum_pool(Tensor(x), batch, train)
        return weighted_mean(pooled, weights)

    analytic = {"x": forward(train=True).backward()}
    arrays = {"x": x}
    if interaction:
        analytic["qkv"], arrays["qkv"] = params.qkv.grad, params.qkv.value
    for name, arr in arrays.items():
        # The differences perturb each array in place.
        numeric = finite_difference_grad(lambda _: forward().item(), arr)
        err = max_rel_error(analytic[name], numeric)
        assert err < 1e-4, f"{name}: rel err {err}"


def test_readout_projections_lie_in_one_block():
    # Keys of width 2 and values of width 3: the block splits at the key
    # width, not in equal thirds.
    rng = np.random.default_rng(17)
    wq, wk, wv = (rng.normal(size=(4, w)) for w in (2, 2, 3))
    params = InteractionPoolParams(param(np.hstack([wq, wk, wv])), 2)
    assert params.qkv.value.shape == (4, 7)
    sizes = (3, 1, 2)
    x = rng.normal(size=(sum(sizes), 4))
    out = interaction_pool(Tensor(x), batch_of(*sizes), params)
    assert out.shape == (3, 3)
    bounds = np.cumsum((0,) + sizes)
    for m, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
        np.testing.assert_allclose(
            out.data[m], naive_interaction_pool(x[lo:hi], wq, wk, wv),
            atol=1e-12)


def test_init_shapes_and_names():
    model = init_model(Architecture(), seed=8)
    block = model.pool.qkv
    assert block.name == ("pool.Wq", "pool.Wk", "pool.Wv")
    assert model.pool.key_width == 32
    assert block.value.shape == block.grad.shape == (32, 96)
    for i, key in enumerate(("Wq", "Wk", "Wv")):
        value = model.params[f"pool.{key}"]
        assert value.shape == (32, 32)
        cols = slice(32 * i, 32 * (i + 1))
        assert np.shares_memory(block.value[:, cols], value)
        assert np.array_equal(block.value[:, cols], value)
        assert np.shares_memory(block.grad[:, cols], model.grads[f"pool.{key}"])
