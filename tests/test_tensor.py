from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import _oracles as tape
from grappa import gnn, tensor as T
from grappa.antoine import PARAM_RANGES, ln_p_points
from grappa.featurize import featurize
from grappa.gnn import GatLayer, GraphBatch, batch_graphs, gat_forward, row_blocks
from grappa.model import (BN_EPS, Architecture, head_raw, init_model,
                          scale_to_ranges)
from grappa.pooling import InteractionPoolParams, interaction_pool, sum_pool
from grappa.smiles import parse_smiles
from grappa.tensor import NonFiniteError, ScatterPlan, ShapeError, Tensor
from grappa.train import loss_huber, loss_mse

from _oracles import (
    TapeTensor,
    add,
    add_at_scatter,
    batch_norm,
    bitwise_equal,
    concat,
    elu,
    finite_difference_grad,
    max_rel_error,
    param,
    reference_segment_softmax,
    sigmoid,
)

GRAD_TOL = 1e-4


def check_grad(build, *shapes, seed=0, h=1e-6):
    """Compare the oracle tape's backward() against central differences for
    every input."""
    rng = np.random.default_rng(seed)
    arrays = [rng.normal(size=s) if s else np.asarray(rng.normal()) for s in shapes]
    tensors = [TapeTensor(a.copy(), requires_grad=True) for a in arrays]
    out = build(*tensors)
    out.backward()
    for k, (arr, tens) in enumerate(zip(arrays, tensors)):
        def f(x, k=k):
            args = [TapeTensor(a.copy()) for a in arrays]
            args[k] = TapeTensor(x)
            return build(*args).item()

        numeric = finite_difference_grad(f, arr.copy(), h=h)
        assert tens.grad is not None
        err = max_rel_error(tens.grad, numeric)
        assert err < GRAD_TOL, f"input {k}: rel err {err}"


def molecule_batch(molecule, num_molecules):
    """A batch whose node ``i`` belongs to molecule ``molecule[i]``, for
    ``sum_pool``, which reads only its molecule ids and their count."""
    return GraphBatch(None, None, np.asarray(molecule, dtype=np.int64),
                      np.arange(num_molecules + 1), (), None, None)


def block_batch(bounds):
    """A batch of molecules on rows ``bounds[m]:bounds[m + 1]``, for
    ``interaction_pool``, which reads only its molecule ids and blocks."""
    bounds = np.asarray(bounds)
    return GraphBatch(None, None, np.repeat(np.arange(len(bounds) - 1),
                                            np.diff(bounds)),
                      bounds, row_blocks(bounds), None, None)


def edge_batch(edge_features, plans):
    """A batch of the graph whose edges the ``(to_dst, to_src)`` plans
    group by receiving and sending node, for ``gat_forward``, which reads
    only its edge features and plans."""
    n = plans[0].num_segments
    return GraphBatch(None, np.asarray(edge_features), np.zeros(n, dtype=np.int64),
                      np.array([0, n]), (slice(0, n),), *plans)


def check_stage_grad(stage, x, params, seed=0, h=1e-6):
    """Compare a stage's backward against central differences of a weighted
    sum of its output, for its input ``x`` and every parameter.
    ``stage(x_tensor, train)`` runs the stage on ``params``, which the
    differences perturb in place."""
    x = np.array(x, dtype=float)
    out = stage(Tensor(x), True)
    weights = np.random.default_rng(seed).normal(size=out.shape)
    grads = [out.stages[-1](weights)] + [p.grad.copy() for p in params]
    for k, (arr, grad) in enumerate(zip([x] + [p.value for p in params], grads)):
        numeric = finite_difference_grad(
            lambda _: float((stage(Tensor(x), False).data * weights).sum()),
            arr, h=h)
        err = max_rel_error(grad, numeric)
        assert err < GRAD_TOL, f"input {k}: rel err {err}"


# ------------------------------------------------------------------ semantics

def test_matmul_identity():
    m = np.arange(6, dtype=float).reshape(2, 3)
    out = tape.matmul(TapeTensor(np.eye(2)), TapeTensor(m))
    np.testing.assert_array_equal(out.data, m)


def test_matmul_takes_matrices_only():
    with pytest.raises(ShapeError, match="2-D @ 2-D"):
        tape.matmul(TapeTensor(np.ones((3, 4))), TapeTensor(np.ones(4)))


# The forward is batch-invariant only while the BLAS and einsum give each row
# of a product the same bytes whatever rows run beside it; each check below
# names the assumption it pins.
INVARIANCE_ROWS = [(0, 1), (0, 2), (5, 2), (7, 13), (0, 256), (40, 1011),
                   (0, 2100)]


def test_blas_gemm_rows_are_batch_invariant():
    rng = np.random.default_rng(40)
    # Inner sizes of the forward's products: node features, edge features,
    # embedding, embedding + 2 counts, hidden width.
    for k in (24, 9, 32, 34, 16):
        for n in (16, 32):
            x, w = rng.normal(size=(2100, k)), rng.normal(size=(k, n))
            full = x @ w
            for lo, m in INVARIANCE_ROWS[1:]:
                part = x[lo : lo + m] @ w
                assert part.tobytes() == full[lo : lo + m].tobytes(), (
                    f"BLAS gemm of {m} x {k} @ {k} x {n} (M >= 2, N a multiple "
                    f"of 16) is not row-invariant: batched forwards would "
                    f"depend on the batch")


def test_blas_gemm_column_blocks_match_their_own_products():
    # One layer projects every head at once: the heads' weights side by side,
    # zero-padded to a multiple of 16 columns. Each head's columns must be
    # the bytes of its own padded product.
    rng = np.random.default_rng(43)
    for k in (24, 9, 32):
        for d in (5, 8, 16, 32):
            for heads in (2, 3, 5):
                x = rng.normal(size=(300, k))
                blocks = [rng.normal(size=(k, d)) for _ in range(heads)]
                wide = T._row_invariant_product(x, np.concatenate(blocks, axis=1))
                for h, block in enumerate(blocks):
                    own = T._row_invariant_product(x, block)
                    assert own.tobytes() == np.ascontiguousarray(
                        wide[:, h * d : (h + 1) * d]).tobytes(), (
                        f"BLAS gemm of {k} x {heads * d} differs from its "
                        f"{k} x {d} column blocks: the fused attention layer "
                        f"would not match its heads run alone")


def test_einsum_head_logits_match_per_head_matvecs():
    # The fused layer takes every head's edge logits in one einsum over
    # (E, H, d) activations; each head must get the bytes of its own.
    rng = np.random.default_rng(44)
    for d in (1, 5, 8, 16, 32):
        for heads in (1, 2, 3, 5):
            act, att = rng.normal(size=(700, heads, d)), rng.normal(size=(heads, d))
            fused = np.einsum("ehd,hd->eh", act, att)
            for h in range(heads):
                own = np.einsum("ij,j->i", np.ascontiguousarray(act[:, h]), att[h])
                assert own.tobytes() == np.ascontiguousarray(fused[:, h]).tobytes()


def test_einsum_matvec_rows_are_batch_invariant():
    rng = np.random.default_rng(41)
    for d in (8, 16, 32):
        act, att = rng.normal(size=(2100, d)), rng.normal(size=d)
        full = np.einsum("ij,j->i", act, att)
        for lo, m in INVARIANCE_ROWS:
            part = np.einsum("ij,j->i", act[lo : lo + m], att)
            assert part.tobytes() == full[lo : lo + m].tobytes(), (
                f"einsum('ij,j->i') over {m} rows of width {d} is not "
                f"row-invariant: edge attention logits would depend on "
                f"the batch")


def test_row_invariant_products_are_batch_invariant():
    # One row and three columns are the shapes of predict's head output.
    rng = np.random.default_rng(42)
    x, w = rng.normal(size=(300, 16)), rng.normal(size=(16, 3))
    full = np.ascontiguousarray(T._row_invariant_product(x, w))
    for lo, m in INVARIANCE_ROWS[:5]:
        part = np.ascontiguousarray(T._row_invariant_product(x[lo : lo + m], w))
        assert part.tobytes() == full[lo : lo + m].tobytes(), (
            f"matmul of {m} rows @ 16 x 3 differs from the same rows in a "
            f"batch of 300")


def test_concat_vectors_preserves_order():
    out = concat([TapeTensor([1.0, 2.0]), TapeTensor([3.0, 4.0, 5.0])])
    np.testing.assert_array_equal(out.data, [1, 2, 3, 4, 5])


def block_attention_reference(q, k, v, bounds, scale):
    """Row loops over each block: softmax of scaled dot products per query
    row, weights times V, summed over the block's query rows."""
    out = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        total = np.zeros(v.shape[1])
        for i in range(lo, hi):
            raw = np.array([scale * (q[i] @ k[j]) for j in range(lo, hi)])
            w = np.exp(raw - raw.max())
            w /= w.sum()
            total += sum(w[j - lo] * v[j] for j in range(lo, hi))
        out.append(total)
    return np.array(out)


def pool_stage(q, k, v, bounds):
    """``interaction_pool`` on rows ``[q | k | v]`` whose projection block
    is the identity, so Q, K and V are ``q``, ``k`` and ``v``; the logit
    scale is then 1 / sqrt(q.shape[1])."""
    x = np.hstack([q, k, v])
    return interaction_pool(Tensor(x), block_batch(bounds),
                            InteractionPoolParams(param(np.eye(x.shape[1])),
                                                  q.shape[1]))


def test_interaction_pool_matches_row_loops():
    rng = np.random.default_rng(3)
    bounds = np.array([0, 3, 4, 9])
    q, k, v = rng.normal(size=(9, 4)), rng.normal(size=(9, 4)), rng.normal(size=(9, 5))
    out = pool_stage(q, k, v, bounds)
    assert out.shape == (3, 5)
    np.testing.assert_allclose(out.data, block_attention_reference(q, k, v, bounds, 0.5),
                               rtol=1e-12, atol=1e-12)


def test_block_attention_uniform_logits_sum_values():
    # Zero logits weight a block's rows equally, so each column of weights
    # sums to one and the output is the block's row sum of V.
    rng = np.random.default_rng(4)
    v = rng.normal(size=(5, 3))
    zeros = np.zeros((5, 2))
    out = pool_stage(zeros, zeros, v, [0, 2, 5])
    np.testing.assert_allclose(out.data, [v[:2].sum(axis=0), v[2:].sum(axis=0)],
                               atol=1e-12)


def test_block_attention_key_shift_invariance():
    # Adding one vector to every key of a block shifts each query row's
    # logits by a constant, which the softmax ignores.
    rng = np.random.default_rng(5)
    bounds = [0, 4, 7]
    q, k, v = rng.normal(size=(7, 3)), rng.normal(size=(7, 3)), rng.normal(size=(7, 2))
    shifted = k.copy()
    shifted[:4] += rng.normal(size=3)
    shifted[4:] += rng.normal(size=3)
    a = pool_stage(q, k, v, bounds).data
    b = pool_stage(q, shifted, v, bounds).data
    np.testing.assert_allclose(a, b, atol=1e-12)


# Node 0 receives from nodes 1 and 2; every node also has its self-loop.
EDGE_DST = np.array([0, 0, 1, 2, 0, 1, 2])
EDGE_SRC = np.array([1, 2, 2, 0, 0, 1, 2])
EDGE_PLANS = (ScatterPlan(EDGE_DST, 3), ScatterPlan(EDGE_SRC, 3))


def one_head_layer(x, edge_features, att, plans=EDGE_PLANS):
    """``gat_forward`` with one head whose projections are the identity,
    so ``x`` and the edge features are the head's own terms."""
    x, edge_features = np.asarray(x, dtype=float), np.asarray(edge_features)
    layer = GatLayer(param(np.eye(x.shape[1])),
                     param(np.eye(edge_features.shape[1])), param([att]))
    return gat_forward(Tensor(x), edge_batch(edge_features, plans), layer)


def test_sigmoid_and_leaky_relu_points():
    assert sigmoid(TapeTensor(np.array(0.0))).item() == 0.5
    # Into node 0 the pre-activations are 3 (from 1), -1 (from 2) and 0
    # (self); the leaky ReLU keeps 3 and 0 and scales -1 to -0.2.
    _, alpha = one_head_layer([[0.0], [3.0], [-1.0]], np.zeros((7, 1)), [1.0])
    assert alpha.shape == (7, 1)
    logits = np.array([3.0, -0.2, 0.0])
    np.testing.assert_allclose(alpha[[0, 1, 4], 0],
                               np.exp(logits) / np.exp(logits).sum(), rtol=1e-15)


def test_elu_matches_definition():
    x = np.array([-2.0, -0.5, 0.0, 1.5])
    out = elu(TapeTensor(x)).data
    expected = np.where(x > 0, x, np.exp(x) - 1.0)
    np.testing.assert_allclose(out, expected)


def test_sigmoid_extreme_inputs_stay_finite():
    out = sigmoid(TapeTensor(np.array([-1000.0, 1000.0]))).data
    np.testing.assert_allclose(out, [0.0, 1.0], atol=1e-12)
    out = scale_to_ranges(Tensor([[-1000.0, 1000.0, 0.0]]),
                          {"A": [-3.0, 1.0], "B": [2.0, 7.0], "C": [0.0, 4.0]})
    np.testing.assert_allclose(out.data, [[-3.0, 7.0, 2.0]], atol=1e-12)


def test_non_finite_forward_raises():
    # The error names the op and every named input.
    with np.errstate(over="ignore"), pytest.raises(
            NonFiniteError, match=r"^non-finite value produced by mul$"):
        tape.mul(TapeTensor([1e308]), TapeTensor([10.0]))
    big = TapeTensor(np.array([1e308]))
    with np.errstate(over="ignore"), pytest.raises(NonFiniteError):
        tape.mul(big, big)
    # A stage names itself and its parameters.
    block = param(np.hstack([np.eye(2), np.eye(2), np.full((2, 2), 1e200)]),
                  ("pool.Wq", "pool.Wk", "pool.Wv"))
    with np.errstate(all="ignore"), pytest.raises(NonFiniteError) as info:
        interaction_pool(Tensor(np.full((1, 2), 1e200)), block_batch([0, 1]),
                         InteractionPoolParams(block, 2))
    assert str(info.value) == ("non-finite value produced by "
                               "interaction_pool (inputs 'pool.Wq', "
                               "'pool.Wk', 'pool.Wv')")


def _stage_calls():
    """Each stage of the chain as ``call(x, train)`` on a two-molecule batch
    of a small model, and the shape of its input."""
    model = init_model(Architecture(gat_layers=2, embed_dim=8, hidden_layers=2,
                                    hidden_width=4), seed=3)
    batch = batch_graphs([featurize(parse_smiles(s)) for s in ("CCO", "C=C")])
    n, m = batch.num_nodes, batch.num_molecules
    return {
        gat_forward: (lambda x, t: gat_forward(x, batch, model.gat[0], t),
                      batch.node_features.shape),
        sum_pool: (lambda x, t: sum_pool(x, batch, t), (n, 8)),
        interaction_pool: (
            lambda x, t: interaction_pool(x, batch, model.pool, t), (n, 8)),
        head_raw: (lambda x, t: head_raw(model, x, np.ones((m, 2)), t), (m, 8)),
        scale_to_ranges: (lambda x, t: scale_to_ranges(
            x, PARAM_RANGES, t), (m, 3)),
        ln_p_points: (lambda x, t: ln_p_points(
            Tensor(x.data + [10.0, 2000.0, -50.0]), [0, 1, 1],
            [300.0, 350.0, 400.0]), (m, 3)),
        loss_mse: (lambda x, t: loss_mse(x, np.zeros(3)), (3,)),
        loss_huber: (lambda x, t: loss_huber(x, np.zeros(3)), (3,)),
    }


@pytest.mark.parametrize("train", [False, True])
@pytest.mark.parametrize("stage", list(_stage_calls()), ids=lambda f: f.__name__)
def test_a_non_finite_input_names_its_stage(stage, train):
    # The name a reader opens, the tracer times and the error prints is
    # the stage's function.
    call, shape = _stage_calls()[stage]
    x = np.random.default_rng(len(shape)).normal(size=shape)
    x.flat[0] = np.nan
    with np.errstate(all="ignore"), pytest.raises(NonFiniteError) as info:
        call(Tensor(x), train)
    assert stage.__name__ in str(info.value).replace(":", " ").split()


def test_finite_check_allows_sums_that_overflow():
    out = concat([TapeTensor([1e308]), TapeTensor([1e308])])
    np.testing.assert_array_equal(out.data, [1e308, 1e308])
    mixed = [TapeTensor([1e308, 1e308]), TapeTensor([-1e308, -1e308])]
    assert concat(mixed).data.tolist() == [1e308, 1e308, -1e308, -1e308]
    wide = TapeTensor(np.full((3, 4), 1e308))
    assert add(wide, wide.data * 0.0).data.max() == 1e308


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_finite_check_catches_nan_and_inf(bad):
    with pytest.raises(NonFiniteError):
        add(TapeTensor([1.0, 2.0]), TapeTensor([0.0, bad]))
    with pytest.raises(NonFiniteError):
        concat([TapeTensor(np.full((2, 2), 1e308)), TapeTensor([[1.0, bad]])])
    with pytest.raises(NonFiniteError):
        sum_pool(Tensor([[bad], [1.0], [2.0]]), molecule_batch([1, 0, 1], 2))


def test_shape_errors():
    with pytest.raises(ShapeError):
        tape.matmul(TapeTensor(np.ones((2, 3))), TapeTensor(np.ones((2, 3))))
    with pytest.raises(ShapeError):
        Tensor(np.ones((2, 2, 2)))
    # One head of width 5: blocks (2, 5), (4, 5) and (1, 5).
    x, edge, tv, te, att = (np.ones((3, 2)), np.ones((7, 4)), np.ones((2, 5)),
                            np.ones((4, 5)), np.ones((1, 5)))
    gat_forward(Tensor(x), edge_batch(edge, EDGE_PLANS),
                GatLayer(param(tv), param(te), param(att)))
    for args in ((x, edge[:6], tv, te, att),
                 (x, edge, tv, te, np.ones((1, 4))),
                 (x, edge, tv, te[:3], att),
                 (x, edge, np.hstack([tv, tv]), te, att),
                 (x, edge, tv, np.hstack([te, te]), np.ones((2, 5))),
                 (x, edge, tv, te, np.ones(5)),
                 (x, edge, tv, te, np.ones((1, 1, 5))),
                 (x, edge, tv[:, :0], te[:, :0], att[:0]),
                 (x, edge, tv[0], te, att),
                 (x[:2], edge, tv, te, att),
                 (np.ones(3), edge, tv, te, att)):
        x_in, edges, *weights = args
        with pytest.raises(ShapeError):
            gat_forward(Tensor(x_in), edge_batch(edges, EDGE_PLANS),
                        GatLayer(*map(param, weights)))
    # Blocks come checked from ``gnn.row_blocks`` and tile the batch's
    # nodes; the stage checks that its input has one row per node.
    pool = InteractionPoolParams(param(np.ones((2, 6))), 2)
    for x_in in (np.ones((4, 2)), np.ones(3)):
        with pytest.raises(ShapeError):
            interaction_pool(Tensor(x_in), block_batch([0, 3]), pool)


def test_backward_requires_scalar_and_a_training_chain():
    x = Tensor(np.ones((3, 1)))
    with pytest.raises(ShapeError):
        sum_pool(x, molecule_batch([0, 1, 1], 2), train=True).backward()
    inference = sum_pool(x, molecule_batch([0, 0, 0], 1))
    assert inference.stages == (None,)
    with pytest.raises(ValueError, match="inference"):
        inference.backward()


def test_gather_and_segment_ops():
    x = TapeTensor(np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]))
    picked = tape.gather_rows(x, [2, 0, 2])
    np.testing.assert_array_equal(picked.data, [[5, 6], [1, 2], [5, 6]])
    summed = sum_pool(Tensor(picked.data), molecule_batch([0, 1, 0], 2))
    np.testing.assert_array_equal(summed.data, [[10, 12], [1, 2]])


def test_gather_rows_negative_index_grad():
    x = TapeTensor(np.arange(6.0).reshape(3, 2), requires_grad=True)
    picked = tape.gather_rows(x, [-1, 0, 2])
    tape.mean_all(tape.mul(picked, picked)).backward()
    np.testing.assert_array_equal(
        x.grad, add_at_scatter(np.array([-1, 0, 2]), picked.grad, 3))
    with pytest.raises(ShapeError):
        tape.gather_rows(x, [[0, 1]])


def test_segment_ids_out_of_range_raise():
    with pytest.raises(IndexError):
        sum_pool(Tensor(np.ones((3, 2))), molecule_batch([0, 2, 1], 2))
    for index in ([0, 2, 1], [0, -1, 1]):
        with pytest.raises(IndexError):
            ScatterPlan(index, 2)


# The softmax inside ``gat_forward`` runs over each node's incoming edges:
# a segment softmax with ``dst`` as the segment id.

@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_segment_softmax_rejects_non_finite_logits(bad):
    edge = np.zeros((7, 2))
    edge[3, 1] = bad
    with np.errstate(invalid="ignore"), \
            pytest.raises(NonFiniteError, match="non-finite logits"):
        one_head_layer(np.ones((3, 2)), edge, np.ones(2))
    # Finite inputs whose sum overflows.
    with np.errstate(over="ignore"), pytest.raises(NonFiniteError):
        one_head_layer(np.full((3, 2), 1e308), np.zeros((7, 2)), np.ones(2))


def test_segment_softmax_groups_sum_to_one():
    rng = np.random.default_rng(2)
    heads = 3
    x, edge = rng.normal(size=(3, 4)), rng.normal(size=(7, 2))
    out, alpha = gat_forward(Tensor(x), edge_batch(edge, EDGE_PLANS), GatLayer(
        param(np.hstack([rng.normal(size=(4, 5)) for _ in range(heads)])),
        param(np.hstack([rng.normal(size=(2, 5)) for _ in range(heads)])),
        param(np.stack([rng.normal(size=5) for _ in range(heads)]))))
    assert out.shape == (3, 5) and alpha.shape == (7, heads)
    for weights in alpha.T:
        np.testing.assert_allclose(np.bincount(EDGE_DST, weights=weights),
                                   np.ones(3), atol=1e-12)


# ------------------------------------------------------------- gradient checks

def test_grad_add_broadcast():
    check_grad(lambda a, b: tape.mean_all(tape.mul(add(a, b), add(a, b))),
               (3, 4), (4,))


def test_grad_sub_mul():
    check_grad(lambda a, b: tape.mean_all(tape.mul(tape.sub(a, b), tape.mul(b, b))),
               (3, 3), (3, 3), seed=1)


def test_grad_matmul():
    check_grad(lambda a, b: tape.mean_all(tape.mul(tape.matmul(a, b),
                                                   tape.matmul(a, b))),
               (2, 3), (3, 4), seed=2)


def test_grad_concat_axis1():
    weights = np.arange(12.0).reshape(3, 4)

    def build(a, b):
        joined = concat([a, b], axis=1)
        return tape.mean_all(tape.mul(tape.mul(joined, joined), weights))

    check_grad(build, (3, 2), (3, 2), seed=4)


def test_grad_gather_segment_pipeline():
    idx = np.array([0, 1, 1, 2, 0])
    seg = np.array([0, 0, 1, 2, 2])

    def build(x):
        rows = tape.gather_rows(x, idx)
        pooled = tape.segment_sum(rows, seg, 3)
        return tape.mean_all(tape.mul(pooled, pooled))

    check_grad(build, (3, 4), seed=6)


def test_grad_gat_forward():
    rng = np.random.default_rng(7)
    edge = rng.normal(size=(7, 2))
    # The seed gives edges on both sides of the leaky ReLU's kink in each
    # head.
    shapes = [(3, 5), (5, 4), (5, 4), (2, 4), (2, 4), (4,), (4,)]
    draw = np.random.default_rng(8)
    x, v0, v1, e0, e1, a0, a1 = (draw.normal(size=s) for s in shapes)
    for v, e in ((v0, e0), (v1, e1)):
        pre = (x @ v)[EDGE_DST] + (x @ v)[EDGE_SRC] + edge @ e
        assert (pre < 0).any() and (pre > 0).any() and np.abs(pre).min() > 1e-4
    batch = edge_batch(edge, EDGE_PLANS)
    layer = GatLayer(param(np.hstack([v0, v1])), param(np.hstack([e0, e1])),
                     param(np.stack([a0, a1])))
    check_stage_grad(lambda t, train: gat_forward(t, batch, layer, train)[0],
                     x, [layer.theta_v, layer.theta_e, layer.att], seed=8)


def test_grad_interaction_pool():
    rng = np.random.default_rng(8)
    batch = block_batch([0, 3, 4, 6])
    # Keys of width 3 and values of width 5.
    pool = InteractionPoolParams(param(np.hstack(
        [rng.normal(size=s) for s in ((4, 3), (4, 3), (4, 5))])), 3)
    check_stage_grad(lambda t, train: interaction_pool(t, batch, pool, train),
                     rng.normal(size=(6, 4)), [pool.qkv], seed=8)


def test_grad_activations():
    check_grad(lambda x: tape.mean_all(elu(x)), (4, 3), seed=10)
    check_grad(lambda x: tape.mean_all(tape.mul(sigmoid(x), sigmoid(x))),
               (4, 3), seed=11)
    check_grad(lambda x: tape.mean_all(tape.huber(x, 0.5)), (4, 3), seed=13)


def test_grad_reductions():
    check_grad(lambda x: tape.mean_all(tape.mul(x, x)), (5, 2), seed=14)
    batch = molecule_batch([1, 0, 1, 1], 2)
    check_stage_grad(lambda t, train: sum_pool(t, batch, train),
                     np.random.default_rng(15).normal(size=(4, 3)), [], seed=15)


def test_grad_simple_products():
    x = TapeTensor(np.array(2.0), requires_grad=True)
    y = TapeTensor(np.array(3.0), requires_grad=True)
    tape.mul(x, y).backward()
    assert x.grad == pytest.approx(3.0)
    assert y.grad == pytest.approx(2.0)


def test_grad_sigmoid_at_zero():
    x = TapeTensor(np.array(0.0), requires_grad=True)
    sigmoid(x).backward()
    assert x.grad == pytest.approx(0.25)


# ------------------------------------------------------------------ batch norm

def test_batch_norm_infer_identity():
    x = np.random.default_rng(0).normal(size=(4, 3))
    with tape.recording(False):
        out = batch_norm(TapeTensor(x), TapeTensor(np.ones(3)), TapeTensor(np.zeros(3)),
                         np.zeros(3), np.ones(3))
    np.testing.assert_allclose(out.data, x, atol=1e-5)


def test_batch_norm_follows_the_tape():
    rng = np.random.default_rng(23)
    x = TapeTensor(rng.normal(size=(7, 16)), requires_grad=True)
    gamma = TapeTensor(rng.normal(size=16), requires_grad=True)
    beta = TapeTensor(rng.normal(size=16), requires_grad=True)
    running_mean = rng.normal(size=16)
    running_var = rng.uniform(0.5, 2.0, size=16)
    saved = running_mean.copy(), running_var.copy()
    with tape.recording(False):
        out = batch_norm(x, gamma, beta, running_mean, running_var)
    # Not recording: the running statistics normalize, stay as they were,
    # and the result has no gradient.
    want = (gamma.data * ((x.data - saved[0]) / np.sqrt(saved[1] + BN_EPS))
            + beta.data)
    np.testing.assert_allclose(out.data, want, rtol=1e-12)
    assert not out.requires_grad
    assert np.array_equal(running_mean, saved[0])
    assert np.array_equal(running_var, saved[1])
    # Recording: the batch normalizes and the running statistics move.
    out = batch_norm(x, gamma, beta, running_mean, running_var)
    np.testing.assert_allclose(out.data.mean(axis=0), beta.data, atol=1e-12)
    assert out.requires_grad
    assert not np.array_equal(running_mean, saved[0])
    assert not np.array_equal(running_var, saved[1])


def test_batch_norm_train_constant_column():
    out = batch_norm(TapeTensor([[5.0], [5.0], [5.0]]), TapeTensor(np.ones(1)),
                     TapeTensor(np.zeros(1)), np.zeros(1), np.ones(1))
    np.testing.assert_allclose(out.data, np.zeros((3, 1)), atol=1e-9)


def test_batch_norm_train_two_point_batch():
    out = batch_norm(TapeTensor([[1.0], [3.0]]), TapeTensor(np.ones(1)),
                     TapeTensor(np.zeros(1)), np.zeros(1), np.ones(1))
    np.testing.assert_allclose(out.data, [[-1.0], [1.0]], atol=1e-4)


def test_batch_norm_updates_running_stats():
    running_mean, running_var = np.zeros(1), np.ones(1)
    x = np.array([[1.0], [3.0]])
    batch_norm(TapeTensor(x), TapeTensor(np.ones(1)), TapeTensor(np.zeros(1)),
               running_mean, running_var)
    assert running_mean[0] == pytest.approx(0.9 * 0.0 + 0.1 * 2.0)
    # Unbiased batch variance: 2 * biased (B=2).
    assert running_var[0] == pytest.approx(0.9 * 1.0 + 0.1 * 2.0)


def test_batch_norm_train_rejects_singleton_batch():
    with pytest.raises(ShapeError):
        batch_norm(TapeTensor(np.ones((1, 2))), TapeTensor(np.ones(2)),
                   TapeTensor(np.zeros(2)), np.zeros(2), np.ones(2))


def test_batch_norm_gradients():
    rng = np.random.default_rng(21)
    mean = rng.normal(size=3)
    var = rng.uniform(0.5, 2.0, size=3)
    weights = rng.normal(size=(4, 3))

    def build(x, gamma, beta):
        out = batch_norm(x, gamma, beta, mean.copy(), var.copy())
        return tape.mean_all(tape.mul(out, TapeTensor(weights)))

    check_grad(build, (4, 3), (3,), (3,), seed=22)


# ---------------------------------------------------------------- determinism

def test_repeated_backward_is_bitwise_identical():
    rng = np.random.default_rng(30)
    qkv = param(np.hstack([rng.normal(size=(4, 3)) for _ in range(3)]))
    x = Tensor(rng.normal(size=(5, 4)))
    pooled = interaction_pool(x, block_batch([0, 2, 5]),
                              InteractionPoolParams(qkv, 3), train=True)
    out = scale_to_ranges(pooled, dict.fromkeys("ABC", [-1.0, 2.0]), train=True)
    loss = Tensor(out.data.sum(), out.stages + (lambda g: g * np.ones((2, 3)),))
    first = [loss.backward(), qkv.grad.copy()]
    assert all(np.isfinite(a).all() for a in first)
    second = [loss.backward(), qkv.grad]
    assert all(a.tobytes() == b.tobytes() for a, b in zip(first, second))


def test_constants_get_no_gradient():
    a = TapeTensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
    w = TapeTensor(np.array([1.0, 2.0, 3.0]))
    tape.mean_all(tape.mul(a, w)).backward()
    np.testing.assert_allclose(a.grad, [1 / 3, 2 / 3, 1.0])
    assert w.grad is None


def test_grad_accumulates_across_shared_uses():
    x = TapeTensor(np.array(3.0), requires_grad=True)
    out = tape.mul(x, x)  # both parents are the same tensor
    out.backward()
    assert x.grad == pytest.approx(6.0)


def test_backward_keeps_every_grad_in_its_own_buffer():
    # Each add hands its upstream array itself to both parents: add(x, x)
    # twice to x, add(x, z) to x and z, add(y, ...) to y; x, y and z keep
    # accumulating afterwards. No stored grad may alias another or be
    # changed through one.
    def build(x, w):
        y = add(x, x)
        z = add(y, tape.matmul(y, w))
        s = add(x, z)
        zy = tape.mul(z, y)
        return tape.mean_all(tape.mul(zy, s)), (y, z, s, zy)

    check_grad(lambda x, w: build(x, w)[0], (3, 2), (2, 2), seed=31)

    rng = np.random.default_rng(31)
    x = TapeTensor(rng.normal(size=(3, 2)), requires_grad=True)
    w = TapeTensor(rng.normal(size=(2, 2)), requires_grad=True)
    loss, (y, z, s, zy) = build(x, w)
    loss.backward()
    grads = [t.grad for t in (x, w, y, z, s, zy)]
    for i, a in enumerate(grads):
        for b in grads[i + 1:]:
            assert not np.shares_memory(a, b)
    n = z.size
    np.testing.assert_allclose(s.grad, zy.data / n, rtol=1e-14)
    np.testing.assert_allclose(zy.grad, s.data / n, rtol=1e-14)
    gz = (y.data * s.data + zy.data) / n
    np.testing.assert_allclose(z.grad, gz, rtol=1e-13)
    gy = z.data * s.data / n + gz + gz @ w.data.T
    np.testing.assert_allclose(y.grad, gy, rtol=1e-13)
    np.testing.assert_allclose(x.grad, s.grad + 2 * gy, rtol=1e-13)


# ------------------------------------------------------ scatter property tests

FLOATS = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


@st.composite
def scatter_cases(draw, width=None, min_rows=0):
    """Unsorted segment ids with repeats; some segments may stay empty."""
    num_segments = draw(st.integers(1, 7))
    index = draw(st.lists(st.integers(0, num_segments - 1),
                          min_size=min_rows, max_size=24))
    shape = (len(index),) if width is None else (len(index), width)
    values = draw(hnp.arrays(np.float64, shape, elements=FLOATS))
    return np.array(index, dtype=np.int64), values, num_segments


@settings(deadline=None)
@given(st.one_of(scatter_cases(), scatter_cases(width=3)))
def test_sum_pool_matches_add_at(case):
    # A vector of values sums as a one-column matrix.
    index, values, n = case
    want = add_at_scatter(index, values, n)
    columns = values if values.ndim == 2 else values[:, None]
    out = sum_pool(Tensor(columns), molecule_batch(index, n)).data
    assert bitwise_equal(out.reshape(want.shape), want)


@settings(deadline=None)
@given(st.one_of(scatter_cases(), scatter_cases(width=3)))
def test_gather_rows_vjp_matches_add_at(case):
    index, upstream, n = case
    x = TapeTensor(np.ones((n,) + upstream.shape[1:]), requires_grad=True)
    (grad,) = tape.gather_rows(x, index)._vjp(upstream)
    assert bitwise_equal(grad, add_at_scatter(index, upstream, n))


@st.composite
def plan_cases(draw):
    """Unsorted segment ids with repeats, which cover every segment or
    leave some empty, and (R,), (R, k) or (R, H, d) values."""
    num_segments = draw(st.integers(1, 7))
    index = draw(st.lists(st.integers(0, num_segments - 1), max_size=24))
    if draw(st.booleans()):
        index = draw(st.permutations(list(range(num_segments)) + index))
    tail = draw(st.sampled_from([(), (1,), (3,), (2, 3)]))
    values = draw(hnp.arrays(np.float64, (len(index),) + tail,
                             elements=FLOATS))
    return np.array(index, dtype=np.int64), values, num_segments


@settings(deadline=None)
@given(plan_cases())
def test_scatter_plan_sum_is_add_at(case):
    index, values, n = case
    plan = ScatterPlan(index, n)
    want = add_at_scatter(index, values, n)
    assert bitwise_equal(plan.sum(values), want)
    # Its kept flat index gives the same bytes again.
    assert bitwise_equal(plan.sum(values), want)
    assert plan.counts.tolist() == [index.tolist().count(s) for s in range(n)]


@settings(deadline=None)
@given(plan_cases())
def test_scatter_plan_max_is_maximum_at_or_refused(case):
    index, values, n = case
    plan = ScatterPlan(index, n)
    if len(set(index.tolist())) < n:
        for _ in range(2):  # a refusal leaves nothing half built
            with pytest.raises(ShapeError, match="has no row"):
                plan.max(values)
        return
    want = np.full((n,) + values.shape[1:], -np.inf)
    np.maximum.at(want, index, values)
    assert bitwise_equal(plan.max(values), want)
    assert bitwise_equal(plan.max(values), want)


@settings(deadline=None)
@given(st.integers(1, 7), st.lists(st.integers(0, 6), max_size=8),
       st.sampled_from([-1, -5, 0, 3]), st.data())
def test_scatter_plan_refuses_an_id_out_of_range(n, ids, beyond, data):
    bad = beyond if beyond < 0 else n + beyond
    ids = [i % n for i in ids]
    ids.insert(data.draw(st.integers(0, len(ids))), bad)
    with pytest.raises(IndexError, match="out of range"):
        ScatterPlan(ids, n)


@pytest.mark.parametrize("tail", [(), (3,), (2, 3)])
@pytest.mark.parametrize("n", [0, 1, 4])
def test_scatter_plan_sums_no_rows_to_float_zeros(n, tail):
    out = ScatterPlan([], n).sum(np.empty((0,) + tail))
    assert bitwise_equal(out, np.zeros((n,) + tail))


@st.composite
def softmax_cases(draw):
    """Graphs of width-1 rows whose every node has an incoming edge: ``dst``
    covers every node, shuffled, with repeats; ``src`` is arbitrary."""
    num_nodes = draw(st.integers(1, 7))
    extra = draw(st.lists(st.integers(0, num_nodes - 1), max_size=17))
    dst = np.array(draw(st.permutations(list(range(num_nodes)) + extra)),
                   dtype=np.int64)
    src = np.array(draw(st.lists(st.integers(0, num_nodes - 1),
                                 min_size=len(dst), max_size=len(dst))),
                   dtype=np.int64)
    xv = draw(hnp.arrays(np.float64, num_nodes, elements=st.floats(-1e3, 1e3)))
    edge = draw(hnp.arrays(np.float64, len(dst), elements=st.floats(-30, 30)))
    upstream = draw(hnp.arrays(np.float64, num_nodes, elements=FLOATS))
    return dst, src, xv, edge, upstream, num_nodes


@settings(deadline=None)
@given(softmax_cases())
def test_segment_softmax_matches_reference(case):
    # With width 1, identity projections, att = [1] and slope 1 the logits
    # are the pre-activations themselves, and the upstream of each weight is
    # g[dst] * xv[src], summed over its one column (which turns -0.0 into
    # 0.0). The edge features are the identity and the edge weights a column
    # holding the edge terms, so the gradient of that column is the logits'
    # gradient, edge by edge.
    dst, src, xv, edge, g, n = case
    edge_weights = param(edge[:, None])
    layer = GatLayer(param(np.ones((1, 1))), edge_weights, param(np.ones((1, 1))))
    plans = (ScatterPlan(dst, n), ScatterPlan(src, n))
    with mock.patch.object(gnn, "LEAKY_SLOPE", 1.0):
        out, alpha = gat_forward(Tensor(xv[:, None]),
                                 edge_batch(np.eye(len(dst)), plans),
                                 layer, train=True)
        out.stages[-1](g[:, None])
    logits = xv[dst] + xv[src] + edge
    ref, ref_vjp = reference_segment_softmax(logits, dst, n,
                                             g[dst] * xv[src] + 0.0)
    assert bitwise_equal(alpha[:, 0], ref)
    assert bitwise_equal(out.data, add_at_scatter(dst, (ref * xv[src])[:, None], n))
    assert bitwise_equal(edge_weights.grad[:, 0], ref_vjp + 0.0)


@settings(deadline=None)
@given(softmax_cases(), st.integers(0, 6))
def test_segment_softmax_rejects_an_empty_segment(case, empty):
    # The softmax peak is the plan's maximum, which needs a row (here an
    # incoming edge) in every segment.
    dst, src, xv, edge, _, n = case
    keep = dst != empty % n
    plans = (ScatterPlan(dst[keep], n), ScatterPlan(src[keep], n))
    layer = GatLayer(param(np.ones((1, 1))), param(np.ones((1, 1))),
                     param(np.ones((1, 1))))
    with pytest.raises(ShapeError, match="has no row"):
        gat_forward(Tensor(xv[:, None]), edge_batch(edge[keep, None], plans),
                    layer)
