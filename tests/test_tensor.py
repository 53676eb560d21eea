import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from grappa import tensor as T
from grappa.tensor import NonFiniteError, ScatterPlan, ShapeError, Tensor

from _oracles import (
    add_at_scatter,
    bitwise_equal,
    finite_difference_grad,
    max_rel_error,
    reference_segment_softmax,
)

GRAD_TOL = 1e-4


def check_grad(build, *shapes, seed=0, h=1e-6):
    """Compare backward() against central differences for every input."""
    rng = np.random.default_rng(seed)
    arrays = [rng.normal(size=s) if s else np.asarray(rng.normal()) for s in shapes]
    tensors = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    out = build(*tensors)
    out.backward()
    for k, (arr, tens) in enumerate(zip(arrays, tensors)):
        def f(x, k=k):
            args = [Tensor(a.copy()) for a in arrays]
            args[k] = Tensor(x)
            return build(*args).item()

        numeric = finite_difference_grad(f, arr.copy(), h=h)
        assert tens.grad is not None
        err = max_rel_error(tens.grad, numeric)
        assert err < GRAD_TOL, f"input {k}: rel err {err}"


# ------------------------------------------------------------------ semantics

def test_matmul_identity():
    m = np.arange(6, dtype=float).reshape(2, 3)
    out = T.matmul(Tensor(np.eye(2)), Tensor(m))
    np.testing.assert_array_equal(out.data, m)


def test_matmul_takes_matrices_only():
    with pytest.raises(ShapeError, match="2-D @ 2-D"):
        T.matmul(Tensor(np.ones((3, 4))), Tensor(np.ones(4)))


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
                wide = T._row_invariant_product(x, blocks)
                for h, block in enumerate(blocks):
                    own = T._row_invariant_product(x, [block])
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


def test_matmul_rows_are_batch_invariant():
    # One row and three columns are the shapes of predict's head output.
    rng = np.random.default_rng(42)
    x, w = Tensor(rng.normal(size=(300, 16))), Tensor(rng.normal(size=(16, 3)))
    full = T.matmul(x, w).data
    for lo, m in INVARIANCE_ROWS[:5]:
        part = T.matmul(Tensor(x.data[lo : lo + m]), w).data
        assert part.flags.c_contiguous
        assert part.tobytes() == full[lo : lo + m].tobytes(), (
            f"matmul of {m} rows @ 16 x 3 differs from the same rows in a "
            f"batch of 300")


def test_concat_vectors_preserves_order():
    out = T.concat([Tensor([1.0, 2.0]), Tensor([3.0, 4.0, 5.0])])
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


def test_block_attention_sum_matches_row_loops():
    rng = np.random.default_rng(3)
    bounds = np.array([0, 3, 4, 9])
    q, k, v = rng.normal(size=(9, 4)), rng.normal(size=(9, 4)), rng.normal(size=(9, 5))
    out = T.block_attention_sum(Tensor(q), Tensor(k), Tensor(v), bounds, 0.5)
    assert out.shape == (3, 5)
    np.testing.assert_allclose(out.data, block_attention_reference(q, k, v, bounds, 0.5),
                               rtol=1e-12, atol=1e-12)


def test_block_attention_uniform_logits_sum_values():
    # Zero logits weight a block's rows equally, so each column of weights
    # sums to one and the output is the block's row sum of V.
    rng = np.random.default_rng(4)
    v = rng.normal(size=(5, 3))
    zeros = Tensor(np.zeros((5, 2)))
    out = T.block_attention_sum(zeros, zeros, Tensor(v), [0, 2, 5], 1.0)
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
    a = T.block_attention_sum(Tensor(q), Tensor(k), Tensor(v), bounds, 0.7).data
    b = T.block_attention_sum(Tensor(q), Tensor(shifted), Tensor(v), bounds, 0.7).data
    np.testing.assert_allclose(a, b, atol=1e-12)


# Node 0 receives from nodes 1 and 2; every node also has its self-loop.
EDGE_DST = np.array([0, 0, 1, 2, 0, 1, 2])
EDGE_SRC = np.array([1, 2, 2, 0, 0, 1, 2])
EDGE_PLAN = ScatterPlan(EDGE_DST, EDGE_SRC, 3)


def one_head_layer(x, edge_features, att, plan=EDGE_PLAN, slope=0.2):
    """``gat_layer_sum`` with one head whose projections are the identity,
    so ``x`` and the edge features are the head's own terms."""
    x, edge_features = np.asarray(x, dtype=float), np.asarray(edge_features)
    return T.gat_layer_sum(x, edge_features, [np.eye(x.shape[1])],
                           [np.eye(edge_features.shape[1])], [att], plan, slope)


def test_sigmoid_and_leaky_relu_points():
    assert T.sigmoid(Tensor(np.array(0.0))).item() == 0.5
    # Into node 0 the pre-activations are 3 (from 1), -1 (from 2) and 0
    # (self); the leaky ReLU keeps 3 and 0 and scales -1 to -0.2.
    _, alpha = one_head_layer([[0.0], [3.0], [-1.0]], np.zeros((7, 1)), [1.0])
    assert alpha.shape == (7, 1)
    logits = np.array([3.0, -0.2, 0.0])
    np.testing.assert_allclose(alpha[[0, 1, 4], 0],
                               np.exp(logits) / np.exp(logits).sum(), rtol=1e-15)
    # The maximum form of the LeakyReLU needs a slope in [0, 1].
    for slope in (-0.1, 1.5):
        with pytest.raises(ValueError, match="slope"):
            one_head_layer([[0.0], [3.0], [-1.0]], np.zeros((7, 1)), [1.0],
                           slope=slope)


def test_elu_matches_definition():
    x = np.array([-2.0, -0.5, 0.0, 1.5])
    out = T.elu(Tensor(x)).data
    expected = np.where(x > 0, x, np.exp(x) - 1.0)
    np.testing.assert_allclose(out, expected)


def test_sigmoid_extreme_inputs_stay_finite():
    out = T.sigmoid(Tensor(np.array([-1000.0, 1000.0]))).data
    np.testing.assert_allclose(out, [0.0, 1.0], atol=1e-12)


def test_non_finite_forward_raises():
    with np.errstate(over="ignore"), pytest.raises(NonFiniteError):
        T.mul(Tensor([1e308]), Tensor([10.0]))
    big = Tensor(np.array([1e308]))
    with np.errstate(over="ignore"), pytest.raises(NonFiniteError):
        T.mul(big, big)


def test_finite_check_allows_sums_that_overflow():
    out = T.concat([Tensor([1e308]), Tensor([1e308])])
    np.testing.assert_array_equal(out.data, [1e308, 1e308])
    mixed = [Tensor([1e308, 1e308]), Tensor([-1e308, -1e308])]
    assert T.concat(mixed).data.tolist() == [1e308, 1e308, -1e308, -1e308]
    wide = Tensor(np.full((3, 4), 1e308))
    assert T.add(wide, wide.data * 0.0).data.max() == 1e308


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_finite_check_catches_nan_and_inf(bad):
    with pytest.raises(NonFiniteError):
        T.add(Tensor([1.0, 2.0]), Tensor([0.0, bad]))
    with pytest.raises(NonFiniteError):
        T.concat([Tensor(np.full((2, 2), 1e308)), Tensor([[1.0, bad]])])
    with pytest.raises(NonFiniteError):
        T.segment_sum(Tensor([bad, 1.0, 2.0]), [1, 0, 1], 2)


def test_shape_errors():
    with pytest.raises(ShapeError):
        T.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))
    with pytest.raises(ShapeError):
        Tensor(np.ones((2, 2, 2)))
    x, edge, tv, te, att = (np.ones((3, 2)), np.ones((7, 4)), np.ones((2, 5)),
                            np.ones((4, 5)), np.ones(5))
    for args in ((x, edge[:6], [tv], [te], [att]),
                 (x, edge, [tv], [te], [np.ones(4)]),
                 (x, edge, [tv], [te[:3]], [att]),
                 (x, edge, [tv, tv], [te], [att, att]),
                 (x, edge, [], [], []),
                 (x[:2], edge, [tv], [te], [att]),
                 (np.ones(3), edge, [tv], [te], [att])):
        with pytest.raises(ShapeError):
            T.gat_layer_sum(*args, EDGE_PLAN, 0.2)
    with pytest.raises(ShapeError):
        ScatterPlan(EDGE_DST, EDGE_SRC[:6], 3)
    ones = Tensor(np.ones((4, 2)))
    for bounds in ([0, 2, 2, 4], [1, 4], [0, 3], [0]):
        with pytest.raises(ShapeError):
            T.block_attention_sum(ones, ones, ones, bounds, 1.0)


def test_backward_requires_scalar():
    x = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(ShapeError):
        T.mul(x, 2.0).backward()


def test_gather_and_segment_ops():
    x = Tensor(np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]))
    picked = T.gather_rows(x, [2, 0, 2])
    np.testing.assert_array_equal(picked.data, [[5, 6], [1, 2], [5, 6]])
    summed = T.segment_sum(picked, [0, 1, 0], 2)
    np.testing.assert_array_equal(summed.data, [[10, 12], [1, 2]])


def test_gather_rows_negative_index_grad():
    x = Tensor(np.arange(6.0).reshape(3, 2), requires_grad=True)
    picked = T.gather_rows(x, [-1, 0, 2])
    T.mean_all(T.mul(picked, picked)).backward()
    np.testing.assert_array_equal(
        x.grad, add_at_scatter(np.array([-1, 0, 2]), picked.grad, 3))
    with pytest.raises(ShapeError):
        T.gather_rows(x, [[0, 1]])


def test_segment_ids_out_of_range_raise():
    with pytest.raises(IndexError):
        T.segment_sum(Tensor(np.ones((3, 2))), [0, 2, 1], 2)
    for dst, src in (([0, 2, 1], [0, 1, 1]), ([0, 1, 1], [0, 1, 2]),
                     ([0, -1, 1], [0, 1, 1])):
        with pytest.raises(IndexError):
            ScatterPlan(dst, src, 2)


# The softmax inside ``gat_layer_sum`` runs over each node's incoming edges:
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
    out, alpha = T.gat_layer_sum(
        rng.normal(size=(3, 4)), rng.normal(size=(7, 2)),
        [rng.normal(size=(4, 5)) for _ in range(heads)],
        [rng.normal(size=(2, 5)) for _ in range(heads)],
        [rng.normal(size=5) for _ in range(heads)], EDGE_PLAN, 0.2)
    assert out.shape == (3, 5) and alpha.shape == (7, heads)
    for weights in alpha.T:
        np.testing.assert_allclose(np.bincount(EDGE_DST, weights=weights),
                                   np.ones(3), atol=1e-12)


# ------------------------------------------------------------- gradient checks

def test_grad_add_broadcast():
    check_grad(lambda a, b: T.mean_all(T.mul(T.add(a, b), T.add(a, b))),
               (3, 4), (4,))


def test_grad_sub_mul():
    check_grad(lambda a, b: T.mean_all(T.mul(T.sub(a, b), T.mul(b, b))),
               (3, 3), (3, 3), seed=1)


def test_grad_matmul():
    check_grad(lambda a, b: T.mean_all(T.mul(T.matmul(a, b), T.matmul(a, b))),
               (2, 3), (3, 4), seed=2)


def test_grad_concat_axis1():
    weights = np.arange(12.0).reshape(3, 4)

    def build(a, b):
        joined = T.concat([a, b], axis=1)
        return T.mean_all(T.mul(T.mul(joined, joined), weights))

    check_grad(build, (3, 2), (3, 2), seed=4)


def test_grad_gather_segment_pipeline():
    idx = np.array([0, 1, 1, 2, 0])
    seg = np.array([0, 0, 1, 2, 2])

    def build(x):
        rows = T.gather_rows(x, idx)
        pooled = T.segment_sum(rows, seg, 3)
        return T.mean_all(T.mul(pooled, pooled))

    check_grad(build, (3, 4), seed=6)


def test_grad_gat_layer_sum():
    rng = np.random.default_rng(7)
    weights, edge = rng.normal(size=(3, 4)), rng.normal(size=(7, 2))

    def build(x, v0, v1, e0, e1, a0, a1):
        out, _ = T.gat_layer_sum(x, edge, [v0, v1], [e0, e1], [a0, a1],
                                 EDGE_PLAN, 0.2)
        return T.mean_all(T.mul(out, weights))

    # The seed gives edges on both sides of the leaky ReLU's kink in each
    # head (check_grad draws its inputs in this order).
    shapes = [(3, 5), (5, 4), (5, 4), (2, 4), (2, 4), (4,), (4,)]
    draw = np.random.default_rng(8)
    x, v0, v1, e0, e1 = (draw.normal(size=s) for s in shapes[:5])
    for v, e in ((v0, e0), (v1, e1)):
        pre = (x @ v)[EDGE_DST] + (x @ v)[EDGE_SRC] + edge @ e
        assert (pre < 0).any() and (pre > 0).any() and np.abs(pre).min() > 1e-4
    check_grad(build, *shapes, seed=8)


def test_grad_block_attention_sum():
    bounds = np.array([0, 3, 4, 6])
    weights = np.random.default_rng(8).normal(size=(3, 5))

    def build(q, k, v):
        out = T.block_attention_sum(q, k, v, bounds, 0.6)
        return T.mean_all(T.mul(out, weights))

    check_grad(build, (6, 4), (6, 4), (6, 5), seed=8)


def test_grad_activations():
    check_grad(lambda x: T.mean_all(T.elu(x)), (4, 3), seed=10)
    check_grad(lambda x: T.mean_all(T.mul(T.sigmoid(x), T.sigmoid(x))),
               (4, 3), seed=11)
    check_grad(lambda x: T.mean_all(T.huber(x, 0.5)), (4, 3), seed=13)


def test_grad_reductions():
    check_grad(lambda x: T.mean_all(T.mul(x, x)), (5, 2), seed=14)
    seg = np.array([1, 0, 1, 1])
    check_grad(lambda x: T.mean_all(T.mul(T.segment_sum(x, seg, 2),
                                          T.segment_sum(x, seg, 2))),
               (4, 3), seed=15)


def test_grad_simple_products():
    x = Tensor(np.array(2.0), requires_grad=True)
    y = Tensor(np.array(3.0), requires_grad=True)
    T.mul(x, y).backward()
    assert x.grad == pytest.approx(3.0)
    assert y.grad == pytest.approx(2.0)


def test_grad_sigmoid_at_zero():
    x = Tensor(np.array(0.0), requires_grad=True)
    T.sigmoid(x).backward()
    assert x.grad == pytest.approx(0.25)


# ------------------------------------------------------------------ batch norm

def test_batch_norm_infer_identity():
    x = np.random.default_rng(0).normal(size=(4, 3))
    out = T.batch_norm(Tensor(x), Tensor(np.ones(3)), Tensor(np.zeros(3)),
                       np.zeros(3), np.ones(3), mode="infer")
    np.testing.assert_allclose(out.data, x, atol=1e-5)


def test_batch_norm_train_constant_column():
    out = T.batch_norm(Tensor([[5.0], [5.0], [5.0]]), Tensor(np.ones(1)),
                       Tensor(np.zeros(1)), np.zeros(1), np.ones(1), mode="train")
    np.testing.assert_allclose(out.data, np.zeros((3, 1)), atol=1e-9)


def test_batch_norm_train_two_point_batch():
    out = T.batch_norm(Tensor([[1.0], [3.0]]), Tensor(np.ones(1)),
                       Tensor(np.zeros(1)), np.zeros(1), np.ones(1), mode="train")
    np.testing.assert_allclose(out.data, [[-1.0], [1.0]], atol=1e-4)


def test_batch_norm_updates_running_stats():
    running_mean, running_var = np.zeros(1), np.ones(1)
    x = np.array([[1.0], [3.0]])
    T.batch_norm(Tensor(x), Tensor(np.ones(1)), Tensor(np.zeros(1)),
                 running_mean, running_var, mode="train")
    assert running_mean[0] == pytest.approx(0.9 * 0.0 + 0.1 * 2.0)
    # Unbiased batch variance: 2 * biased (B=2).
    assert running_var[0] == pytest.approx(0.9 * 1.0 + 0.1 * 2.0)


def test_batch_norm_train_rejects_singleton_batch():
    with pytest.raises(ShapeError):
        T.batch_norm(Tensor(np.ones((1, 2))), Tensor(np.ones(2)),
                     Tensor(np.zeros(2)), np.zeros(2), np.ones(2), mode="train")


@pytest.mark.parametrize("mode", ["train", "infer"])
def test_batch_norm_gradients(mode):
    rng = np.random.default_rng(21)
    mean = rng.normal(size=3)
    var = rng.uniform(0.5, 2.0, size=3)
    weights = rng.normal(size=(4, 3))

    def build(x, gamma, beta):
        out = T.batch_norm(x, gamma, beta, mean.copy(), var.copy(), mode=mode)
        return T.mean_all(T.mul(out, Tensor(weights)))

    check_grad(build, (4, 3), (3,), (3,), seed=22)


# ---------------------------------------------------------------- determinism

def test_repeated_backward_is_bitwise_identical():
    rng = np.random.default_rng(30)
    x = Tensor(rng.normal(size=(5, 4)), requires_grad=True)
    w = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    out = T.mean_all(T.block_attention_sum(x, x, T.matmul(x, w), [0, 2, 5], 0.5))
    out.backward()
    first = (x.grad.copy(), w.grad.copy())
    out.backward()
    assert (x.grad == first[0]).all()
    assert (w.grad == first[1]).all()


def test_constants_get_no_gradient():
    a = Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
    w = Tensor(np.array([1.0, 2.0, 3.0]))
    T.mean_all(T.mul(a, w)).backward()
    np.testing.assert_allclose(a.grad, [1 / 3, 2 / 3, 1.0])
    assert w.grad is None


def test_grad_accumulates_across_shared_uses():
    x = Tensor(np.array(3.0), requires_grad=True)
    out = T.mul(x, x)  # both parents are the same tensor
    out.backward()
    assert x.grad == pytest.approx(6.0)


def test_backward_keeps_every_grad_in_its_own_buffer():
    # Each add hands its upstream array itself to both parents: add(x, x)
    # twice to x, add(x, z) to x and z, add(y, ...) to y; x, y and z keep
    # accumulating afterwards. No stored grad may alias another or be
    # changed through one.
    def build(x, w):
        y = T.add(x, x)
        z = T.add(y, T.matmul(y, w))
        s = T.add(x, z)
        zy = T.mul(z, y)
        return T.mean_all(T.mul(zy, s)), (y, z, s, zy)

    check_grad(lambda x, w: build(x, w)[0], (3, 2), (2, 2), seed=31)

    rng = np.random.default_rng(31)
    x = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
    w = Tensor(rng.normal(size=(2, 2)), requires_grad=True)
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
def test_segment_sum_matches_add_at(case):
    index, values, n = case
    out = T.segment_sum(Tensor(values), index, n).data
    assert bitwise_equal(out, add_at_scatter(index, values, n))


@settings(deadline=None)
@given(st.one_of(scatter_cases(), scatter_cases(width=3)))
def test_gather_rows_vjp_matches_add_at(case):
    index, upstream, n = case
    x = Tensor(np.ones((n,) + upstream.shape[1:]), requires_grad=True)
    (grad,) = T.gather_rows(x, index)._vjp(upstream)
    assert bitwise_equal(grad, add_at_scatter(index, upstream, n))


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
    eye = np.eye(len(dst))
    out, alpha = T.gat_layer_sum(xv[:, None], eye, [np.ones((1, 1))],
                                 [Tensor(edge[:, None], requires_grad=True)],
                                 [np.ones(1)], ScatterPlan(dst, src, n), 1.0)
    logits = xv[dst] + xv[src] + edge
    ref, ref_vjp = reference_segment_softmax(logits, dst, n,
                                             g[dst] * xv[src] + 0.0)
    assert bitwise_equal(alpha[:, 0], ref)
    assert bitwise_equal(out.data, add_at_scatter(dst, (ref * xv[src])[:, None], n))
    _, _, d_edge, _ = out._vjp(g[:, None])
    assert bitwise_equal(d_edge[:, 0] + 0.0, ref_vjp + 0.0)


@settings(deadline=None)
@given(softmax_cases(), st.integers(0, 6))
def test_segment_softmax_rejects_an_empty_segment(case, empty):
    dst, src, _, _, _, n = case
    keep = dst != empty % n
    with pytest.raises(ShapeError, match="incoming edge"):
        ScatterPlan(dst[keep], src[keep], n)
