"""The parameter head runs as two stages, ``head_raw`` and
``scale_to_ranges``; each must give the bytes of the separate tape ops it
replaces (``_oracles.composed_mlp_head`` and ``composed_range_sigmoid``):
outputs, running statistics and every gradient, and the same non-finite
errors."""

from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from grappa.antoine import PARAM_RANGES
from grappa.model import (
    Architecture,
    _count_features,
    forward_antoine,
    head_raw,
    init_model,
    prepare_components,
    scale_to_ranges,
)
from grappa.tensor import NonFiniteError, Tensor
from grappa.train import _batch_loss, loss_huber

from _oracles import (
    TapeTensor,
    bitwise_equal,
    composed_mlp_head,
    composed_range_sigmoid,
    mean_all,
    mul,
    recording,
    synthetic_dataset,
    weighted_mean,
)

COUNT_SCALE = [1.5, 0.8, 2.0, 1.3]


def _head_model(layers: int, width: int, scaled: bool, seed: int):
    """A model whose head has ``layers`` hidden layers of ``width`` and
    drawn running statistics, so inference does not normalize by (0, 1)."""
    model = init_model(Architecture(
        gat_layers=2, heads=1, embed_dim=8, hidden_layers=layers,
        hidden_width=width, count_scale=COUNT_SCALE if scaled else None),
        seed=seed)
    rng = np.random.default_rng(seed)
    for name, buf in model.buffers.items():
        buf[...] = (rng.uniform(0.2, 3.0, buf.shape) if name.endswith("var")
                    else rng.normal(size=buf.shape))
    return model


def _run(model, pooled, counts, weights, train, fused):
    """The head's (B, 3) output bytes, and after a backward on a weighted
    mean the gradient bytes of the pooled input and every head parameter,
    and the running statistics' bytes."""
    hidden, w_out, b_out, stats = model.head
    grads = []
    if fused:
        out = scale_to_ranges(head_raw(model, Tensor(pooled), counts, train),
                              PARAM_RANGES, train)
        if train:
            grads = [weighted_mean(out, weights).backward()] + [
                p.grad.copy() for p in [*sum(hidden, []), w_out, b_out]]
    else:
        x = TapeTensor(pooled, requires_grad=True)
        tape = [TapeTensor(p.value, requires_grad=True, name=p.name)
                for p in [*sum(hidden, []), w_out, b_out]]
        layers = [tape[i : i + 4] for i in range(0, len(tape) - 2, 4)]
        with recording(train):
            out = composed_range_sigmoid(
                composed_mlp_head(x, counts, layers, tape[-2], tape[-1], stats),
                *np.array([PARAM_RANGES[k] for k in "ABC"]).T)
            if train:
                mean_all(mul(out, weights)).backward()
                grads = [x.grad] + [t.grad for t in tape]
    return out.data, grads, model.snapshot()[model.parameter_count():]


@st.composite
def head_cases(draw):
    train = draw(st.booleans())
    return (train, draw(st.integers(2 if train else 1, 40)),
            draw(st.integers(1, 3)), draw(st.sampled_from([1, 3, 16])),
            draw(st.booleans()), draw(st.integers(0, 2**32 - 1)))


@settings(deadline=None, max_examples=60)
@given(head_cases())
def test_fused_head_is_the_bytes_of_the_separate_ops(case):
    train, batch, layers, width, scaled, seed = case
    model = _head_model(layers, width, scaled, seed)
    rng = np.random.default_rng(seed + 1)
    pooled = rng.normal(size=(batch, 8)) * 3.0
    counts = _count_features(model, rng.integers(0, 6, batch),
                             rng.integers(0, 9, batch))
    weights = rng.normal(size=(batch, 3))
    start = model.snapshot()
    fused = _run(model, pooled, counts, weights, train, fused=True)
    model.restore(start)
    composed = _run(model, pooled, counts, weights, train, fused=False)
    assert bitwise_equal(fused[0], composed[0])
    assert len(fused[1]) == len(composed[1]) == (3 + 4 * layers if train else 0)
    for ours, theirs in zip(fused[1], composed[1]):
        assert bitwise_equal(ours, theirs)
    assert bitwise_equal(fused[2], composed[2])
    assert bitwise_equal(fused[2], start[model.parameter_count():]) != train


def _head_names(layers: int) -> list[tuple[str, str, list[str]]]:
    """Every head weight and bias, the check of its layer, and the
    parameters that check's error names."""
    checks = []
    for i in range(layers):
        checks += [(f"hidden layer {i} linear", [f"head.{i}.weight",
                                                 f"head.{i}.bias"]),
                   (f"hidden layer {i} batch norm", [f"head.{i}.bn.gamma",
                                                     f"head.{i}.bn.beta"])]
    checks.append(("output layer", ["head.out.weight", "head.out.bias"]))
    return [(name, where, names) for where, names in checks for name in names]


@pytest.mark.parametrize("train", [False, True])
@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("name, where, names", _head_names(2))
def test_a_non_finite_head_parameter_names_its_layer(name, where, names, bad,
                                                     train):
    model = _head_model(2, 4, False, 5)
    rng = np.random.default_rng(6)
    target = model.params[name]
    target.reshape(-1)[rng.integers(target.size)] = bad
    inputs = ", ".join(map(repr, names))
    with np.errstate(all="ignore"), pytest.raises(
            NonFiniteError, match=rf"^non-finite value produced by head_raw "
                                  rf"{where} \(inputs {inputs}\)$"):
        head_raw(model, Tensor(rng.normal(size=(3, 8))), np.ones((3, 2)), train)


@settings(deadline=None, max_examples=60)
@given(st.sampled_from(_head_names(3)), st.booleans(),
       st.sampled_from([1e308, -1e308, 1e250, np.inf, np.nan]),
       st.integers(0, 2**32 - 1))
def test_the_fused_head_raises_where_the_separate_ops_raise(named, train, bad,
                                                            seed):
    # A large value raises once a product or sum overflows, or not at all
    # if the sigmoid saturates first; either way as the separate ops do,
    # with the running statistics moved as far as theirs.
    model = _head_model(3, 4, True, seed)
    target = model.params[named[0]]
    rng = np.random.default_rng(seed)
    target.reshape(-1)[rng.integers(target.size)] = bad
    pooled = rng.normal(size=(4, 8)) * 10.0
    counts = _count_features(model, [0, 1, 2, 3], [3, 1, 0, 2])
    start = model.snapshot()
    outcomes = []
    for fused in (True, False):
        model.restore(start)
        try:
            with np.errstate(all="ignore"):
                out = _run(model, pooled, counts, np.ones((4, 3)), train, fused)
            outcomes.append((out[0].tobytes(), model.snapshot().tobytes()))
        except NonFiniteError:
            outcomes.append(("raised", model.snapshot().tobytes()))
    assert outcomes[0] == outcomes[1]
    if not np.isfinite(bad):
        assert outcomes[0][0] == "raised"


def test_an_overflowing_head_product_raises():
    model = _head_model(1, 4, False, 2)
    model.params["head.0.weight"][...] = 1e308
    for train in (False, True):
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(NonFiniteError, match="hidden layer 0 linear"):
            head_raw(model, Tensor(np.full((2, 8), 10.0)), np.ones((2, 2)),
                     train)


@pytest.mark.parametrize("arch", [{}, {"gat_layers": 2, "pooling": "sum"},
                                  {"gat_layers": 5, "heads": 1}])
def test_stage_counts_stay_pinned(arch):
    # One stage per attention layer, the readout, the head and the range
    # map; a training loss adds the Antoine equation and the loss.
    model = init_model(Architecture(**arch), seed=4)
    comps = prepare_components(synthetic_dataset(points_per_component=3)[0])
    layers = model.arch.gat_layers
    infer = forward_antoine(model, comps.take(np.arange(1)).graphs)
    assert len(infer.stages) == layers + 3
    assert all(stage is None for stage in infer.stages)
    loss = _batch_loss(model, comps.take(np.arange(16)),
                       partial(loss_huber, delta=0.5))
    assert len(loss.stages) == layers + 5
    assert all(callable(stage) for stage in loss.stages)
