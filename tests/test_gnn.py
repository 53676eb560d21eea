import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from grappa.featurize import EDGE_FEATURES, featurize
from grappa.gnn import (
    GatLayer,
    attention_scores,
    batch_graphs,
    encode,
    gat_forward,
    glorot,
)
from grappa.molecule import permute_molecule
from grappa.smiles import parse_smiles
from grappa.tensor import Tensor, mean_all, mul

from _oracles import (
    bitwise_equal,
    finite_difference_grad,
    max_rel_error,
    naive_gat_head,
    per_head_gat_forward,
)


def graph_of(smiles):
    return featurize(parse_smiles(smiles))


def random_layer(rng, in_dim, out_dim=8, heads=2):
    per_head = [[Tensor(glorot(rng, shape), requires_grad=True)
                 for shape in ((in_dim, out_dim), (EDGE_FEATURES, out_dim),
                               (out_dim,))]
                for _ in range(heads)]
    return GatLayer(*map(list, zip(*per_head)))


def test_single_atom_self_loop_only():
    graph = graph_of("C")
    rng = np.random.default_rng(0)
    layer = random_layer(rng, 24, out_dim=6, heads=3)
    out, attentions = gat_forward(Tensor(graph.node_features),
                                  batch_graphs([graph]), layer)
    assert attentions.shape == (1, 3)
    np.testing.assert_allclose(attentions, [[1.0] * 3])
    # Softmax over one element is 1, so the update is the mean of W x.
    expected = np.mean(
        [graph.node_features @ layer.theta_v[h].data for h in range(3)], axis=0)
    np.testing.assert_allclose(out.data, expected, atol=1e-12)


def test_two_node_path_matches_scalar_evaluation():
    graph = graph_of("CO")
    rng = np.random.default_rng(1)
    layer = random_layer(rng, 24, out_dim=5, heads=1)
    out, _ = gat_forward(Tensor(graph.node_features), batch_graphs([graph]),
                         layer)
    bonds = [(0, 1)]
    efeat = {(0, 1): graph.edge_features[0]}
    oracle = naive_gat_head(graph.node_features, bonds, efeat,
                            layer.theta_v[0].data, layer.theta_e[0].data,
                            layer.att[0].data)
    np.testing.assert_allclose(out.data, oracle, atol=1e-10)


@pytest.mark.parametrize("smiles", ["CCO", "c1ccccc1", "CC(=O)O", "C1CC1CC"])
def test_multi_head_forward_matches_scalar_evaluation(smiles):
    graph = graph_of(smiles)
    rng = np.random.default_rng(2)
    layer = random_layer(rng, 24, out_dim=7, heads=2)
    out, _ = gat_forward(Tensor(graph.node_features), batch_graphs([graph]),
                         layer)
    bonds = []
    efeat = {}
    seen = set()
    for (i, j), feat in zip(graph.edges.tolist(), graph.edge_features):
        if (j, i) not in seen:
            bonds.append((i, j))
            seen.add((i, j))
        efeat[(i, j)] = feat
    per_head = [
        naive_gat_head(graph.node_features, bonds, efeat,
                       layer.theta_v[h].data, layer.theta_e[h].data,
                       layer.att[h].data)
        for h in range(2)
    ]
    np.testing.assert_allclose(out.data, np.mean(per_head, axis=0), atol=1e-10)


@pytest.mark.parametrize("smiles", ["CCO", "CC(C)CC", "c1ccncc1"])
def test_attention_rows_sum_to_one(smiles):
    graph = graph_of(smiles)
    rng = np.random.default_rng(3)
    layer = random_layer(rng, 24, heads=2)
    batch = batch_graphs([graph])
    _, attentions = gat_forward(Tensor(graph.node_features), batch, layer)
    assert attentions.shape == (len(batch.dst), 2)
    for alpha in attentions.T:
        sums = np.zeros(graph.heavy_atom_count)
        np.add.at(sums, batch.dst, alpha)
        np.testing.assert_allclose(sums, np.ones_like(sums), atol=1e-12)


def test_zero_edge_weights_isolate_edge_features():
    graph = graph_of("F/C=C/F")
    rng = np.random.default_rng(4)
    layer = random_layer(rng, 24, heads=2)
    for head in range(2):
        layer.theta_e[head].data = np.zeros_like(layer.theta_e[head].data)
    out1, _ = gat_forward(Tensor(graph.node_features), batch_graphs([graph]),
                          layer)
    # Same topology, different edge features.
    other = graph_of("FC=CF")
    assert not np.array_equal(other.edge_features, graph.edge_features)
    out2, _ = gat_forward(Tensor(other.node_features), batch_graphs([other]),
                          layer)
    np.testing.assert_allclose(out1.data, out2.data, atol=1e-12)


def test_edge_features_matter_otherwise():
    graph = graph_of("F/C=C/F")
    other = graph_of("FC=CF")
    rng = np.random.default_rng(5)
    layer = random_layer(rng, 24, heads=1)
    out1, _ = gat_forward(Tensor(graph.node_features), batch_graphs([graph]),
                          layer)
    out2, _ = gat_forward(Tensor(other.node_features), batch_graphs([other]),
                          layer)
    assert np.abs(out1.data - out2.data).max() > 1e-9


def test_encode_stacks_layers_and_stays_finite():
    graph = graph_of("CCO")
    rng = np.random.default_rng(6)
    layers = [random_layer(rng, 24, out_dim=32, heads=2)]
    layers += [random_layer(rng, 32, out_dim=32, heads=2) for _ in range(3)]
    out = encode(batch_graphs([graph]), layers)
    assert out.shape == (3, 32)
    assert np.isfinite(out.data).all()


def test_encode_dimension_mismatch():
    graph = graph_of("CCO")
    rng = np.random.default_rng(7)
    layers = [random_layer(rng, 24, out_dim=16), random_layer(rng, 32, out_dim=16)]
    with pytest.raises(ValueError):
        encode(batch_graphs([graph]), layers)


@pytest.mark.parametrize("smiles", ["CCO", "CC(=O)Oc1ccccc1", "C1CC1CC"])
def test_permutation_equivariance(smiles):
    mol = parse_smiles(smiles)
    graph = featurize(mol)
    rng = np.random.default_rng(8)
    layers = [random_layer(rng, 24, out_dim=12, heads=2),
              random_layer(rng, 12, out_dim=12, heads=2)]
    base = encode(batch_graphs([graph]), layers).data
    for _ in range(5):
        perm = rng.permutation(len(mol.atoms)).tolist()
        permuted = featurize(permute_molecule(mol, perm))
        out = encode(batch_graphs([permuted]), layers).data
        for old in range(len(mol.atoms)):
            np.testing.assert_allclose(out[perm[old]], base[old], atol=1e-9)


def test_gradient_through_one_layer():
    graph = graph_of("CCO")
    rng = np.random.default_rng(9)
    layer = random_layer(rng, 24, out_dim=4, heads=2)
    weights = rng.normal(size=(3, 4))

    params = {
        "tv0": layer.theta_v[0], "tv1": layer.theta_v[1],
        "te0": layer.theta_e[0], "te1": layer.theta_e[1],
        "a0": layer.att[0], "a1": layer.att[1],
    }

    def forward():
        out, _ = gat_forward(Tensor(graph.node_features), batch_graphs([graph]),
                             layer)
        return mean_all(mul(out, Tensor(weights)))

    loss = forward()
    loss.backward()
    for name, tensor in params.items():
        def f(x, tensor=tensor):
            saved = tensor.data
            tensor.data = x
            value = forward().item()
            tensor.data = saved
            return value

        numeric = finite_difference_grad(f, tensor.data.copy())
        err = max_rel_error(tensor.grad, numeric)
        assert err < 1e-4, f"{name}: rel err {err}"


def test_batch_is_a_disjoint_union():
    graphs = [graph_of(s) for s in ("CCO", "C", "c1ccccc1")]
    batch = batch_graphs(graphs)
    np.testing.assert_array_equal(batch.bounds, [0, 3, 4, 10])
    np.testing.assert_array_equal(batch.molecule, [0] * 3 + [1] + [2] * 6)
    bonds = len(graphs[0].edges) + len(graphs[2].edges)
    # Bond edges first, offset by each molecule's first row, then every
    # node's self-loop with zero edge features.
    np.testing.assert_array_equal(batch.dst[:4], graphs[0].edges[:, 0])
    np.testing.assert_array_equal(batch.src[bonds - 1], graphs[2].edges[-1, 1] + 4)
    np.testing.assert_array_equal(batch.dst[bonds:], np.arange(10))
    np.testing.assert_array_equal(batch.src[bonds:], np.arange(10))
    assert not batch.edge_features[bonds:].any()
    assert not (batch.molecule[batch.dst] != batch.molecule[batch.src]).any()


def test_batched_encode_matches_molecules_alone():
    smiles = ("CCO", "C", "CC(=O)Oc1ccccc1", "F/C=C/F")
    graphs = [graph_of(s) for s in smiles]
    rng = np.random.default_rng(15)
    layers = [random_layer(rng, 24, out_dim=8, heads=2),
              random_layer(rng, 8, out_dim=8, heads=2)]
    batch = batch_graphs(graphs)
    out = encode(batch, layers).data
    for m, graph in enumerate(graphs):
        alone = encode(batch_graphs([graph]), layers).data
        rows = slice(batch.bounds[m], batch.bounds[m + 1])
        np.testing.assert_allclose(out[rows], alone, rtol=1e-13, atol=1e-14)


def test_gradient_through_stack_on_three_molecule_batch():
    batch = batch_graphs([graph_of(s) for s in ("CCO", "C", "C1CC1N")])
    rng = np.random.default_rng(16)
    layers = [random_layer(rng, 24, out_dim=3, heads=2),
              random_layer(rng, 3, out_dim=3, heads=2)]
    weights = rng.normal(size=(batch.num_nodes, 3))

    def forward():
        return mean_all(mul(encode(batch, layers), Tensor(weights)))

    forward().backward()
    for li, layer in enumerate(layers):
        for name, tensors in (("theta_v", layer.theta_v),
                              ("theta_e", layer.theta_e), ("att", layer.att)):
            for head, tensor in enumerate(tensors):
                def f(x, tensor=tensor):
                    saved = tensor.data
                    tensor.data = x
                    value = forward().item()
                    tensor.data = saved
                    return value

                numeric = finite_difference_grad(f, tensor.data.copy())
                err = max_rel_error(tensor.grad, numeric)
                assert err < 1e-4, f"layer {li} head {head} {name}: rel err {err}"


def test_attention_scores_benzene_symmetry():
    graph = graph_of("c1ccccc1")
    rng = np.random.default_rng(10)
    layers = [random_layer(rng, 24, out_dim=8, heads=2),
              random_layer(rng, 8, out_dim=8, heads=2)]
    scores = attention_scores(graph, layers)
    np.testing.assert_allclose(scores, np.ones(6), atol=1e-9)


def test_attention_scores_single_atom():
    graph = graph_of("C")
    rng = np.random.default_rng(11)
    layers = [random_layer(rng, 24, out_dim=8, heads=1)]
    np.testing.assert_array_equal(attention_scores(graph, layers), [1.0])


def test_attention_scores_range_and_extremes():
    graph = graph_of("CC(=O)Oc1ccccc1")
    rng = np.random.default_rng(12)
    layers = [random_layer(rng, 24, out_dim=8, heads=2),
              random_layer(rng, 8, out_dim=8, heads=2)]
    scores = attention_scores(graph, layers)
    assert scores.min() == 0.0
    assert scores.max() == 1.0
    assert ((scores >= 0) & (scores <= 1)).all()


def test_attention_scores_match_standalone_recomputation():
    graph = graph_of("CCO")
    rng = np.random.default_rng(13)
    layers = [random_layer(rng, 24, out_dim=6, heads=2),
              random_layer(rng, 6, out_dim=6, heads=2)]
    scores = attention_scores(graph, layers)

    # Standalone: rebuild the last layer's attention with explicit loops.
    x = encode(batch_graphs([graph]), layers[:-1]).data
    layer = layers[-1]
    n = graph.heavy_atom_count
    neighbors = {i: [] for i in range(n)}
    efeat = {}
    for (i, j), feat in zip(graph.edges.tolist(), graph.edge_features):
        neighbors[i].append(j)
        efeat[(i, j)] = feat
    outgoing = {i: [] for i in range(n)}
    for head in range(layer.heads):
        tv, te, att = (layer.theta_v[head].data, layer.theta_e[head].data,
                       layer.att[head].data)
        for i in range(n):
            js = neighbors[i] + [i]
            raw = []
            for j in js:
                e = efeat.get((i, j), np.zeros(9)) if j != i else np.zeros(9)
                pre = x[i] @ tv + x[j] @ tv + e @ te
                raw.append(att @ np.where(pre > 0, pre, 0.2 * pre))
            raw = np.array(raw)
            w = np.exp(raw - raw.max())
            w /= w.sum()
            for weight, j in zip(w, js):
                outgoing[j].append(weight)
    means = np.array([np.mean(outgoing[i]) for i in range(n)])
    expected = (means - means.min()) / (means.max() - means.min())
    np.testing.assert_allclose(scores, expected, atol=1e-10)


def test_layer_shape_validation():
    graph = graph_of("CCO")
    rng = np.random.default_rng(14)
    layer = random_layer(rng, 24)
    with pytest.raises(ValueError):
        gat_forward(Tensor(np.zeros((5, 24))), batch_graphs([graph]), layer)


# ``gat_forward`` runs a layer as one op over all heads; the oracle runs the
# same layer as separate per-head tape ops. The two must agree byte for byte,
# forward and backward.

ORACLE_SMILES = ["C", "CO", "CCO", "C=C", "c1ccccc1", "CC(=O)O", "C1CC1N",
                 "FC(F)F", "CC(C)(C)C"]


def copy_layer(layer):
    return GatLayer(*([Tensor(t.data.copy(), requires_grad=True) for t in ts]
                      for ts in (layer.theta_v, layer.theta_e, layer.att)))


@settings(deadline=None, max_examples=60)
@given(smiles=st.lists(st.sampled_from(ORACLE_SMILES), min_size=1, max_size=4),
       heads=st.integers(1, 5), width=st.sampled_from([1, 5, 8, 16, 23, 32]),
       node_input=st.booleans(), seed=st.integers(0, 2**16))
@example(smiles=["C"], heads=5, width=16, node_input=True, seed=0)
@example(smiles=["C"], heads=2, width=5, node_input=False, seed=1)
def test_fused_layer_matches_per_head_ops(smiles, heads, width, node_input, seed):
    # Widths that are and are not multiples of 16, with 1-atom molecules
    # alone and in batches; the input is either the node features or an
    # embedding of the layer's own width.
    batch = batch_graphs([graph_of(s) for s in smiles])
    rng = np.random.default_rng(seed)
    x = batch.node_features if node_input \
        else rng.normal(size=(batch.num_nodes, width))
    layer = random_layer(rng, x.shape[1], out_dim=width, heads=heads)
    out, weights = gat_forward(Tensor(x), batch, layer)
    ref_out, ref_weights = per_head_gat_forward(Tensor(x), batch, layer)
    assert bitwise_equal(out.data, ref_out.data)
    assert bitwise_equal(weights, ref_weights)


@pytest.mark.parametrize("width", [7, 16])
@pytest.mark.parametrize("heads", [1, 2, 3, 5])
def test_fused_stack_gradients_match_per_head_ops(heads, width):
    # One backward through two layers, with a trainable input: every
    # parameter and the input get the gradient bytes of the per-head tape.
    batch = batch_graphs([graph_of(s) for s in ("CCO", "C", "c1ccccc1", "CC(=O)O")])
    rng = np.random.default_rng(100 + heads)
    layers = [random_layer(rng, 24, out_dim=width, heads=heads),
              random_layer(rng, width, out_dim=width, heads=heads)]
    weights = Tensor(rng.normal(size=(batch.num_nodes, width)))
    grads = []
    for forward in (gat_forward, per_head_gat_forward):
        stack = [copy_layer(layer) for layer in layers]
        x = Tensor(batch.node_features.copy(), requires_grad=True)
        h = x
        for layer in stack:
            h, _ = forward(h, batch, layer)
        mean_all(mul(h, weights)).backward()
        grads.append([x.grad] + [t.grad for layer in stack
                                 for ts in (layer.theta_v, layer.theta_e, layer.att)
                                 for t in ts])
    assert len(grads[0]) == 1 + 2 * 3 * heads
    for fused, reference in zip(*grads):
        assert bitwise_equal(fused, reference)
