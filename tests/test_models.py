"""Classifier networks, ensemble rule and checkpoint round-trips."""
from __future__ import annotations

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from fixbi.config import DatasetSpec, TrainConfig
from fixbi.data import gen_blobs_shift
from fixbi.models import (_CKPT_BLOCK, _INFER_ROWS, CKPT_MAGIC, DomainDiscriminator, _layers,
                          discriminator_logits,
                          ensemble_predict, extract_features, forward,
                          forward_logits, init_discriminator, init_model,
                          load_checkpoint, predict_features, predict_labels,
                          predict_probs, save_checkpoint, stack_models,
                          unstack_models)
from fixbi.baseline import dann_objective, train_dann
from fixbi.numerics import ParamSet, Tensor, _dense, backward, softmax_vjp
from helpers import manual_model, random_model, value_bytes


class TestInitModel:
    def test_same_seed_identical(self):
        a = init_model(4, (8, 3), 2, seed=11)
        b = init_model(4, (8, 3), 2, seed=11)
        assert value_bytes(a.params) == value_bytes(b.params)
        c = init_model(4, (8, 3), 2, seed=12)
        assert value_bytes(a.params) != value_bytes(c.params)

    def test_zero_input_logits_equal_bias(self):
        model = init_model(3, (6, 4), 3, seed=0)
        _, probs, _ = forward(model, np.zeros((2, 3)))
        # zero biases at init: zero input gives the bias vector as logits
        assert np.allclose(probs, 1.0 / 3, atol=1e-15)
        assert np.array_equal(model.params["head.b"].data, np.zeros(3))

    def test_fan_in_bounds_sampled_weights(self):
        model = init_model(4, (16,), 2, seed=5)
        w0 = model.params["ext.w0"].data   # fan_in 4 -> bound 0.5
        assert np.abs(w0).max() <= 0.5
        assert np.abs(w0).max() > 0.25     # actually spread over the range
        assert model.params["log_temperature"].data.tolist() == [0.0]  # T = 1

    def test_empty_widths_rejected(self):
        with pytest.raises(ValueError):
            init_model(4, (), 2, seed=0)


class TestForward:
    def test_empty_batch_shapes(self):
        model = init_model(3, (5,), 4, seed=1)
        feats, probs, _ = forward(model, np.zeros((0, 3)))
        assert feats.shape == (0, 5)
        assert probs.shape == (0, 4)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(2)
        model = init_model(3, (5, 4), 3, seed=2)
        _, probs, _ = forward(model, rng.normal(size=(7, 3)))
        assert np.abs(probs.sum(axis=1) - 1.0).max() < 1e-12

    def test_hand_computed_one_layer(self):
        w = [[1.0, -1.0], [0.5, 2.0]]
        b = [0.1, -0.2]
        model = manual_model(w, b)
        x = np.array([[1.0, 0.0]])
        _, probs, _ = forward(model, x)
        z = x @ np.array(w) + np.array(b)
        e = np.exp(z - z.max())
        assert np.allclose(probs, e / e.sum(), atol=1e-15)

    def test_input_width_mismatch_rejected(self):
        model = init_model(3, (5,), 2, seed=3)
        with pytest.raises(ValueError):
            forward(model, np.zeros((2, 4)))

    def test_pure_function_of_inputs(self):
        model = init_model(2, (4,), 2, seed=4)
        x = np.array([[0.3, -0.7]])
        assert forward(model, x)[1].tobytes() == forward(model, x)[1].tobytes()


class TestGraphForwardShape:
    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_one_node_per_network(self, depth):
        # each network is a forward that returns its reverse pass, and the
        # DANN step is one node over its stacked input batch: no parameter
        # tensor is a graph parent, each network writes its weights'
        # gradients into its set's gradient vector
        model = init_model(3, (5,) * depth, 4, seed=depth)
        disc = init_discriminator(5, 6, seed=depth)
        xs, xt = np.ones((2, 3)), -np.ones((2, 3))
        node = dann_objective(model, disc, xs, np.eye(4)[[0, 1]], xt)[0]
        [(parent, _)] = node._vjps
        assert isinstance(parent, Tensor) and not parent.requires_grad
        assert parent.data.tobytes() == np.concatenate([xs, xt]).tobytes()
        params = {id(t) for ps in (model.params, disc.params) for _, t in ps.items()}
        assert id(parent) not in params
        for ps in (model.params, disc.params):
            backward(node, ps)
            assert ps["head.b" if ps is model.params else "disc.b1"].grad.any()


class TestGraphFreeInference:
    @pytest.mark.parametrize("rows", [0, 1, 63, 64, 65, 300])
    def test_equals_the_graph_forward_bit_for_bit(self, rows):
        rng = np.random.default_rng(rows)
        model = random_model(rng, input_dim=2, widths=(64, 64, 32))
        x = rng.normal(size=(rows, 2))
        feats, graph_probs, _ = forward(model, x)
        probs = predict_probs(model, x)
        assert probs.shape == (rows, 3)
        assert probs.tobytes() == graph_probs.tobytes()
        assert predict_features(model, x).tobytes() == feats.tobytes()

    def test_wrong_width_raises_the_graph_forwards_error(self):
        model = init_model(3, (5,), 2, seed=3)
        x = np.zeros((2, 4))
        with pytest.raises(ValueError) as graph:
            forward_logits(model, x)
        for infer in (predict_probs, predict_features):
            with pytest.raises(ValueError) as plain:
                infer(model, x)
            assert str(plain.value) == str(graph.value)


class TestReluOnNonFiniteWeights:
    """A NaN and an inf in one extractor weight: both forwards clamp the
    pre-activations they poison to +0.0, byte for byte alike."""

    @pytest.mark.parametrize("rows", [5, 70])
    def test_graph_and_inference_agree(self, rows):
        rng = np.random.default_rng(rows)
        model = random_model(rng, input_dim=2, widths=(4,))
        w0 = model.params["ext.w0"].data
        w0[0, 1] = np.nan
        w0[0, 2] = np.inf
        # a negative first input makes unit 2's pre-activation -inf
        x = rng.normal(size=(rows, 2))
        x[:, 0] = -np.abs(x[:, 0]) - 0.1
        feats, graph_probs, _ = forward(model, x)
        assert feats[:, 1:3].tobytes() == np.zeros((rows, 2)).tobytes()
        assert predict_features(model, x).tobytes() == feats.tobytes()
        probs = predict_probs(model, x)
        assert np.isfinite(probs).all()
        assert probs.tobytes() == graph_probs.tobytes()


class TestReluCallCount:
    """One in-place ReLU per extractor layer in the graph forward, and one
    per layer and row block in inference."""

    @staticmethod
    def _counted(monkeypatch):
        import fixbi.models as models
        import fixbi.numerics as numerics

        calls = []
        relu = numerics.relu_inplace

        def counted(a):
            calls.append(a.shape)
            return relu(a)

        monkeypatch.setattr(numerics, "relu_inplace", counted)
        return calls

    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_graph_forward_calls_it_once_per_layer(self, monkeypatch, depth):
        calls = self._counted(monkeypatch)
        model = init_model(3, (5,) * depth, 4, seed=depth)
        forward_logits(model, np.ones((6, 3)))
        assert calls == [(6, 5)] * depth
        calls.clear()
        forward_logits(stack_models([model, model]), np.ones((2, 6, 3)))
        assert calls == [(2, 6, 5)] * depth

    # a lone last row joins the block before it
    @pytest.mark.parametrize("depth,rows,blocks", [(1, 10, 1), (2, 65, 1),
                                                   (2, 66, 2), (3, 129, 2),
                                                   (3, 300, 5)])
    def test_inference_calls_it_once_per_layer_and_block(self, monkeypatch,
                                                         depth, rows, blocks):
        calls = self._counted(monkeypatch)
        model = init_model(3, (5,) * depth, 4, seed=depth)
        for infer in (predict_features, predict_probs):
            calls.clear()
            infer(model, np.ones((rows, 3)))
            assert len(calls) == depth * blocks


class TestInferenceSoftmaxOnce:
    """Inference takes one row-wise softmax over all blocks' logits, with the
    bytes of a softmax per block."""

    @staticmethod
    def _blockwise(model, x):
        # the block rule of models._infer, with the softmax in each block
        n, lo, blocks = x.shape[0], 0, []
        while lo < n:
            hi = n if n - (lo + _INFER_ROWS) <= 1 else lo + _INFER_ROWS
            h = x[lo:hi]
            for w, b in _layers(model.params, "ext", len(model.widths)):
                h = _dense(h, w.data, b.data, relu=True)
            z = _dense(h, model.params["head.w"].data, model.params["head.b"].data, relu=False)
            blocks.append(softmax_vjp(z)[0])
            lo = hi
        return np.concatenate(blocks, axis=-2)

    @pytest.mark.parametrize("classes", [3, 31])
    @pytest.mark.parametrize("n", [1, 63, 64, 65, 129, 300])
    def test_bytes_equal_a_softmax_per_block(self, n, classes):
        rng = np.random.default_rng(n + classes)
        models = [random_model(rng, input_dim=2, widths=(64, 64, 32), num_classes=classes)
                  for _ in range(2)]
        x = rng.normal(size=(n, 2)) * 3.0
        for model in (models[0], stack_models(models)):
            got = predict_probs(model, x)
            assert got.tobytes() == self._blockwise(model, x).tobytes()

    @pytest.mark.parametrize("rows", [1, 64, 65, 300])
    def test_one_softmax_per_predict_probs_call(self, monkeypatch, rows):
        import fixbi.models as models

        calls = []
        softmax = models.softmax_vjp

        def counted(z, t=None):
            calls.append(z.shape)
            return softmax(z, t)

        monkeypatch.setattr(models, "softmax_vjp", counted)
        model = init_model(3, (5, 4), 3, seed=0)
        predict_probs(model, np.ones((rows, 3)))
        assert calls == [(rows, 3)]
        calls.clear()
        predict_probs(stack_models([model, model]), np.ones((rows, 3)))
        assert calls == [(2, rows, 3)]
        calls.clear()
        predict_features(model, np.ones((rows, 3)))
        assert calls == []


class TestLayerListsBuiltOnce:
    """Each network's (weight, bias) list is built once per parameter set,
    and a new set gets its own."""

    def test_second_calls_look_up_no_tensor(self, monkeypatch):
        model = init_model(3, (5, 4), 3, seed=0)
        disc = init_discriminator(model.feature_dim, 6, seed=1)
        x = np.ones((4, 3))
        forward_logits(model, x)
        predict_probs(model, x)
        discriminator_logits(disc, np.ones((4, 4)))
        lookups = []
        getitem = ParamSet.__getitem__

        def counted(self, name):
            lookups.append(name)
            return getitem(self, name)

        monkeypatch.setattr(ParamSet, "__getitem__", counted)
        for _ in range(3):
            forward_logits(model, x)
            predict_probs(model, x)
            predict_features(model, x)
            discriminator_logits(disc, np.ones((4, 4)))
        # the one lookup left is the head weight whose shape gives the model axes
        assert set(lookups) == {"head.w"}
        ext = _layers(model.params, "ext", 2)
        assert ext is _layers(model.params, "ext", 2)
        assert [(w, b) for w, b in ext] == [(model.params["ext.w0"], model.params["ext.b0"]),
                                            (model.params["ext.w1"], model.params["ext.b1"])]

    def test_a_new_set_gets_its_own_lists(self):
        model = init_model(3, (5, 4), 3, seed=0)
        x = np.ones((4, 3))
        before = predict_probs(model, x)
        moved = replace(model, params=ParamSet(
            {name: t.data + 1.0 for name, t in model.params.items()}))
        for net, depth in (("ext", 2), ("head", 1)):
            for (w, b), (w0, b0) in zip(_layers(moved.params, net, depth),
                                        _layers(model.params, net, depth)):
                assert w is not w0 and b is not b0
                assert w.data.base is moved.params._values
        assert not np.array_equal(predict_probs(moved, x), before)
        assert predict_probs(model, x).tobytes() == before.tobytes()

    def test_dann_model_reads_its_own_set(self):
        # train_dann trains on a merged set and returns a copy of the
        # classifier's tensors: the returned model's lists are the copy's
        cfg = TrainConfig(dataset=DatasetSpec(kind="blobs", num_classes=2, per_class=8),
                          arch=(4,), batch_size=4, baseline_epochs=1, seed=0)
        source, target = gen_blobs_shift(2, 8, 2, 30.0, (), 0.1, seed=0)
        model = train_dann(cfg, source, target).model
        for net, depth in (("ext", 1), ("head", 1)):
            for w, b in _layers(model.params, net, depth):
                assert w.data.base is model.params._values
                assert b.data.base is model.params._values
        fresh = replace(model, params=ParamSet(
            {name: t.data for name, t in model.params.items()}))
        assert (predict_probs(model, source.features).tobytes()
                == predict_probs(fresh, source.features).tobytes())


class TestStackedModels:
    """A stacked pair runs as its two models do, value for value."""

    @staticmethod
    def _pair(seed):
        rng = np.random.default_rng(seed)
        models = [random_model(rng, input_dim=2, widths=(64, 64, 32))
                  for _ in range(2)]
        return rng, models, stack_models(models)

    def test_layout_and_round_trip(self, tmp_path):
        _, models, pair = self._pair(40)
        shapes = {name: t.data.shape for name, t in pair.params.items()}
        assert shapes["ext.w0"] == (2, 2, 64) and shapes["ext.b0"] == (2, 64)
        assert shapes["head.w"] == (2, 32, 3) and shapes["head.b"] == (2, 3)
        assert shapes["log_temperature"] == (2, 1)
        for model, back in zip(models, unstack_models(pair)):
            assert back.params.names() == model.params.names()
            assert value_bytes(back.params) == value_bytes(model.params)
            # an unstacked model saves and loads as any other
            save_checkpoint(back, tmp_path / "m.ckpt")
            again = load_checkpoint(tmp_path / "m.ckpt")
            assert value_bytes(again.params) == value_bytes(model.params)

    @pytest.mark.parametrize("rows", [0, 1, 63, 64, 65, 300])
    def test_inference_equals_each_model_bit_for_bit(self, rows):
        rng, models, pair = self._pair(rows)
        x = rng.normal(size=(rows, 2))
        probs, feats = predict_probs(pair, x), predict_features(pair, x)
        assert probs.shape == (2, rows, 3) and feats.shape == (2, rows, 32)
        for k, model in enumerate(models):
            assert probs[k].tobytes() == predict_probs(model, x).tobytes()
            assert feats[k].tobytes() == predict_features(model, x).tobytes()

    def test_graph_forward_equals_each_model_bit_for_bit(self):
        # model k's 96 rows are three 32-row blocks, as in a matching
        # iteration; each block equals that model's own 32-row forward
        rng, models, pair = self._pair(41)
        x = rng.normal(size=(2, 96, 2))
        feats, logits, _ = forward_logits(pair, x)
        assert logits.shape == (2, 96, 3)
        for k, model in enumerate(models):
            for lo in (0, 32, 64):
                f, z, _ = forward_logits(model, x[k, lo:lo + 32])
                assert feats[k, lo:lo + 32].tobytes() == f.tobytes()
                assert logits[k, lo:lo + 32].tobytes() == z.tobytes()

    def test_input_needs_one_row_block_per_model(self):
        _, _, pair = self._pair(42)
        for shape in ((5, 2), (3, 5, 2), (2, 5, 3)):
            with pytest.raises(ValueError, match=r"\[2 x B x 2\]"):
                forward_logits(pair, np.zeros(shape))


class TestEnsemblePredict:
    def test_identical_models_match_single(self):
        model = init_model(2, (4,), 3, seed=6)
        rng = np.random.default_rng(6)
        x = rng.normal(size=(10, 2))
        assert np.array_equal(ensemble_predict(model, model, x),
                              predict_labels(model, x))

    def test_hand_arithmetic(self):
        # p=[0.6,0.4], q=[0.1,0.9] -> sum [0.7,1.3] -> label 1
        a = manual_model([[np.log(0.6), np.log(0.4)]], [0.0, 0.0])
        b = manual_model([[np.log(0.1), np.log(0.9)]], [0.0, 0.0])
        x = np.array([[1.0]])
        assert ensemble_predict(a, b, x)[0] == 1

    def test_tie_breaks_to_lower_index(self):
        a = manual_model([[0.0, 0.0]], [0.0, 0.0])
        assert ensemble_predict(a, a, np.array([[1.0]]))[0] == 0

    def test_scale_invariance_of_argmax(self):
        rng = np.random.default_rng(7)
        sdm = init_model(2, (4,), 3, seed=7)
        tdm = init_model(2, (4,), 3, seed=8)
        x = rng.normal(size=(50, 2))
        base = ensemble_predict(sdm, tdm, x)
        from fixbi.models import predict_probs
        summed = predict_probs(sdm, x) + predict_probs(tdm, x)
        for scale in (0.25, 3.0, 117.0):
            assert np.array_equal(np.argmax(summed * scale, axis=1), base)

    def test_class_count_mismatch_rejected(self):
        a = init_model(2, (4,), 3, seed=9)
        b = init_model(2, (4,), 4, seed=9)
        with pytest.raises(ValueError):
            ensemble_predict(a, b, np.zeros((1, 2)))


class TestCloneAndDiscriminator:
    def test_clone_is_independent(self):
        # the models that unstack_models returns are copies
        model = init_model(2, (4,), 2, seed=10)
        twin = unstack_models(stack_models([model]))[0]
        twin.params["head.w"].data[0, 0] += 1.0
        assert model.params["head.w"].data[0, 0] != twin.params["head.w"].data[0, 0]

    def test_discriminator_shapes(self):
        disc = init_discriminator(8, 16, seed=0)
        out, _ = discriminator_logits(disc, np.zeros((5, 8)))
        assert out.shape == (5, 2)

    @pytest.mark.parametrize("grl_lambda", [-0.1, float("nan")])
    def test_negative_grl_lambda_rejected_once_built(self, grl_lambda):
        with pytest.raises(ValueError, match="grl_lambda"):
            init_discriminator(4, 8, 0, grl_lambda=grl_lambda)
        disc = init_discriminator(4, 8, 0, grl_lambda=0.0)
        with pytest.raises(ValueError, match="grl_lambda"):
            DomainDiscriminator(disc.params, grl_lambda)


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        model = init_model(3, (6, 4), 3, seed=13)
        model.params["log_temperature"].data[0] = -0.25
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        back = load_checkpoint(path)
        assert back.input_dim == 3 and back.widths == (6, 4) and back.num_classes == 3
        assert value_bytes(back.params) == value_bytes(model.params)
        # writing again is byte-identical
        path2 = tmp_path / "m2.ckpt"
        save_checkpoint(back, path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_magic_line_and_theta_shape(self, tmp_path):
        model = init_model(2, (4,), 2, seed=14)
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        lines = path.read_text().split("\n")
        assert lines[0] == "FIXBI-CKPT v1"
        assert "name log_temperature shape 1" in lines

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_text("NOT-A-CKPT\n")
        with pytest.raises(ValueError):
            load_checkpoint(path)

    def test_value_count_mismatch_rejected(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_text("FIXBI-CKPT v1\nname head.w shape 2,2\n1.0 2.0 3.0\n")
        with pytest.raises(ValueError):
            load_checkpoint(path)

    def test_one_layer_model_round_trip(self, tmp_path):
        model = manual_model([[0.2, -0.3], [1.0, 0.5]], [0.0, 0.1], theta=0.7)
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        back = load_checkpoint(path)
        assert back.widths == ()
        assert back.input_dim == 2
        assert np.array_equal(back.params["head.b"].data, model.params["head.b"].data)


    @pytest.mark.parametrize("name,shape", [
        ("ext.w1", (4, 3)),           # rows differ from the 5-wide layer before
        ("ext.b0", (4,)),             # bias shorter than its layer
        ("head.w", (4, 2)),           # rows differ from the feature dim
        ("head.b", (3,)),             # length differs from the class count
        ("log_temperature", (2,)),
    ])
    def test_broken_shape_chain_names_the_tensor(self, tmp_path, name, shape):
        model = init_model(2, (5, 3), 2, seed=15)
        model.params[name].data = np.zeros(shape)
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        with pytest.raises(ValueError, match=f"'{name}' has shape") as err:
            load_checkpoint(path)
        assert str(err.value).startswith(str(path))

    def test_missing_bias_rejected(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(init_model(2, (5, 3), 2, seed=16), path)
        lines = path.read_text().split("\n")
        i = lines.index("name ext.b1 shape 3")
        path.write_text("\n".join(lines[:i] + lines[i + 2:]))
        with pytest.raises(ValueError, match="missing tensor 'ext.b1'"):
            load_checkpoint(path)

    # a discriminator tensor, and a layer after a missing ext.w2
    @pytest.mark.parametrize("name", ["disc.w0", "ext.w3"])
    def test_tensor_outside_the_layout_rejected(self, tmp_path, name):
        path = tmp_path / "m.ckpt"
        save_checkpoint(init_model(2, (5, 3), 2, seed=17), path)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(f"name {name} shape 3,2\n" + " ".join(["0.5"] * 6) + "\n")
        with pytest.raises(ValueError, match=f"unexpected tensor '{name}'") as err:
            load_checkpoint(path)
        assert str(err.value).startswith(str(path))

    def test_block_written_lines_equal_one_join(self, tmp_path):
        # ext.w0 holds 130 x 300 = 39,000 values: two whole blocks and a
        # ragged third
        model = init_model(130, (300,), 2, seed=18)
        assert 2 * _CKPT_BLOCK < model.params["ext.w0"].data.size < 3 * _CKPT_BLOCK
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        want = [CKPT_MAGIC]
        for name, t in model.params.items():
            want.append(f"name {name} shape {','.join(map(str, t.data.shape))}")
            want.append(" ".join(map(repr, t.data.reshape(-1).tolist())))
        assert path.read_bytes() == ("\n".join(want) + "\n").encode("utf-8")
        assert value_bytes(load_checkpoint(path).params) == value_bytes(model.params)

    def test_peak_memory_is_bounded_by_a_block(self, tmp_path):
        # the wide workload's model: 2.16 MB on disk, and its 65,536-value
        # ext.w1 took about 7.2 MB of peak when its line was joined at once
        model = init_model(16, (256, 256, 128), 3, seed=19)
        tracemalloc.start()
        try:
            save_checkpoint(model, tmp_path / "m.ckpt")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3_000_000


class TestExtractFeatures:
    def test_identity_extractor(self):
        model = manual_model([[1.0, 0.0], [0.0, 1.0]], [0.0, 0.0])
        x = np.array([[0.5, -0.5]])
        feats, reverse = extract_features(model, x)
        assert np.array_equal(feats, x)
        assert reverse(x) is x  # no layers to write
