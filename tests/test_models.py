"""Network builders, forward conformance, embeddings, and checkpoints."""

import numpy as np
import pytest

from svkit.errors import (
    CheckpointError,
    ChecksumError,
    ConfigError,
    TruncatedFileError,
    VersionMismatchError,
)
from svkit.models.checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from svkit.models.zoo import build_3dcnn, build_lcn_baseline, build_network
from svkit.rng import Rng

# Per-layer (depth, time, freq, channels) outputs of the full-size cube
# network at stack depth 20 with valid depth convolution.
EXPECTED_CHAIN_20 = {
    "conv1_1": (18, 80, 36, 16),
    "conv1_2": (16, 36, 36, 16),
    "pool1": (16, 36, 18, 16),
    "conv2_1": (14, 36, 15, 32),
    "conv2_2": (12, 15, 15, 32),
    "pool2": (12, 15, 7, 32),
    "conv3_1": (10, 15, 5, 64),
    "conv3_2": (8, 9, 5, 64),
    "conv4_1": (6, 9, 3, 128),
    "conv4_2": (4, 3, 3, 128),
    "flatten": (4608,),
    "fc5": (128,),
}


class TestBuild3dcnn:
    def test_inferred_shape_chain_at_depth_20(self):
        net = build_3dcnn(20, 511, Rng(0))
        shapes = dict(net.layer_output_shapes())
        for name, expected in EXPECTED_CHAIN_20.items():
            assert shapes[name] == expected, name
        assert shapes["output"] == (511,)

    def test_forward_pass_shapes_at_depth_20(self):
        net = build_3dcnn(20, 8, Rng(0))
        x = Rng(1).normal((20, 80, 40, 1))
        _, caches = net.forward_with_cache(x[None], mode="train")
        by_name = {}
        for layer, nxt in zip(net.layers, caches[1:] + [None]):
            if nxt is not None:
                by_name[layer.name] = nxt["x"].shape[1:]
        for name, expected in EXPECTED_CHAIN_20.items():
            assert by_name[name] == expected, name

    def test_depth_trace_valid_mode(self):
        net = build_3dcnn(20, 8, Rng(0))
        depths = [shape[0] for name, shape in net.layer_output_shapes() if name.startswith("conv")]
        assert depths[::3] == [18, 16, 14, 12, 10, 8, 6, 4]  # conv, then its bn/act repeats

    def test_same_depth_padding_below_threshold(self):
        net = build_3dcnn(5, 8, Rng(0))
        shapes = dict(net.layer_output_shapes())
        assert shapes["conv4_2"] == (5, 3, 3, 128)
        assert shapes["flatten"] == (5 * 3 * 3 * 128,)
        assert net.layers[0].pad_depth

    def test_depth_20_uses_valid_convolution(self):
        net = build_3dcnn(20, 8, Rng(0))
        assert not net.layers[0].pad_depth

    def test_bad_arguments(self):
        with pytest.raises(ConfigError):
            build_3dcnn(0, 8, Rng(0))
        with pytest.raises(ConfigError):
            build_3dcnn(20, 1, Rng(0))


class TestBuildLcn:
    def test_hidden_widths(self):
        net = build_lcn_baseline(12, Rng(0))
        shapes = [s for _, s in net.layer_output_shapes()]
        assert shapes[0] == (800,)  # 10*5 patches * 16 units
        widths = [s[0] for name, s in net.layer_output_shapes() if name in ("fc1", "fc2", "fc3")]
        assert widths == [256, 256, 256]
        assert shapes[-1] == (12,)

    def test_zero_input_uniform_softmax(self):
        net = build_lcn_baseline(5, Rng(0))
        for layer in net.layers:
            if layer.bias is not None:
                assert not layer.bias.any()
        logits = net.forward(np.zeros((80, 40)))
        np.testing.assert_allclose(logits, logits[0], atol=1e-12)

    def test_parameter_count_closed_form(self):
        n_classes, units, hidden = 7, 16, 256
        net = build_lcn_baseline(n_classes, Rng(0), units_per_patch=units, hidden_width=hidden)
        patches = 10 * 5
        lc = patches * units * 64 + patches * units
        lc_out = patches * units
        fcs = (lc_out * hidden + hidden) + 2 * (hidden * hidden + hidden)
        prelus = lc_out + 3 * hidden
        head = hidden * n_classes + n_classes
        assert net.parameter_count() == lc + fcs + prelus + head


class TestForwardAndEmbed:
    def test_logits_length_and_determinism(self):
        net = build_lcn_baseline(9, Rng(2))
        x = Rng(3).normal((80, 40))
        a = net.forward(x)
        b = net.forward(x)
        assert a.shape == (9,)
        np.testing.assert_array_equal(a, b)

    def test_reduced_network_matches_manual_composition(self):
        from svkit.nn.layers import fully_connected_forward, prelu_forward

        net = build_lcn_baseline(3, Rng(4), units_per_patch=2, hidden_width=5)
        x = Rng(5).normal((80, 40))
        from svkit.nn.layers import locally_connected_forward

        h = locally_connected_forward(x[None], net.layers[0])
        h = prelu_forward(h, net.layers[1].prelu_slope)
        for i in (2, 4, 6):
            h = fully_connected_forward(h, net.layers[i])
            h = prelu_forward(h, net.layers[i + 1].prelu_slope)
        logits = fully_connected_forward(h, net.layers[8])
        np.testing.assert_allclose(net.forward(x), logits[0], rtol=1e-14)

    def test_embedding_is_normalized_128(self):
        net = build_3dcnn(5, 4, Rng(0))
        emb = net.embed_vectors([Rng(1).normal((5, 80, 40, 1))])[0]
        assert emb.shape == (128,)
        assert abs(np.linalg.norm(emb) - 1.0) <= 1e-12

    def test_embed_equals_truncated_forward_normalized(self):
        from svkit.nn.layers import fully_connected_forward

        net = build_lcn_baseline(4, Rng(6))
        x = Rng(7).normal((80, 40))
        emb = net.embed_vectors([x])[0]
        assert emb.shape == (256,)  # last hidden layer width of the baseline
        head = net.layers[-1]
        full = net.forward(x)
        reconstructed = fully_connected_forward((emb * _pre_norm(net, x))[None], head)[0]
        np.testing.assert_allclose(reconstructed, full, rtol=1e-10)

    def test_build_network_dispatch(self):
        assert build_network("cnn3d", 5, 3, Rng(0)).spec.kind == "cnn3d"
        assert build_network("lcn_dvector", 1, 3, Rng(0)).spec.kind == "lcn_dvector"
        with pytest.raises(ConfigError):
            build_network("mystery", 1, 3, Rng(0))


def _pre_norm(net, x):
    _, caches = net.forward_with_cache(x, mode="infer", update_running=False)
    return float(np.linalg.norm(caches[-1]["x"][0]))  # the classifier head's input


class TestCheckpoints:
    def _checkpoint(self, seed=0):
        net = build_3dcnn(3, 3, Rng(seed), channel_widths=(2, 2, 2, 2), embedding_width=6)
        return Checkpoint.of(net, epoch=4, seed=seed)

    def test_save_load_save_byte_identical(self, tmp_path):
        ck = self._checkpoint()
        save_checkpoint(ck, tmp_path / "a.svck")
        loaded = load_checkpoint(tmp_path / "a.svck")
        save_checkpoint(loaded, tmp_path / "b.svck")
        assert (tmp_path / "a.svck").read_bytes() == (tmp_path / "b.svck").read_bytes()

    def test_parameters_round_trip_bitwise(self, tmp_path):
        ck = self._checkpoint()
        save_checkpoint(ck, tmp_path / "a.svck")
        loaded = load_checkpoint(tmp_path / "a.svck")
        assert loaded.spec == ck.spec
        assert loaded.epoch == 4 and loaded.seed == 0
        for a, b in zip(ck.layers, loaded.layers):
            assert a.kind == b.kind and a.name == b.name
            for field, arr in a.learnable():
                assert np.array_equal(arr, getattr(b, field))

    def test_corrupt_payload_byte_raises_checksum(self, tmp_path):
        save_checkpoint(self._checkpoint(), tmp_path / "a.svck")
        raw = bytearray((tmp_path / "a.svck").read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        (tmp_path / "c.svck").write_bytes(bytes(raw))
        with pytest.raises(ChecksumError):
            load_checkpoint(tmp_path / "c.svck")

    @pytest.mark.parametrize("offset", [12, 13])
    def test_corrupt_header_byte_raises_checkpoint_error(self, tmp_path, offset):
        save_checkpoint(self._checkpoint(), tmp_path / "a.svck")
        raw = bytearray((tmp_path / "a.svck").read_bytes())
        for flip in (0x01, 0xFF):  # breaks the JSON syntax / the UTF-8 decoding
            bad = bytearray(raw)
            bad[offset] ^= flip
            (tmp_path / "h.svck").write_bytes(bytes(bad))
            with pytest.raises(CheckpointError):
                load_checkpoint(tmp_path / "h.svck")

    def test_empty_file_raises_truncation(self, tmp_path):
        (tmp_path / "e.svck").write_bytes(b"")
        with pytest.raises(TruncatedFileError):
            load_checkpoint(tmp_path / "e.svck")

    def test_cut_file_raises_truncation(self, tmp_path):
        save_checkpoint(self._checkpoint(), tmp_path / "a.svck")
        raw = (tmp_path / "a.svck").read_bytes()
        (tmp_path / "t.svck").write_bytes(raw[: len(raw) - 100])
        with pytest.raises(TruncatedFileError):
            load_checkpoint(tmp_path / "t.svck")

    def test_version_mismatch(self, tmp_path):
        save_checkpoint(self._checkpoint(), tmp_path / "a.svck")
        raw = bytearray((tmp_path / "a.svck").read_bytes())
        raw[4] = 99
        (tmp_path / "v.svck").write_bytes(bytes(raw))
        with pytest.raises(VersionMismatchError):
            load_checkpoint(tmp_path / "v.svck")

    def test_loaded_network_forward_identical(self, tmp_path):
        ck = self._checkpoint()
        x = Rng(9).normal((3, 80, 40, 1))
        before = ck.to_network().forward(x)
        save_checkpoint(ck, tmp_path / "a.svck")
        after = load_checkpoint(tmp_path / "a.svck").to_network().forward(x)
        np.testing.assert_array_equal(before, after)

    def test_summary_mentions_every_layer(self):
        net = build_3dcnn(20, 6, Rng(0))
        text = net.summary()
        for name in EXPECTED_CHAIN_20:
            assert name in text
