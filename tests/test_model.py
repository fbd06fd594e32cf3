import json

import numpy as np
import pytest

from hafx.attention import AblationMode, Activation, HybridSpec, WindowSpec
from hafx.checkpoint import (
    MAGIC,
    load_checkpoint,
    load_model,
    save_checkpoint,
    save_model,
)
from hafx.errors import (
    BadMagicError,
    CheckpointError,
    ContractError,
    InputError,
    ShapeError,
    TruncatedFileError,
    VersionMismatchError,
)
from hafx.model import PHI_NOISE_STD, AttnSettings, Model, ModelConfig, init_model, lm_loss
from hafx.rng import SeededRng
from hafx.tensor import Tensor

SMALL = ModelConfig(vocab_size=16, d_model=16, n_layers=2, n_heads=2, max_T=32, mlp_width=32)


@pytest.fixture
def model():
    return init_model(SMALL)


def tokens(T=10, seed=3):
    return SeededRng(seed, "tok").integers(0, SMALL.vocab_size, (T,))


def hybrid_settings(mode=AblationMode.FULL_HYBRID, window=4):
    return AttnSettings("hybrid", mode, WindowSpec(window, sink_count=2), HybridSpec(0.5))


# -- config / init ---------------------------------------------------------


def test_config_rejects_indivisible_heads():
    with pytest.raises(ShapeError):
        ModelConfig(d_model=10, n_heads=3)


def test_config_default_mlp_width():
    assert ModelConfig(d_model=32, n_heads=2).mlp_width == 128


def test_init_deterministic():
    a = init_model(SMALL).params["emb"].data
    b = init_model(SMALL).params["emb"].data
    assert (a == b).all()


def test_forward_deterministic_bitwise(model):
    t = tokens()
    a = model.forward_logits(t, AttnSettings()).data
    b = model.forward_logits(t, AttnSettings()).data
    assert (a == b).all()


def test_forward_shapes(model):
    out = model.forward_logits(tokens(7), AttnSettings())
    assert out.shape == (7, SMALL.vocab_size)


def test_forward_rejects_oov(model):
    with pytest.raises(InputError):
        model.forward_logits(np.array([0, 99]), AttnSettings())


def test_forward_rejects_too_long(model):
    with pytest.raises(InputError):
        model.forward_logits(np.zeros(64, dtype=np.int64), AttnSettings())


def test_causality_perturbation(model):
    """Changing token t must not move logits at positions < t."""
    t = tokens(12)
    base = model.forward_logits(t, AttnSettings()).data
    t2 = t.copy()
    t2[8] = (t2[8] + 1) % SMALL.vocab_size
    pert = model.forward_logits(t2, AttnSettings()).data
    assert (base[:8] == pert[:8]).all()
    assert np.abs(base[8:] - pert[8:]).max() > 0


def test_causality_hybrid_path(model):
    model.attach_feature_maps(4)
    t = tokens(12)
    attn = hybrid_settings()
    base = model.forward_logits(t, attn).data
    t2 = t.copy()
    t2[6] = (t2[6] + 3) % SMALL.vocab_size
    pert = model.forward_logits(t2, attn).data
    assert (base[:6] == pert[:6]).all()


# -- feature maps ------------------------------------------------------------


def test_attach_feature_maps_shape_and_double_attach(model):
    model.attach_feature_maps(4, Activation.SOFTMAX)
    assert len(model.phi) == SMALL.n_layers
    assert len(model.phi[0]) == SMALL.n_heads
    assert model.phi[0][0].w.shape == (SMALL.h_d, 4)
    with pytest.raises(ContractError):
        model.attach_feature_maps(4)


def test_feature_map_init_centered_on_identity(model):
    model.attach_feature_maps(8)
    noise = SeededRng(SMALL.seed, "phi-init").child("phi/1/0").normal((SMALL.h_d, 8),
                                                                      std=PHI_NOISE_STD)
    np.testing.assert_array_equal(model.phi[1][0].w.data, np.eye(SMALL.h_d, 8) + noise)


def test_phi_params_appear_in_named_parameters(model):
    n_before = len(model.named_parameters())
    model.attach_feature_maps(4)
    extra = len(model.named_parameters()) - n_before
    assert extra == 2 * SMALL.n_layers * SMALL.n_heads


# -- LoRA --------------------------------------------------------------------


def test_lora_zero_init_is_bitwise_noop(model):
    t = tokens()
    base = model.forward_logits(t, AttnSettings()).data
    model.lora_attach()
    with_lora = model.forward_logits(t, AttnSettings()).data
    assert (base == with_lora).all()


def test_lora_merge_matches_adapter_forward(model):
    model.lora_attach(rank=4, alpha=8.0)
    rng = SeededRng(21, "lora-fill")
    for ad in model.lora.values():
        ad.b.data = rng.normal(ad.b.shape, std=0.05)
    t = tokens()
    adapter_out = model.forward_logits(t, AttnSettings()).data
    model.lora_merge()
    assert model.lora is None
    merged_out = model.forward_logits(t, AttnSettings()).data
    assert np.abs(adapter_out - merged_out).max() < 1e-12


def test_lora_param_count(model):
    model.lora_attach(("wq", "wv"), rank=4)
    assert len(model.lora) == 2 * SMALL.n_layers
    a = model.lora[(0, "wq")].a
    b = model.lora[(0, "wq")].b
    assert a.shape == (SMALL.d_model, 4) and b.shape == (4, SMALL.d_model)
    assert (b.data == 0).all()


def test_lora_rejects_bad_target_and_double_attach(model):
    with pytest.raises(ContractError):
        model.lora_attach(("wx",))
    model.lora_attach()
    with pytest.raises(ContractError):
        model.lora_attach()


def test_lora_merge_without_adapters(model):
    with pytest.raises(ContractError):
        model.lora_merge()


# -- trainability masks ----------------------------------------------------------


def test_set_trainable_phi_only(model):
    model.attach_feature_maps(4)
    model.set_trainable(lambda n: ".phi." in n)
    names = set(model.trainable_parameters())
    assert names and all(".phi." in n for n in names)


# -- lm_loss ----------------------------------------------------------------


def test_lm_loss_uniform_logits_is_log_vocab():
    logits = Tensor(np.zeros((5, 16)))
    loss = lm_loss(logits, np.zeros(5, dtype=np.int64))
    np.testing.assert_allclose(loss.data, np.log(16.0), atol=1e-12)


def test_lm_loss_oracle():
    rng = SeededRng(4, "loss")
    raw = rng.normal((6, 8))
    targets = rng.integers(0, 8, (6,))
    loss = lm_loss(Tensor(raw), targets)
    # independent recomputation with plain numpy
    p = np.exp(raw - raw.max(axis=-1, keepdims=True))
    p = p / p.sum(axis=-1, keepdims=True)
    expected = -np.log(p[np.arange(6), targets]).mean()
    np.testing.assert_allclose(loss.data, expected, atol=1e-12)


def test_lm_loss_mask_selects_positions():
    rng = SeededRng(5, "loss-mask")
    raw = rng.normal((4, 8))
    targets = rng.integers(0, 8, (4,))
    mask = np.array([0.0, 0.0, 1.0, 0.0])
    masked = lm_loss(Tensor(raw), targets, mask)
    single = lm_loss(Tensor(raw[2:3]), targets[2:3])
    np.testing.assert_allclose(masked.data, single.data, atol=1e-12)


def test_lm_loss_shape_mismatch():
    with pytest.raises(ShapeError):
        lm_loss(Tensor(np.zeros((3, 8))), np.zeros(4, dtype=np.int64))


# -- checkpoints ------------------------------------------------------------


def test_checkpoint_roundtrip_raw(tmp_path):
    path = tmp_path / "x.ckpt"
    tensors = {"a": np.arange(6, dtype=np.float32).reshape(2, 3), "b": np.float32(1.5)}
    save_checkpoint(path, tensors, {"k": 1}, "base")
    loaded, meta = load_checkpoint(path)
    np.testing.assert_array_equal(loaded["a"], tensors["a"])
    assert meta == {"k": 1, "stage": "base"}


def test_checkpoint_bytes_deterministic(tmp_path, model):
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_model(p1, model, "base")
    save_model(p2, model, "base")
    assert p1.read_bytes() == p2.read_bytes()


def test_model_roundtrip_preserves_forward(tmp_path, model):
    model.attach_feature_maps(4)
    model.lora_attach(rank=4)
    path = tmp_path / "m.ckpt"
    save_model(path, model, "post-transfer")
    restored, stage = load_model(path)
    assert stage == "post-transfer"
    t = tokens()
    a = model.forward_logits(t, hybrid_settings()).data
    b = restored.forward_logits(t, hybrid_settings()).data
    # float32 storage, so compare at storage precision
    assert np.abs(a - b).max() < 1e-5


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(BadMagicError):
        load_checkpoint(path)


def test_checkpoint_bad_version(tmp_path):
    path = tmp_path / "ver.ckpt"
    path.write_bytes(MAGIC + (99).to_bytes(4, "little") + b"\x00" * 8)
    with pytest.raises(VersionMismatchError):
        load_checkpoint(path)


def test_checkpoint_truncated(tmp_path, model):
    path = tmp_path / "trunc.ckpt"
    save_model(path, model, "base")
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) // 2])
    with pytest.raises(TruncatedFileError):
        load_checkpoint(path)


def test_checkpoint_rejects_unknown_stage(tmp_path):
    with pytest.raises(ValueError):
        save_checkpoint(tmp_path / "s.ckpt", {}, {}, "released")


def resave(path, edit):
    """Rewrite a checkpoint with `edit(tensors)` applied to its tensors."""
    tensors, meta = load_checkpoint(path)
    edit(tensors)
    save_checkpoint(path, tensors, {k: v for k, v in meta.items() if k != "stage"},
                    meta["stage"])


def test_load_model_rejects_a_wrong_shape(tmp_path, model):
    path = tmp_path / "shape.ckpt"
    save_model(path, model, "base")
    resave(path, lambda t: t.update(head=np.zeros((3, 3), dtype=np.float32)))
    with pytest.raises(CheckpointError, match=r"shape\.ckpt: tensor 'head' has shape \(3, 3\)"):
        load_model(path)


def test_load_model_rejects_an_unknown_tensor(tmp_path, model):
    path = tmp_path / "junk.ckpt"
    save_model(path, model, "base")
    resave(path, lambda t: t.update(junk=np.zeros(2, dtype=np.float32)))
    with pytest.raises(CheckpointError, match=r"junk\.ckpt: tensor 'junk'"):
        load_model(path)


def test_load_model_rejects_non_finite_values(tmp_path, model):
    path = tmp_path / "nan.ckpt"
    save_model(path, model, "base")
    resave(path, lambda t: t["emb"].__setitem__((0, 0), np.nan))
    with pytest.raises(CheckpointError, match=r"nan\.ckpt: tensor 'emb' holds non-finite"):
        load_model(path)


def rewrite_meta(path, edit=None, blob=None):
    """Replace the meta block of the checkpoint at `path` with `blob`, or
    with its JSON after `edit(meta)`; the tensors stay as they are."""
    data = path.read_bytes()
    end = 12 + int.from_bytes(data[8:12], "little")
    if blob is None:
        meta = json.loads(data[12:end])
        edit(meta)
        blob = json.dumps(meta).encode("utf-8")
    path.write_bytes(data[:8] + len(blob).to_bytes(4, "little") + blob + data[end:])


@pytest.mark.parametrize("edit, blob", [
    pytest.param(lambda m: m["config"].update(colour=1), None, id="unknown-config-key"),
    pytest.param(lambda m: m.pop("config"), None, id="missing-config"),
    pytest.param(lambda m: m["config"].update(vocab_size=-1), None, id="negative-vocab"),
    pytest.param(lambda m: m["config"].update(n_heads=0), None, id="zero-heads"),
    pytest.param(lambda m: m.update(phi={"d_prime": 4, "activation": "cubic"}), None,
                 id="unknown-activation"),
    pytest.param(lambda m: m.update(phi={"d_prime": 4, "activation": "relu"}), None,
                 id="removed-activation"),
    pytest.param(lambda m: m.update(lora={"targets": ["wq"], "alpha": 16.0}), None,
                 id="lora-without-rank"),
    pytest.param(lambda m: m.update(stage="released"), None, id="unknown-stage"),
    pytest.param(None, b'{"stage": "base", "config": \xff}', id="not-utf8"),
    pytest.param(None, b'{"stage": "base", ', id="not-json"),
    pytest.param(None, b'["base"]', id="not-an-object"),
])
def test_load_model_rejects_a_malformed_meta_block(tmp_path, model, edit, blob):
    path = tmp_path / "meta.ckpt"
    save_model(path, model, "base")
    rewrite_meta(path, edit, blob)
    with pytest.raises(CheckpointError, match=r"meta\.ckpt: meta block"):
        load_model(path)


def test_failed_checkpoint_write_keeps_the_earlier_file(tmp_path, model):
    path = tmp_path / "m.ckpt"
    save_model(path, model, "base")
    before = path.read_bytes()
    # "b" is written after "a", so the save fails partway through the file
    with pytest.raises(ValueError):
        save_checkpoint(path, {"a": np.ones(4), "b": np.array(["x"])}, {}, "base")
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["m.ckpt"]
