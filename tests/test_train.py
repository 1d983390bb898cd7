"""Harness contracts: stage separation, encoder freezing, determinism of
checkpoints and evaluation artifacts. Uses a tiny model so each run is fast."""

import contextlib
import math
import os
import re
import shutil
import signal
import sys
import threading
import time
import tracemalloc
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from semtok import tensor as T
from semtok.baselines import KIND_AVG_POOL, KIND_GROUPING, KIND_IDENTITY, KIND_RANDOM_DROP, ReducerSpec, reduce
from semtok.data import generate_dataset
from semtok.encoder import MASK_FULL, MASK_ISOLATED
from semtok.encoder import Encoder
from semtok.model import BagHead, Connector
from semtok.optim import Adam
from semtok.tensor_io import load_checkpoint
from semtok.train import (
    CACHE_CHUNK_SCENES,
    SHARD_SCENES,
    STAGE2_ONLY_FIELDS,
    RunConfig,
    Stage2Model,
    _bag_loss,
    _fit,
    ensure_dataset,
    evaluate,
    load_stage2_model,
    train_stage1,
    train_stage2,
)


def tiny_cfg(tmp_path, **kwargs):
    defaults = dict(
        image_height=32,
        image_width=32,
        patch_size=8,
        embed_dim=32,
        num_layers=2,
        num_heads=2,
        head_blocks=1,
        train_count=48,
        eval_count=24,
        epochs=1,
        batch_size=16,
        seed=3,
        out_dir=str(tmp_path / "run"),
        reducer=KIND_GROUPING,
        target_tokens=4,
    )
    defaults.update(kwargs)
    return RunConfig(**defaults)


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("trained")
    cfg = tiny_cfg(tmp_path)
    stage1 = train_stage1(cfg)
    stage2 = train_stage2(cfg, stage1)
    return cfg, stage1, stage2, tmp_path


def test_stage1_backward_allocates_little_beyond_the_forward():
    # interior gradients are handed on and dropped during the sweep, so one
    # default-size stage-1 backward needs little memory beyond what the
    # forward holds (keeping and copying every gradient needed about 65%)
    cfg = RunConfig()
    rng = np.random.default_rng(0)
    encoder = Encoder(cfg.encoder_config(), rng)
    connector, bag_head = Connector(cfg.embed_dim, rng), BagHead(cfg.embed_dim, cfg.num_classes, rng)
    images = rng.random((cfg.batch_size, cfg.image_height, cfg.image_width, 3), dtype=np.float32)
    presence = (rng.random((cfg.batch_size, cfg.num_classes)) < 0.4).astype(np.float32)
    tracemalloc.start()
    try:
        loss = _bag_loss(encoder, connector, bag_head, images, presence)
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        grads = loss.backward()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert encoder.patch_w in grads
    assert peak - held <= 0.25 * held, f"backward peak {peak - held} B above the {held} B the forward holds"


def test_fit_frees_each_graph_before_the_next_forward():
    # a step's graph holds all of its activations; keeping it alive while the
    # next forward builds another one doubles the training peak
    p = T.Tensor(np.zeros(3), requires_grad=True)
    activations = []

    def batch_loss(shard, step, offset):
        assert all(ref() is None for ref in activations), f"step {step} starts with an earlier graph alive"
        act = np.ones(3)
        activations.append(weakref.ref(act))
        return T.mul(p, T.Tensor(act)).sum()

    _fit(RunConfig(epochs=2, batch_size=2), 1, {"p": p}, 4, batch_loss)
    assert len(activations) == 4


def pooled_buffers(pool):
    return sum(len(bufs) for bufs in pool.values())


def recording_pools(monkeypatch):
    """Patch T.reuse_buffers to record every distinct pool dict it is given."""
    pools = []
    pooled = T.reuse_buffers

    def recording(pool=None):
        if pool is not None and not any(seen is pool for seen in pools):
            pools.append(pool)
        return pooled(pool)

    monkeypatch.setattr(T, "reuse_buffers", recording)
    return pools


@pytest.mark.parametrize("stage", [1, 2])
def test_fit_adds_no_pool_buffer_after_its_first_step(tmp_path, monkeypatch, stage):
    # every step allocates the same shapes in the same order, so the buffers
    # the first step left in each shard's pool serve all later steps
    counts = []
    adam_step = Adam.step

    def counted_step(opt, grads):
        adam_step(opt, grads)
        counts.append([pooled_buffers(pool) for pool in pools])

    # 64 scenes, batch 32: every step has two full 16-scene shards, on threads
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)))
    cfg = tiny_cfg(tmp_path, epochs=3, train_count=64, batch_size=32)
    stage1 = train_stage1(cfg) if stage == 2 else None
    pools = recording_pools(monkeypatch)
    monkeypatch.setattr(Adam, "step", counted_step)
    if stage == 1:
        train_stage1(cfg)
    else:
        train_stage2(cfg, stage1)
    assert len(pools) == 2 and len(counts) == 6 and all(counts[0])
    assert counts == [counts[0]] * 6, f"per-shard pool sizes after each step: {counts}"


def test_stage1_checkpoint_has_no_grouping_parameters(trained):
    _, stage1, _, _ = trained
    tensors, config, notes = load_checkpoint(stage1)
    grouping_names = [n for n in tensors if "grouping" in n or "semantic" in n or n.startswith("head.")]
    assert grouping_names == []
    assert any(n.startswith("encoder.") for n in tensors)
    assert any(n.startswith("connector.") for n in tensors)
    assert config["stage"] == "1"
    assert any("stage1 trains the encoder" in note for note in notes)


def test_stage1_learning_reduces_heldout_loss(trained):
    cfg, _, _, _ = trained
    report = Path(cfg.out_dir, "stage1_report.txt").read_text()
    lines = dict(line.split(" ") for line in report.splitlines())
    assert float(lines["eval_bag_loss_after"]) < float(lines["eval_bag_loss_before"])


def test_stage2_encoder_weights_bitwise_frozen(trained):
    _, stage1, stage2, _ = trained
    t1, _, _ = load_checkpoint(stage1)
    t2, _, _ = load_checkpoint(stage2)
    for name, arr in t1.items():
        if name.startswith("encoder."):
            assert np.array_equal(t2[name], arr), name


def test_stage2_trains_grouping_and_semantic_tokens(trained):
    cfg, _, stage2, _ = trained
    tensors, config, _ = load_checkpoint(stage2)
    assert "semantic_tokens" in tensors and "grouping.w_query" in tensors
    assert tensors["semantic_tokens"].shape == (cfg.target_tokens, cfg.embed_dim)
    assert config["stage"] == "2"
    # connector moved away from its stage-1 values (it kept training)
    t1, _, _ = load_checkpoint(Path(str(stage2)).parent / "stage1")
    assert not np.array_equal(tensors["connector.w1"], t1["connector.w1"])


def test_frozen_cache_fast_path_equals_encode(trained):
    # grouping@isolated: prepare() caches per-layer image keys and values so
    # a step runs only the semantic half; it must match the full encoder bit
    # for bit
    cfg, _, stage2, _ = trained
    model, _ = load_stage2_model(stage2)
    assert model.spec.kind == KIND_GROUPING and model.mask == MASK_ISOLATED
    train_ds = ensure_dataset(cfg, "train", cfg.out_dir)
    eval_ds = ensure_dataset(cfg, "eval", cfg.out_dir)
    idx = np.arange(6)
    params = model.trainable_params()

    def reference(dataset):
        tokens = model.encoder.patch_embed(dataset.images[idx])
        return model.encoder.encode(tokens, model.sem, MASK_ISOLATED)

    def loss_and_grads(img_out, sem_out):
        reduced, _ = reduce(img_out, sem_out, model.spec, params=model.grouping, seed=5)
        logits = model.head.forward(model.connector.forward(reduced), train_ds.query_ids[idx])
        loss = T.cross_entropy(logits, train_ds.targets[idx])
        grads = loss.backward()
        return loss.data, {name: grads.get(p) for name, p in params.items()}

    model.prepare(train_ds)
    fast = model.visual_outputs(train_ds, idx)
    ref = reference(train_ds)
    for a, b in zip(fast, ref):
        assert a.data.dtype == b.data.dtype and a.data.tobytes() == b.data.tobytes()
    loss_fast, grads_fast = loss_and_grads(*fast)
    loss_ref, grads_ref = loss_and_grads(*ref)
    assert loss_fast.tobytes() == loss_ref.tobytes()
    for name in params:
        assert grads_fast[name] is not None, name
        assert np.array_equal(grads_fast[name], grads_ref[name]), name


def test_cached_semantic_half_runs_no_image_token_op(trained, monkeypatch):
    # the store holds the image keys and values themselves, so a cached step
    # normalizes and projects the N semantic tokens only, never the M image ones
    cfg, _, stage2, _ = trained
    model, _ = load_stage2_model(stage2)
    train_ds = ensure_dataset(cfg, "train", cfg.out_dir)
    model.prepare(train_ds)
    shapes = []
    for name in ("linear", "layer_norm"):
        op = getattr(T, name)
        monkeypatch.setattr(T, name, lambda x, *args, op=op: shapes.append(x.shape) or op(x, *args))
    model.visual_outputs(train_ds, np.arange(6))
    assert shapes and not [shape for shape in shapes if shape[-2] == cfg.num_patches], shapes


def test_a_dataset_other_than_the_cached_one_is_encoded_from_pixels(trained, monkeypatch):
    # the cache is a memo of the training set: another dataset neither
    # re-prepares nor evicts it, and gets the reference encoder's bits
    cfg, _, stage2, _ = trained
    model, _ = load_stage2_model(stage2)
    train_ds = ensure_dataset(cfg, "train", cfg.out_dir)
    eval_ds = ensure_dataset(cfg, "eval", cfg.out_dir)
    idx = np.arange(6)
    model.prepare(train_ds)
    cache = model._frozen

    def prepare(dataset):
        raise AssertionError("visual_outputs must not prepare a dataset")

    monkeypatch.setattr(model, "prepare", prepare)
    served = model.visual_outputs(eval_ds, idx)
    reference = model.encoder.encode(model.encoder.patch_embed(eval_ds.images[idx]), model.sem, MASK_ISOLATED)
    for a, b in zip(served, reference):
        assert a.data.dtype == b.data.dtype and a.data.tobytes() == b.data.tobytes()
    assert model._frozen is cache


def test_frozen_cache_built_in_chunks_equals_encode(trained, tmp_path):
    # prepare() encodes CACHE_CHUNK_SCENES scenes at a time; a batch of 32
    # spanning full chunks and the partial last one equals encode on it
    cfg, _, stage2, _ = trained
    model, _ = load_stage2_model(stage2)
    count = 80 + CACHE_CHUNK_SCENES // 2
    dataset = generate_dataset(cfg.scene_spec(), count, 11, tmp_path / "data")
    idx = np.arange(count - 32, count)
    model.prepare(dataset)
    fast = model.visual_outputs(dataset, idx)
    ref = model.encoder.encode(model.encoder.patch_embed(dataset.images[idx]), model.sem, MASK_ISOLATED)
    for a, b in zip(fast, ref):
        assert a.data.tobytes() == b.data.tobytes()


def test_frozen_cache_build_peaks_near_what_it_keeps(trained, tmp_path):
    # the store is allocated once and filled chunk by chunk: no chunk lists
    # to join, so the build's transient peak stays small against the store
    cfg, _, stage2, _ = trained
    model, _ = load_stage2_model(stage2)
    dataset = generate_dataset(cfg.scene_spec(), 256, 12, tmp_path / "data256")
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        model.prepare(dataset)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    _, img_out, kv = model._frozen
    kept = img_out.nbytes + sum(a.nbytes for layer in kv for a in layer)
    assert peak - before <= 1.25 * kept, f"prepare peaked {peak - before} B above its start for a {kept} B store"


def test_shards_draw_the_noise_of_the_whole_batch(trained, monkeypatch):
    # a 20-scene step split into a 16-scene shard and a 4-scene one draws, per
    # scene, the Gumbel noise and random-drop subset the unsharded batch draws,
    # so its per-scene logits are the batch's bits
    import semtok.baselines as B
    import semtok.grouping as G

    cfg, stage1, _, _ = trained
    train_ds = ensure_dataset(cfg, "train", cfg.out_dir)
    batch = np.random.default_rng(4).permutation(len(train_ds))[:20]
    draws = []
    similarity, drop_indices = G.similarity, B.drop_indices
    monkeypatch.setattr(G, "similarity", lambda *a: draws.append(a[3]) or similarity(*a))
    monkeypatch.setattr(B, "drop_indices", lambda *a: draws.append(drop_indices(*a)) or draws[-1])
    for reducer in (KIND_GROUPING, KIND_RANDOM_DROP):
        model = Stage2Model(replace(cfg, reducer=reducer), load_checkpoint(stage1)[0])
        model.prepare(train_ds)

        def step(idx, offset=0):
            draws.clear()
            logits, _ = model.forward(train_ds, idx, step_seed=77, offset=offset)
            return logits.data, np.concatenate(draws) if reducer == KIND_GROUPING else np.stack(draws)

        whole = step(batch)
        shards = [step(batch[lo : lo + SHARD_SCENES], lo) for lo in range(0, len(batch), SHARD_SCENES)]
        assert [len(logits) for logits, _ in shards] == [16, 4]
        for got, want in zip(zip(*shards), whole):
            assert np.concatenate(got).tobytes() == want.tobytes(), reducer
        assert len(np.unique(whole[1].reshape(len(batch), -1), axis=0)) > len(batch) // 2, "a draw per scene"


@pytest.mark.parametrize(
    "reducer, mask, batch_size",
    [
        (KIND_GROUPING, MASK_ISOLATED, 32),
        (KIND_GROUPING, MASK_ISOLATED, 40),
        (KIND_GROUPING, MASK_FULL, 20),
        (KIND_RANDOM_DROP, MASK_ISOLATED, 20),
    ],
)
def test_threaded_training_equals_forced_serial_byte_for_byte(tmp_path, monkeypatch, reducer, mask, batch_size):
    # shards on threads write what the serial map writes, in both stages.
    # 48 scenes in batches of 32 leave a partial last batch; batches of 40
    # (16 + 16 + 8, then 8) and of 20 (16 + 4, then 8) also partial shards,
    # and three shards make the order of the gradient sum matter
    run = tmp_path / "run"
    cfg = tiny_cfg(tmp_path, batch_size=batch_size, reducer=reducer, mask_mode=mask)
    threads = set()
    pooled = T.reuse_buffers
    monkeypatch.setattr(T, "reuse_buffers", lambda pool=None: threads.add(threading.get_ident()) or pooled(pool))

    def train_and_evaluate():
        stage2 = train_stage2(cfg, train_stage1(cfg))
        evaluate(stage2, ensure_dataset(cfg, "eval", cfg.out_dir), out_dir=run / "eval")
        written = {}
        for sub in ("", "stage1", "stage2", "eval", "eval/maps"):
            if (run / sub).is_dir():
                written.update({f"{sub}/{name}": data for name, data in snapshot(run / sub).items()})
        shutil.rmtree(run)
        return written

    # more workers than cores, and thread switches as often as the interpreter allows
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threaded = train_and_evaluate()
    finally:
        sys.setswitchinterval(interval)
    if T._blas_thread_control() is not None:
        assert len(threads) > 1, "the shards should have run on worker threads"
    monkeypatch.setattr(T, "_blas_thread_control", lambda: None)
    serial = train_and_evaluate()
    assert {"/stage1_report.txt", "/stage2_report.txt", "stage2/manifest.txt", "eval/results.csv"} <= set(serial)
    assert sum(name.endswith(".pgm") for name in serial) == (cfg.eval_count if reducer == KIND_GROUPING else 0)
    assert threaded == serial


def snapshot(directory):
    return {p.name: p.read_bytes() for p in sorted(Path(directory).iterdir()) if p.is_file()}


def test_stage2_reruns_are_bitwise_identical(tmp_path):
    # repeating the same run (same seed, same out dir) rewrites every
    # checkpoint file with identical bytes
    cfg = tiny_cfg(tmp_path)
    s1 = train_stage1(cfg)
    s2 = train_stage2(cfg, s1)
    first = {"s1": snapshot(s1), "s2": snapshot(s2)}
    s1again = train_stage1(cfg)
    s2again = train_stage2(cfg, s1again)
    assert snapshot(s1again) == first["s1"]
    assert snapshot(s2again) == first["s2"]


def test_buffer_pool_leaves_checkpoints_results_and_maps_byte_identical(tmp_path, monkeypatch):
    # the reference path: the same runs with the pool replaced by a block
    # that does nothing write the same bytes
    run = tmp_path / "run"

    def train_and_evaluate():
        cfg = tiny_cfg(tmp_path, epochs=2)
        stage2 = train_stage2(cfg, train_stage1(cfg))
        evaluate(stage2, ensure_dataset(cfg, "eval", cfg.out_dir), out_dir=run / "eval")
        written = {}
        for sub in ("stage1", "stage2", "eval", "eval/maps"):
            written.update({f"{sub}/{name}": data for name, data in snapshot(run / sub).items()})
        shutil.rmtree(run)
        return written

    pools = recording_pools(monkeypatch)
    with_pool = train_and_evaluate()
    assert len(pools) == 2 and all(pools), "each stage's one shard should train inside its pool"
    monkeypatch.setattr(T, "reuse_buffers", contextlib.nullcontext)
    reference = train_and_evaluate()
    assert {"stage1/manifest.txt", "stage2/manifest.txt", "eval/results.csv"} <= set(reference)
    assert sum(name.endswith(".pgm") for name in reference) == 24
    assert with_pool == reference


def test_different_seed_changes_checkpoint(tmp_path):
    cfg_a = tiny_cfg(tmp_path, out_dir=str(tmp_path / "a"), seed=1)
    cfg_b = tiny_cfg(tmp_path, out_dir=str(tmp_path / "b"), seed=2)
    s1a, s1b = train_stage1(cfg_a), train_stage1(cfg_b)
    ta, _, _ = load_checkpoint(s1a)
    tb, _, _ = load_checkpoint(s1b)
    assert not np.array_equal(ta["encoder.patch_proj.weight"], tb["encoder.patch_proj.weight"])


def test_evaluate_twice_identical_record_and_maps(trained):
    cfg, _, stage2, tmp = trained
    eval_ds = ensure_dataset(cfg, "eval", cfg.out_dir)
    rec1, ext1 = evaluate(stage2, eval_ds, out_dir=tmp / "e1")
    rec2, ext2 = evaluate(stage2, eval_ds, out_dir=tmp / "e2")
    assert rec1 == rec2
    assert ext1["purity"] == ext2["purity"]
    assert (tmp / "e1" / "results.csv").read_bytes() == (tmp / "e2" / "results.csv").read_bytes()
    maps1 = sorted((tmp / "e1" / "maps").iterdir())
    maps2 = sorted((tmp / "e2" / "maps").iterdir())
    assert [p.name for p in maps1] == [p.name for p in maps2]
    assert len(maps1) == cfg.eval_count
    for a, b in zip(maps1, maps2):
        assert a.read_bytes() == b.read_bytes()


def test_evaluate_emits_recomputable_results_line(trained):
    cfg, _, stage2, tmp = trained
    eval_ds = ensure_dataset(cfg, "eval", cfg.out_dir)
    record, _ = evaluate(stage2, eval_ds, out_dir=tmp / "e3", baseline_score=0.5, dataset_name="toy")
    from semtok.metrics import read_results

    back = read_results(tmp / "e3" / "results.csv")
    assert len(back) == 1 and back[0].dataset_name == "toy"
    assert back[0].baseline_score == pytest.approx(0.5)
    assert back[0].sample_count == cfg.eval_count
    assert back[0].total_time > 0


def test_evaluate_computes_similarity_once_per_batch(trained, monkeypatch):
    # the maps come from the ids the reducer hardened, not from a second
    # assignment pass: one similarity per eval batch of cfg.batch_size scenes
    import semtok.grouping as G

    cfg, _, stage2, tmp = trained
    eval_ds = generate_dataset(cfg.scene_spec(), 130, seed=8, out_dir=tmp / "d130")
    calls = []
    similarity = G.similarity
    monkeypatch.setattr(G, "similarity", lambda *a, **k: calls.append(1) or similarity(*a, **k))
    _, extras = evaluate(stage2, eval_ds, out_dir=tmp / "e130")
    assert len(calls) == math.ceil(130 / cfg.batch_size)
    assert len(list((tmp / "e130" / "maps").iterdir())) == 130 and "purity" in extras


@pytest.fixture(scope="module")
def eval130(trained):
    cfg, _, _, tmp = trained
    return generate_dataset(cfg.scene_spec(), 130, seed=8, out_dir=tmp / "d130_parallel")


@pytest.mark.parametrize(
    "case",
    ["grouping_isolated", "grouping_full", KIND_RANDOM_DROP, KIND_AVG_POOL, KIND_IDENTITY],
)
def test_parallel_evaluate_equals_serial_byte_for_byte(trained, eval130, tmp_path, monkeypatch, case):
    # batches on threads with BLAS pinned to one thread write what the plain
    # serial map writes; 130 scenes leave a partial last batch
    cfg, stage1, stage2, _ = trained
    if case == "grouping_full":
        stage2 = train_stage2(replace(cfg, mask_mode=MASK_FULL, out_dir=str(tmp_path / "full")), stage1)
    spec = None
    if not case.startswith("grouping"):
        spec = ReducerSpec(case, cfg.num_patches if case == KIND_IDENTITY else cfg.target_tokens, seed=2)

    def run(out):
        _, extras = evaluate(stage2, eval130, reducer_spec=spec, out_dir=out)
        written = snapshot(out)
        if (out / "maps").is_dir():
            written.update({f"maps/{name}": data for name, data in snapshot(out / "maps").items()})
        extras.pop("maps_dir", None)
        return written, extras

    # more workers than cores, and thread switches as often as the interpreter allows
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threaded = run(tmp_path / "threaded")
    finally:
        sys.setswitchinterval(interval)
    monkeypatch.setattr(T, "_blas_thread_control", lambda: None)
    serial = run(tmp_path / "serial")
    assert threaded == serial
    assert sum(name.endswith(".pgm") for name in serial[0]) == (130 if case.startswith("grouping") else 0)


def test_evaluate_restores_the_blas_thread_count(trained, eval130):
    if T._blas_thread_control() is None:
        pytest.skip("no OpenBLAS thread setter found")
    get_threads, _ = T._blas_thread_control()
    _, _, stage2, _ = trained
    before = get_threads()
    evaluate(stage2, eval130)
    assert get_threads() == before


def test_forked_child_evaluates_after_a_threaded_parent(trained, eval130, tmp_path):
    # worker threads live for one map only: a child forked after a threaded
    # evaluate inherits none and runs its own evaluate to the end
    _, _, stage2, _ = trained
    evaluate(stage2, eval130)
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            evaluate(stage2, eval130, out_dir=tmp_path / "child")
            status = 0
        finally:
            os._exit(status)
    deadline = time.monotonic() + 120
    while time.monotonic() < deadline:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            break
        time.sleep(0.05)
    else:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        pytest.fail("the forked child did not finish its evaluate within 120 s")
    assert os.waitstatus_to_exitcode(status) == 0
    assert (tmp_path / "child" / "results.csv").is_file()


def test_evaluate_with_reducer_override(trained):
    cfg, _, stage2, tmp = trained
    eval_ds = ensure_dataset(cfg, "eval", cfg.out_dir)
    rec_drop, extras = evaluate(stage2, eval_ds, reducer_spec=ReducerSpec(KIND_RANDOM_DROP, 4, seed=9))
    assert "purity" not in extras
    rec_again, _ = evaluate(stage2, eval_ds, reducer_spec=ReducerSpec(KIND_RANDOM_DROP, 4, seed=9))
    assert rec_drop == rec_again


def test_baseline_run_has_no_grouping_params(tmp_path):
    cfg = tiny_cfg(tmp_path, reducer=KIND_AVG_POOL, target_tokens=4)
    s1 = train_stage1(cfg)
    s2 = train_stage2(cfg, s1)
    tensors, _, _ = load_checkpoint(s2)
    assert "semantic_tokens" not in tensors
    assert not any(n.startswith("grouping.") for n in tensors)
    # its frozen store holds image outputs only, the bits encode gives
    model, _ = load_stage2_model(s2)
    train_ds = ensure_dataset(cfg, "train", cfg.out_dir)
    model.prepare(train_ds)
    _, img_out, kv = model._frozen
    ref, _ = model.encoder.encode(model.encoder.patch_embed(train_ds.images))
    assert kv is None and img_out.dtype == ref.data.dtype and img_out.tobytes() == ref.data.tobytes()
    eval_ds = ensure_dataset(cfg, "eval", cfg.out_dir)
    with pytest.raises(ValueError, match=re.escape(str(s2)) + ": checkpoint has no grouping parameters"):
        evaluate(s2, eval_ds, reducer_spec=ReducerSpec(KIND_GROUPING, 4))


def test_full_mask_mode_trains(tmp_path):
    cfg = tiny_cfg(tmp_path, mask_mode=MASK_FULL, epochs=1, train_count=32, eval_count=16)
    s1 = train_stage1(cfg)
    s2 = train_stage2(cfg, s1)
    eval_ds = ensure_dataset(cfg, "eval", cfg.out_dir)
    rec, extras = evaluate(s2, eval_ds)
    assert 0.0 <= rec.score <= 1.0 and "purity" in extras


def test_accuracy_by_query_kind_covers_kinds(trained):
    # the per-kind accuracies, weighted by each kind's scene count, give back
    # exactly the overall number of correct answers: for the checkpoint's own
    # grouping reducer and for a baseline override
    cfg, _, stage2, _ = trained
    eval_ds = ensure_dataset(cfg, "eval", cfg.out_dir)
    counts = {kind: eval_ds.query_kinds.count(kind) for kind in set(eval_ds.query_kinds)}
    for spec in (None, ReducerSpec(KIND_AVG_POOL, 4)):
        record, extras = evaluate(stage2, eval_ds, reducer_spec=spec)
        by_kind = extras["accuracy_by_query_kind"]
        assert set(by_kind) == set(counts)
        assert all(0.0 <= v <= 1.0 for v in by_kind.values())
        correct = sum(round(by_kind[kind] * n) for kind, n in counts.items())
        assert correct == round(record.score * len(eval_ds))


def test_a_given_dataset_that_disagrees_with_the_run_is_refused(trained, tmp_path):
    # a SceneDataset passed in is checked as one loaded from a path would be
    cfg, stage1, _, _ = trained
    five = generate_dataset(replace(cfg, num_classes=5).scene_spec(), 8, 1, tmp_path / "d5")
    eval_ds = ensure_dataset(cfg, "eval", cfg.out_dir)
    run = replace(cfg, out_dir=str(tmp_path / "r"))
    with pytest.raises(ValueError, match="train data: dataset has num_classes=5 but this run has num_classes=8"):
        train_stage1(run, five, eval_ds)
    with pytest.raises(ValueError, match="eval data: dataset has num_classes=5 but this run has num_classes=8"):
        train_stage2(run, stage1, eval_ds, five)


def test_stale_dataset_is_refused_and_a_matching_one_reused(tmp_path, monkeypatch):
    import semtok.train as TR

    cfg = tiny_cfg(tmp_path, train_count=8)
    first = ensure_dataset(cfg, "train", tmp_path)
    sub = tmp_path / f"data_train_seed{cfg.seed}"
    with pytest.raises(ValueError, match=re.escape(str(sub)) + r".*train_count=8 .* train_count=5"):
        ensure_dataset(replace(cfg, train_count=5), "train", tmp_path)
    with pytest.raises(ValueError, match=re.escape(str(sub)) + r".*pixel_noise=0\.05 .* pixel_noise=0\.2"):
        ensure_dataset(replace(cfg, pixel_noise=0.2), "train", tmp_path)

    def regenerate(*args):
        raise AssertionError("a matching dataset must be reused, not rewritten")

    monkeypatch.setattr(TR, "generate_dataset", regenerate)
    again = ensure_dataset(cfg, "train", tmp_path)
    assert np.array_equal(again.images, first.images) and again.spec == first.spec


def test_stale_ablation_checkpoints_are_refused(tmp_path, monkeypatch):
    import semtok.train as TR

    cfg = tiny_cfg(tmp_path, out_dir=str(tmp_path / "abl"), train_count=16, eval_count=8)
    rows = TR.run_ablation("mask_mode", cfg, seeds=[0])

    def retrain(*args):
        raise AssertionError("a matching checkpoint must be reused, not retrained")

    monkeypatch.setattr(TR, "train_stage1", retrain)
    monkeypatch.setattr(TR, "_train_stage2", retrain)
    # an unchanged config reuses every checkpoint; out_dir is not compared, so a moved tree is reused too
    assert TR.run_ablation("mask_mode", cfg, seeds=[0]) == rows
    moved = replace(cfg, out_dir=str(tmp_path / "moved"))
    (tmp_path / "abl").rename(moved.out_dir)
    assert TR.run_ablation("mask_mode", moved, seeds=[0]) == rows
    # a setting only stage 2 reads keeps stage 1, and makes stage 2 stale
    row_dir = tmp_path / "moved" / "run_grouping_16_isolated_seed0"
    stage2 = re.escape(str(row_dir / "stage2"))
    with pytest.raises(ValueError, match=stage2 + r".*temperature=1\.0 .* temperature=0\.5"):
        TR.run_ablation("mask_mode", replace(moved, temperature=0.5), seeds=[0])
    # a setting stage 1 reads makes both stages stale
    changed = replace(moved, learning_rate=0.5)
    stage1 = re.escape(str(tmp_path / "moved" / "stage1_seed0" / "stage1"))
    with pytest.raises(ValueError, match=stage1 + r".*learning_rate=0\.001 .* learning_rate=0\.5"):
        TR.run_ablation("mask_mode", changed, seeds=[0])
    row_cfg = replace(changed, seed=0, stage=2, target_tokens=16, out_dir=str(row_dir))
    with pytest.raises(ValueError, match=stage2 + r".*learning_rate=0\.001 .* learning_rate=0\.5"):
        TR._reusable(row_cfg)


def test_ablation_evaluates_each_row_once(tmp_path, monkeypatch):
    # a fresh row takes the evaluation its training ran for stage2_report.txt;
    # a reused row is evaluated once
    import semtok.train as TR

    calls = []

    def counted(ckpt_dir, *args, **kwargs):
        calls.append(Path(ckpt_dir))
        return evaluate(ckpt_dir, *args, **kwargs)

    monkeypatch.setattr(TR, "evaluate", counted)
    root = tmp_path / "abl"
    cfg = tiny_cfg(tmp_path, out_dir=str(root), train_count=16, eval_count=8)
    rows = TR.run_ablation("mask_mode", cfg, seeds=[0])
    ckpts = [root / f"run_{r['reducer']}_{r['tokens']}_{r['mask_mode']}_seed0" / "stage2" for r in rows]
    assert len(rows) == 2 and calls == ckpts
    for r, ckpt in zip(rows, ckpts):
        report = (ckpt.parent / "stage2_report.txt").read_text()
        assert report == f"eval_accuracy {r['accuracy']:.6f}\ngrouping_purity {r['purity']:.6f}\n"
    calls.clear()
    assert TR.run_ablation("mask_mode", cfg, seeds=[0]) == rows
    assert calls == ckpts


def test_stage2_only_fields_leave_stage1_bitwise_unchanged(tmp_path):
    # each field the ablation ignores when reusing a stage-1 checkpoint is
    # changed in turn; the stage-1 tensors must not move by a single bit
    changed = {
        "mask_mode": MASK_FULL,
        "head_blocks": 2,
        "temperature": 0.5,
        "grouping_eps": 1e-3,
        "reducer": KIND_AVG_POOL,
        "target_tokens": 16,
        "reducer_seed": 7,
        "stage1_dir": "elsewhere",
    }
    assert set(changed) == set(STAGE2_ONLY_FIELDS)
    cfg = tiny_cfg(tmp_path, train_count=16, eval_count=8)
    train_ds = ensure_dataset(cfg, "train", tmp_path)
    eval_ds = ensure_dataset(cfg, "eval", tmp_path)
    want, _, _ = load_checkpoint(train_stage1(cfg, train_ds, eval_ds))
    for key, value in changed.items():
        assert getattr(cfg, key) != value, key
        run_cfg = replace(cfg, out_dir=str(tmp_path / key), **{key: value})
        got, _, _ = load_checkpoint(train_stage1(run_cfg, train_ds, eval_ds))
        assert got.keys() == want.keys(), key
        assert all(got[name].tobytes() == arr.tobytes() for name, arr in want.items()), key


def test_manifest_without_trailing_spaces_still_loads(trained, tmp_path):
    # editors strip the space after an empty config value on save
    _, _, stage2, _ = trained
    ckpt = shutil.copytree(stage2, tmp_path / "stage2")
    manifest = ckpt / "manifest.txt"
    text = manifest.read_text()
    assert "config stage1_dir \n" in text
    manifest.write_text("".join(line.rstrip(" ") + "\n" for line in text.splitlines()))
    model, cfg = load_stage2_model(ckpt)
    assert cfg.stage1_dir == ""
    assert model.spec.kind == KIND_GROUPING


def test_manifest_with_an_unknown_config_key_is_refused(trained, tmp_path):
    # a misspelt key must not load as the default the real key falls back to
    _, _, stage2, _ = trained
    ckpt = shutil.copytree(stage2, tmp_path / "stage2")
    manifest = ckpt / "manifest.txt"
    text = manifest.read_text()
    assert "config mask_mode isolated\n" in text
    manifest.write_text(text.replace("config mask_mode isolated\n", "config mask_modee full\n"))
    with pytest.raises(ValueError, match=re.escape(str(manifest)) + r": unknown config key 'mask_modee'"):
        load_stage2_model(ckpt)


def test_identity_reducer_requires_full_token_count(tmp_path):
    cfg = tiny_cfg(tmp_path, reducer=KIND_IDENTITY, target_tokens=16)
    s1 = train_stage1(cfg)
    s2 = train_stage2(cfg, s1)
    tensors, _, _ = load_checkpoint(s2)
    assert "head.cls.w" in tensors


def test_config_file_roundtrip(tmp_path):
    cfg = tiny_cfg(tmp_path, temperature=0.7, query_mix=(0.6, 0.2, 0.2))
    path = tmp_path / "cfg.txt"
    path.write_text("".join(f"{k}={v}\n" for k, v in cfg.to_dict().items()))
    back = RunConfig.from_file(path)
    assert back == cfg


def test_config_rejects_unknown_key(tmp_path):
    path = tmp_path / "cfg.txt"
    path.write_text("not_a_field=3\n")
    with pytest.raises(KeyError):
        RunConfig.from_file(path)


def test_purity_of_random_assignment_is_chance_level():
    # 4 equal regions, uniformly random group ids, many tokens: purity ~ 1/4
    from semtok.train import _purity

    rng = np.random.default_rng(0)
    m = 4096
    true_regions = np.repeat(np.arange(4), m // 4)
    vals = []
    for _ in range(20):
        ids = rng.integers(0, 4, size=m)
        vals.append(_purity(ids, true_regions, 4))
    mean = float(np.mean(vals))
    assert abs(mean - 0.25) < 0.02


def test_perfect_assignment_purity_is_one():
    from semtok.train import _purity

    true_regions = np.repeat(np.arange(4), 16)
    ids = np.repeat([3, 1, 0, 2], 16)  # bijective relabeling, still pure
    assert _purity(ids, true_regions, 4) == 1.0


def purity_by_loops(group_ids, true_regions, num_groups):
    """The reference: majority region per group, then a vote per token."""
    majority = {}
    for g in range(num_groups):
        members = true_regions[group_ids == g]
        if members.size:
            majority[g] = np.bincount(members).argmax()
    return sum(1 for g, r in zip(group_ids, true_regions) if majority.get(g) == r) / len(group_ids)


def test_purity_counts_equal_the_loop_version_with_ties():
    # few tokens per group and region: many groups tie between regions
    from semtok.train import _purity

    rng = np.random.default_rng(4)
    ids = rng.integers(0, 6, size=(200, 16))
    regions = rng.integers(0, 4, size=(200, 16))
    regions[:50] = rng.integers(0, 2, size=(50, 16))  # scenes with fewer regions than the batch
    batched = _purity(ids, regions, 6)
    assert batched.shape == (200,)
    for row, (g, r) in enumerate(zip(ids, regions)):
        assert batched[row] == purity_by_loops(g, r, 6) == _purity(g, r, 6)
    assert float(np.mean(batched)) == float(np.mean([purity_by_loops(g, r, 6) for g, r in zip(ids, regions)]))


def test_ablation_plan_rows():
    from semtok.train import ablation_plan

    default = RunConfig()  # M = 64, isolated
    iso = default.mask_mode
    sweep = [(KIND_IDENTITY, 64, iso)]
    sweep += [(kind, t, iso) for kind in (KIND_GROUPING, KIND_RANDOM_DROP) for t in (8, 16, 32, 64)]
    sweep += [(KIND_AVG_POOL, 16, iso), (KIND_AVG_POOL, 64, iso)]
    assert len(sweep) == 11 and ablation_plan("token_sweep", default.num_patches, iso) == sweep
    masks = [(KIND_GROUPING, t, mode) for t in (16, 64) for mode in (MASK_ISOLATED, MASK_FULL)]
    assert ablation_plan("mask_mode", default.num_patches, iso) == masks
    # the sweep's rows take the run's mask mode; the mask preset sets its own
    assert {row[2] for row in ablation_plan("token_sweep", 64, MASK_FULL)} == {MASK_FULL}
    assert ablation_plan("mask_mode", 64, MASK_FULL) == masks
    # the tests' tiny config (M = 16) keeps only the budgets up to M
    tiny = tiny_cfg(Path("unused"))
    assert ablation_plan("token_sweep", tiny.num_patches, tiny.mask_mode) == [
        (KIND_IDENTITY, 16, iso),
        (KIND_GROUPING, 8, iso),
        (KIND_GROUPING, 16, iso),
        (KIND_RANDOM_DROP, 8, iso),
        (KIND_RANDOM_DROP, 16, iso),
        (KIND_AVG_POOL, 16, iso),
    ]
    assert ablation_plan("mask_mode", tiny.num_patches, tiny.mask_mode) == masks[:2]
    with pytest.raises(ValueError, match="unknown ablation preset 'sizes'"):
        ablation_plan("sizes", 64, iso)


@pytest.mark.slow
def test_token_sweep_table_shape_and_degenerate_rows(tmp_path):
    from semtok.train import ablation_means, run_ablation

    cfg = tiny_cfg(tmp_path, out_dir=str(tmp_path / "abl"), train_count=32, eval_count=16)
    rows = run_ablation("token_sweep", cfg, seeds=[0])
    combos = {(r["reducer"], r["tokens"]) for r in rows}
    m = cfg.num_patches  # 16
    want = {(KIND_IDENTITY, m)}
    for tokens in (8, 16, 32, 64):
        if tokens <= m:
            want.add((KIND_GROUPING, tokens))
            want.add((KIND_RANDOM_DROP, tokens))
            side = int(round(tokens**0.5))
            if side * side == tokens:
                want.add((KIND_AVG_POOL, tokens))
    assert combos == want
    means = ablation_means(rows)
    identity_acc = means[(KIND_IDENTITY, m, cfg.mask_mode)]
    # reducers that degenerate to the identity at N'=M train identically
    assert abs(means[(KIND_RANDOM_DROP, m, cfg.mask_mode)] - identity_acc) < 1e-6
    assert abs(means[(KIND_AVG_POOL, m, cfg.mask_mode)] - identity_acc) < 1e-6
    table = (tmp_path / "abl" / "token_sweep.csv").read_text()
    assert table.splitlines()[0] == "reducer,tokens,mask_mode,seed,accuracy,purity"


def test_ablation_ignores_given_data_paths(tmp_path, monkeypatch):
    # the ablation generates each seed's data and stage 1 under its root, so a
    # given train_data/eval_data/stage1_dir is never read and must not be
    # recorded: a rerun without it reuses every checkpoint
    import semtok.train as TR

    cfg = tiny_cfg(tmp_path, out_dir=str(tmp_path / "abl"), train_count=16, eval_count=8)
    path = str(tmp_path / "given")
    given = replace(cfg, train_data=path, eval_data=path, stage1_dir=path)
    rows = TR.run_ablation("mask_mode", given, seeds=[0])

    def retrain(*args):
        raise AssertionError("a matching checkpoint must be reused, not retrained")

    monkeypatch.setattr(TR, "train_stage1", retrain)
    monkeypatch.setattr(TR, "_train_stage2", retrain)
    assert TR.run_ablation("mask_mode", cfg, seeds=[0]) == rows


@pytest.mark.slow
def test_mask_mode_preset_rows(tmp_path):
    from semtok.train import run_ablation

    cfg = tiny_cfg(tmp_path, out_dir=str(tmp_path / "abl"), train_count=32, eval_count=16)
    rows = run_ablation("mask_mode", cfg, seeds=[0])
    combos = {(r["tokens"], r["mask_mode"]) for r in rows}
    assert combos == {(16, "isolated"), (16, "full")}  # 64 exceeds this tiny M
    assert all(r["reducer"] == KIND_GROUPING for r in rows)
