"""Two-stage training pipeline, evaluation, and ablation presets.

Stage 1 aligns visual features on a caption-like class-bag proxy without any
grouping machinery. Stage 2 freezes the encoder, attaches semantic tokens and
the grouping block (or a baseline reducer), and trains the connector plus a
query-conditioned task head so instruction gradients reach the grouping
layer. Every run is seed-deterministic: repeated runs write byte-identical
checkpoints, results files, and assignment maps.
"""

from __future__ import annotations

import contextlib
import math
import traceback
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import baselines as B
from . import grouping as G
from . import tensor as T
from .data import SceneSpec, format_fields, generate_dataset, load_dataset, parse_fields, read_items
from .encoder import MASK_FULL, MASK_ISOLATED, Encoder, EncoderConfig
from .metrics import CostModelConfig, EvalRecord, prefill_cost, write_results
from .model import BagHead, Connector, TaskHead, load_into
from .optim import Adam, parameters_of
from .tensor_io import load_checkpoint, read_manifest, save_checkpoint

# seed-stream tags so independent random purposes never share a stream
TAG_MODEL = 1
TAG_SHUFFLE = 2
TAG_NOISE = 3
TAG_DATA = 5
TAG_EVAL_DROP = 6

# scenes per shard, in training and in forward-only work: fixed in code, so the
# shard plan and the order in which shard gradients are summed never depend on
# the machine's core count, and evaluation's working set per thread does not
# follow batch_size
SHARD_SCENES = 16

# scenes the frozen store encodes at a time: small enough that building the
# store needs little memory beyond what the store keeps
CACHE_CHUNK_SCENES = 8

# fixed flop rate turning modeled prefill cost into deterministic pseudo-seconds
MODEL_FLOPS_PER_SECOND = 1.0e13

STAGE1_NOTE = (
    "stage1 trains the encoder at desk scale: no pretrained toy encoder exists; "
    "the stage2 encoder-freeze contract is preserved exactly"
)


def derived_seed(*parts):
    ss = np.random.SeedSequence([int(p) for p in parts])
    return int(ss.generate_state(1, np.uint64)[0])


def rng_for(*parts):
    return np.random.default_rng(np.random.SeedSequence([int(p) for p in parts]))


@dataclass
class RunConfig:
    # encoder
    image_height: int = 64
    image_width: int = 64
    patch_size: int = 8
    embed_dim: int = 64
    num_layers: int = 4
    num_heads: int = 4
    mask_mode: str = MASK_ISOLATED
    head_blocks: int = 2
    # scenes
    num_classes: int = 8
    min_regions: int = 2
    max_regions: int = 4
    pixel_noise: float = 0.05
    query_mix: tuple = (0.3, 0.5, 0.2)
    small_region_rate: float = 0.6
    small_region_max: int = 2
    train_count: int = 2000
    eval_count: int = 500
    # grouping block
    temperature: float = 1.0
    grouping_eps: float = 1e-6
    # reducer
    reducer: str = B.KIND_GROUPING
    target_tokens: int = 16
    reducer_seed: int = 0
    # optimization
    stage: int = 1
    epochs: int = 4
    batch_size: int = 32
    learning_rate: float = 1e-3
    seed: int = 0
    # paths
    train_data: str = ""
    eval_data: str = ""
    stage1_dir: str = ""
    out_dir: str = "run"

    def __post_init__(self):
        rules = {
            "mask_mode": (self.mask_mode in (MASK_ISOLATED, MASK_FULL), f"{MASK_ISOLATED} or {MASK_FULL}"),
            "reducer": (self.reducer in B.REDUCER_KINDS, "one of " + ", ".join(B.REDUCER_KINDS)),
            "learning_rate": (np.isfinite(self.learning_rate) and self.learning_rate > 0, "finite and above 0"),
            "temperature": (self.temperature > 0, "above 0"),
            "grouping_eps": (self.grouping_eps > 0, "above 0"),
        }
        counts = ("image_height", "image_width", "patch_size", "embed_dim", "num_heads", "num_layers", "head_blocks")
        counts += ("target_tokens", "batch_size", "epochs", "train_count", "eval_count")
        rules |= {k: (getattr(self, k) >= 1, "at least 1") for k in counts}
        # numpy would refuse a negative seed only at its first draw (reducer_seed: after training)
        rules |= {k: (getattr(self, k) >= 0, "at least 0") for k in ("seed", "reducer_seed")}
        for key, (ok, rule) in rules.items():
            if not ok:
                raise ValueError(f"{key}={getattr(self, key)} is refused: it must be {rule}")
        self.encoder_config(), self.scene_spec()  # each checks its own fields; they divide by the sizes checked above

    def encoder_config(self):
        return EncoderConfig(
            image_height=self.image_height,
            image_width=self.image_width,
            patch_size=self.patch_size,
            embed_dim=self.embed_dim,
            num_layers=self.num_layers,
            num_heads=self.num_heads,
        )

    def scene_spec(self):
        return SceneSpec(
            height=self.image_height,
            width=self.image_width,
            grid=self.patch_size,
            min_regions=self.min_regions,
            max_regions=self.max_regions,
            num_classes=self.num_classes,
            pixel_noise=self.pixel_noise,
            query_mix=self.query_mix,
            small_region_rate=self.small_region_rate,
            small_region_max=self.small_region_max,
        )

    @property
    def num_patches(self):
        return (self.image_height // self.patch_size) * (self.image_width // self.patch_size)

    to_dict = format_fields
    from_items = classmethod(parse_fields)

    @classmethod
    def from_file(cls, path, overrides=()):
        return cls.from_items((read_items(path) if path else []) + list(overrides))


def _refuse_stale(where, stored, wanted):
    """Refuse to reuse state at `where` whose stored settings differ from the
    run's: raise on the first key of `wanted` that `stored` does not match."""
    for key, value in wanted.items():
        if stored.get(key) != value:
            raise ValueError(
                f"{where}: stale state, stored {key}={stored.get(key)} but this run has {key}={value}; "
                "use a fresh output directory or remove the old one"
            )


# -- data -------------------------------------------------------------------


def _refuse_dataset_spec(spec, cfg, where, against):
    """Refuse a dataset whose spec differs from `cfg`'s on a key that sizes the
    model; the others (noise, query mix, grid, ...) may differ."""
    for key in ("height", "width", "num_classes", "max_regions"):
        have, want = getattr(spec, key), getattr(cfg.scene_spec(), key)
        if have != want:
            raise ValueError(f"{where}: dataset has {key}={have} but {against} has {key}={want}")


def ensure_dataset(cfg, which, out_root):
    """Load the configured dataset or deterministically generate one; a
    generated dataset found from an earlier run is reused only if its scene
    spec and count match the config."""
    path = cfg.train_data if which == "train" else cfg.eval_data
    if path:
        return load_dataset(path)
    count = cfg.train_count if which == "train" else cfg.eval_count
    sub = Path(out_root) / f"data_{which}_seed{cfg.seed}"
    if not (sub / "scenes.csv").exists():
        return generate_dataset(
            cfg.scene_spec(), count, derived_seed(cfg.seed, TAG_DATA, 0 if which == "train" else 1), sub
        )
    dataset = load_dataset(sub)
    count_key = f"{which}_count"
    stored = format_fields(dataset.spec) | {count_key: str(len(dataset))}
    _refuse_stale(sub, stored, format_fields(cfg.scene_spec()) | {count_key: str(count)})
    return dataset


# -- training -----------------------------------------------------------------


def _batches(count, batch_size, order=None):
    idx = np.arange(count) if order is None else order
    for lo in range(0, count, batch_size):
        yield idx[lo : lo + batch_size]


def _run_inputs(cfg, train_ds, eval_ds):
    """The run's output directory and its (given or ensured) datasets, each
    refused if its spec disagrees with the run's."""
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    datasets = []
    for which, dataset in (("train", train_ds), ("eval", eval_ds)):
        path = getattr(cfg, f"{which}_data") if dataset is None else ""
        dataset = ensure_dataset(cfg, which, out_dir) if dataset is None else dataset
        _refuse_dataset_spec(dataset.spec, cfg, path or f"{which} data", "this run")
        datasets.append(dataset)
    return out_dir, *datasets


def _fit(cfg, stage, params, count, batch_loss):
    """Adam over `params` for cfg.epochs shuffled epochs of `count` scenes.

    Each mini-batch splits into shards of SHARD_SCENES scenes;
    batch_loss(shard, step, offset) builds the mean loss of the shard that
    starts `offset` scenes into the batch. A shard's backward gives its leaf
    gradients weighted by its share of the batch, and the shards' gradients
    are summed in shard order (Goyal et al., arXiv 1706.02677), so the bits
    do not depend on where a shard ran.

    The shards run on W processes, W = min(usable cores, shards per batch)
    as T.parallel_workers allows: this one, the coordinator, is process 0,
    and W - 1 replicas are forked here, once per call, so they share the
    datasets and any frozen store copy-on-write. Shard k of a batch runs on
    process k mod W. BLAS is held at one thread for the whole call, before
    the replicas fork and inherit that count, so every step on every
    process runs the same GEMMs on any number of cores. Each step, a
    replica sends its shards' gradients in trainable-parameter order; the
    coordinator sums all shards, takes the only Adam step and sends the new
    parameters back. Processes, unlike threads, run the many small
    Python-level ops of a stage-2 shard in parallel. Each process allocates
    from its own buffer pool, which keeps the buffers earlier steps freed.
    A shard that raises, on any process, ends training with an error that
    names the step and the shard's offset; every replica is reaped before
    _fit returns or raises."""
    opt = Adam(params, lr=cfg.learning_rate)
    trainable = [p for _, p in opt.params]
    pool = {}

    def steps():
        for epoch in range(cfg.epochs):
            order = rng_for(cfg.seed, TAG_SHUFFLE, stage, epoch).permutation(count)
            yield from _batches(count, cfg.batch_size, order)

    def shard_grads(step, batch, rank, workers):
        """The {leaf: gradient} of each shard of the batch that process `rank` runs."""
        grads = []
        for offset in range(rank * SHARD_SCENES, len(batch), workers * SHARD_SCENES):
            shard = batch[offset : offset + SHARD_SCENES]
            try:
                with T.reuse_buffers(pool):
                    # unnamed: the graph is freed before the next forward
                    grads.append(T.mul(batch_loss(shard, step, offset), len(shard) / len(batch)).backward())
            except Exception as err:
                where = f"training step {step}, shard at offset {offset}"
                raise RuntimeError(f"{where}: {type(err).__name__}: {err}") from err
        return grads

    def replica(conn, rank, workers):
        try:
            for step, batch in enumerate(steps()):
                conn.send([[grads.get(p) for p in trainable] for grads in shard_grads(step, batch, rank, workers)])
                for p, data in zip(trainable, conn.recv()):
                    p.data[...] = data
        except RuntimeError as err:  # a shard raised: the coordinator reports it
            conn.send(f"{err}\nreplica {rank}: " + "".join(traceback.format_exception(err.__cause__)))

    def gathered(step, batch, conns, workers):
        """Every shard's gradients of one step, in shard order."""
        per_process = [shard_grads(step, batch, 0, workers)]
        for rank, conn in enumerate(conns, 1):
            try:
                got = conn.recv()
            except EOFError:
                raise RuntimeError(f"training step {step}: replica {rank} exited without its shards") from None
            if isinstance(got, str):
                raise RuntimeError(got)
            per_process.append([{p: g for p, g in zip(trainable, grads) if g is not None} for grads in got])
        return [per_process[k % workers][k // workers] for k in range(math.ceil(len(batch) / SHARD_SCENES))]

    workers = T.parallel_workers(math.ceil(cfg.batch_size / SHARD_SCENES))
    replicas = _replicas(replica, workers) if workers > 1 else contextlib.nullcontext([])
    with T.single_threaded_blas(), replicas as conns:
        for step, batch in enumerate(steps()):
            # unnamed: the summed gradients are freed before the next step's shards draw from the pool
            opt.step(_sum_shard_grads(gathered(step, batch, conns, workers)))
            for conn in conns:
                conn.send([p.data for p in trainable])
    # the pool's buffers go back to the OS now, not held as free heap
    # through whatever runs next
    del pool
    T.release_free_heap()


@contextlib.contextmanager
def _replicas(run, workers):
    """Connections to workers - 1 forked replicas, replica r running
    run(conn, r, workers). Each replica is reaped when the block ends, and
    killed first if the block raised. Forking is safe here: the only other
    threads that the program starts, parallel_map's, live for one call, and
    OpenBLAS stops its own thread pool across a fork. A replica inherits
    the caller's BLAS thread count."""
    import multiprocessing  # here, not at the top: gen-data, eval and serial training never load it

    context = multiprocessing.get_context("fork")
    conns, procs = [], []
    try:
        for rank in range(1, workers):
            here, there = context.Pipe()
            conns.append(here)
            proc = context.Process(target=run, args=(there, rank, workers))
            try:
                proc.start()
            finally:
                there.close()
            procs.append(proc)
        yield conns
    except BaseException:
        for proc in procs:
            proc.kill()
        raise
    finally:
        for conn in conns:
            conn.close()
        for proc in procs:
            proc.join()


def _sum_shard_grads(shards):
    """The shards' {leaf: gradient} dicts summed in shard order, in the first shard's buffers."""
    total = shards[0]
    for grads in shards[1:]:
        for p, g in grads.items():
            if p in total:
                total[p] += g
            else:
                total[p] = g
    return total


def _save_stage(cfg, stage, params, notes):
    ckpt = Path(cfg.out_dir) / f"stage{stage}"
    save_checkpoint(ckpt, parameters_to_tensors(params), config=dict(cfg.to_dict(), stage=str(stage)), notes=notes)
    return ckpt


def parameters_to_tensors(params):
    return {name: p.data for name, p in params.items()}


# -- stage 1 ------------------------------------------------------------------


def _bag_logits(encoder, connector, bag_head, images):
    img_out, _ = encoder.encode(encoder.patch_embed(images))
    return bag_head.forward(connector.forward(img_out))


def _bag_loss(encoder, connector, bag_head, images, presence):
    return T.sigmoid_bce(_bag_logits(encoder, connector, bag_head, images), presence)


def train_stage1(cfg, train_ds=None, eval_ds=None):
    """Alignment pretraining: encoder + connector + bag head on the class-bag
    proxy; no grouping layer or semantic tokens exist yet."""
    out_dir, train_ds, eval_ds = _run_inputs(cfg, train_ds, eval_ds)
    rng = rng_for(cfg.seed, TAG_MODEL, 1)
    encoder = Encoder(cfg.encoder_config(), rng)
    connector = Connector(cfg.embed_dim, rng)
    bag_head = BagHead(cfg.embed_dim, cfg.num_classes, rng)
    params = parameters_of(
        {f"encoder.{k}": v for k, v in encoder.params.items()}, connector, bag_head
    )
    presence_train = train_ds.class_presence()
    presence_eval = eval_ds.class_presence()

    def eval_loss():
        # per-scene logits do not depend on how many scenes share a GEMM, so
        # shards of SHARD_SCENES on threads give the one-batch loss bits
        def logits(idx):
            return _bag_logits(encoder, connector, bag_head, eval_ds.images[idx]).data

        with T.no_grad():
            shards = T.parallel_map(logits, _batches(len(eval_ds), SHARD_SCENES))
            return T.sigmoid_bce(T.Tensor(np.concatenate(shards)), presence_eval).item()

    def batch_loss(shard, step, offset):
        return _bag_loss(encoder, connector, bag_head, train_ds.images[shard], presence_train[shard])

    loss_before = eval_loss()
    _fit(cfg, 1, params, len(train_ds), batch_loss)
    loss_after = eval_loss()

    ckpt = _save_stage(cfg, 1, params, [STAGE1_NOTE])
    (out_dir / "stage1_report.txt").write_text(
        f"eval_bag_loss_before {loss_before:.6f}\neval_bag_loss_after {loss_after:.6f}\n"
    )
    return ckpt


# -- stage 2 ------------------------------------------------------------------


class Stage2Model:
    """Frozen encoder + reducer + connector + query-conditioned task head.

    Because the encoder is frozen, its image path is constant for a given
    dataset; prepare() memoizes it for one dataset so training steps, which
    revisit every scene each epoch, only run the trainable pieces (plus the
    semantic half, over stored image keys/values, under the isolated layout).
    Any other dataset, such as eval's, is encoded from pixels.
    """

    def __init__(self, cfg, tensors):
        """Frozen encoder and connector start from `tensors` (a stage-1 or
        stage-2 checkpoint); the rest draws from the run's seed. Tensors they
        do not read, such as a stage-1 checkpoint's bag head or an old one's
        key biases, are ignored; load_stage2_model refuses any such extra."""
        self.cfg = cfg
        self.encoder = Encoder(cfg.encoder_config())  # no draws: every weight comes from `tensors`
        rng = rng_for(cfg.seed, TAG_MODEL, 2)
        self.connector = Connector(cfg.embed_dim, rng)
        vocab = cfg.scene_spec().query_vocab
        self.head = TaskHead(cfg.embed_dim, cfg.num_heads, vocab, cfg.num_classes, rng, num_blocks=cfg.head_blocks)
        self.sem = self.grouping = None
        if cfg.reducer == B.KIND_GROUPING:
            sem = rng.standard_normal((cfg.target_tokens, cfg.embed_dim)) * 0.02  # (N, C) group queries
            self.sem = T.Tensor(sem.astype(np.float32), requires_grad=True)
            self.grouping = G.GroupingParams.create(
                cfg.embed_dim, rng, temperature=cfg.temperature, eps=cfg.grouping_eps
            )
        load_into(parameters_of({f"encoder.{k}": v for k, v in self.encoder.params.items()}, self.connector), tensors)
        for p in self.encoder.params.values():
            p.requires_grad = False  # freeze: retains stage-1 alignment
        self.spec = B.ReducerSpec(cfg.reducer, cfg.target_tokens, seed=cfg.reducer_seed)
        self.mask = cfg.mask_mode if self.sem is not None else None  # attention layout passed to encode
        self._frozen = None  # (dataset, image outputs, per-layer image (keys, values) or None)

    def prepare(self, dataset):
        """Precompute frozen-encoder image outputs for every scene, plus the
        per-layer image keys and values the semantic half reads when grouping.
        Full-attention grouping caches nothing: there the image path depends
        on the live semantic tokens."""
        keep_kv = self.spec.kind == B.KIND_GROUPING
        if keep_kv and self.cfg.mask_mode == MASK_FULL:
            return
        count = len(dataset)
        img = kv = None
        with T.no_grad():  # frozen features need no graph
            for lo in range(0, count, CACHE_CHUNK_SCENES):
                rows = slice(lo, lo + CACHE_CHUNK_SCENES)
                chunk_kv, img_out = self.encoder.image_state_stack(self.encoder.patch_embed(dataset.images[rows]))
                chunk_kv = chunk_kv if keep_kv else []
                if img is None:  # the store is allocated once, at the first chunk's shapes, and filled in place
                    img = np.empty((count, *img_out.shape[1:]), img_out.dtype)
                    kv = [[np.empty((count, *a.shape[1:]), a.dtype) for a in layer] for layer in chunk_kv]
                img[rows] = img_out
                for kept, layer in zip(kv, chunk_kv):
                    for dst, a in zip(kept, layer):
                        dst[rows] = a
        self._frozen = (dataset, img, kv or None)

    def visual_outputs(self, dataset, idx):
        """(img_out, sem_out) for the selected scenes; sem_out is None for
        reducers without semantic tokens. The dataset prepare() cached is
        served from the cache, any other from pixels."""
        grouping = self.spec.kind == B.KIND_GROUPING
        if self._frozen is None or self._frozen[0] is not dataset:
            tokens = self.encoder.patch_embed(dataset.images[idx])
            return self.encoder.encode(tokens, self.sem if grouping else None, self.cfg.mask_mode)
        _, img_out, kv = self._frozen
        sem_out = self.encoder.encode_sem_cached([(k[idx], v[idx]) for k, v in kv], self.sem) if grouping else None
        return T.Tensor(img_out[idx]), sem_out

    def forward(self, dataset, idx, step_seed=None, offset=0):
        """(task-head logits, group ids (B,M) or None) for the selected
        scenes. A step seed makes a training step: random-drop subsets and
        Gumbel noise from that seed, drawn per scene at its position in the
        step's batch, which idx starts `offset` scenes into, so a shard draws
        what the whole batch would. Without one it is eval: per-scene subsets
        from reducer_seed, no noise."""
        img_out, sem_out = self.visual_outputs(dataset, idx)
        seed = None if step_seed is None else step_seed + offset  # Gumbel draws take seed + batch position
        if self.spec.kind == B.KIND_RANDOM_DROP:
            if step_seed is not None:
                seed = [derived_seed(step_seed, offset + i) for i in range(len(idx))]
            else:
                seed = [derived_seed(self.spec.seed, TAG_EVAL_DROP, int(i)) for i in idx]
        reduced, ids = B.reduce(img_out, sem_out, self.spec, params=self.grouping, seed=seed)
        return self.head.forward(self.connector.forward(reduced), dataset.query_ids[idx]), ids

    def trainable_params(self):
        pieces = [self.connector, self.head]
        if self.spec.kind == B.KIND_GROUPING:
            pieces.append({"semantic_tokens": self.sem})
            pieces.append({f"grouping.{k}": v for k, v in self.grouping.params.items()})
        return parameters_of(*pieces)

    def all_params(self):
        return parameters_of({f"encoder.{k}": v for k, v in self.encoder.params.items()}, self.trainable_params())


def train_stage2(cfg, stage1_dir, train_ds=None, eval_ds=None):
    """Instruction tuning: encoder frozen; connector, grouping machinery, and
    task head learn from query-conditioned losses."""
    return _train_stage2(cfg, stage1_dir, train_ds, eval_ds)[0]


def _train_stage2(cfg, stage1_dir, train_ds, eval_ds):
    """train_stage2's checkpoint plus the (record, extras) its stage2_report.txt is written from."""
    tensors, _, _ = load_checkpoint(stage1_dir)
    with _refusing_stale_tensors(stage1_dir):  # before _run_inputs writes anything
        model = Stage2Model(cfg, tensors)
    model.spec.validate_for(cfg.num_patches)  # a budget the image cannot serve, also before anything is written
    out_dir, train_ds, eval_ds = _run_inputs(cfg, train_ds, eval_ds)

    def batch_loss(shard, step, offset):
        logits, _ = model.forward(train_ds, shard, derived_seed(cfg.seed, TAG_NOISE, step), offset)
        return T.cross_entropy(logits, train_ds.targets[shard])

    model.prepare(train_ds)
    _fit(cfg, 2, model.trainable_params(), len(train_ds), batch_loss)
    notes = ["stage2 freezes the encoder; trainable: connector, task head"]
    if cfg.reducer == B.KIND_GROUPING:
        notes = ["stage2 freezes the encoder; trainable: connector, semantic tokens, grouping block, task head"]
    ckpt = _save_stage(cfg, 2, model.all_params(), notes)
    record, extras = evaluate(ckpt, eval_ds)  # maps/results land on explicit `eval` runs
    lines = [f"eval_accuracy {record.score:.6f}"]
    if "purity" in extras:
        lines.append(f"grouping_purity {extras['purity']:.6f}")
    (out_dir / "stage2_report.txt").write_text("".join(line + "\n" for line in lines))
    return ckpt, record, extras


def load_stage2_model(ckpt_dir):
    """The model and run config of a stage-2 checkpoint, whose tensors must be
    exactly the model's: one missing, one of another shape, or one the model
    has no place for is refused by name."""
    tensors, config, _ = load_checkpoint(ckpt_dir)
    manifest = Path(ckpt_dir) / "manifest.txt"
    try:
        cfg = RunConfig.from_items(config.items())
    except (KeyError, ValueError) as err:
        raise ValueError(f"{manifest}: {err.args[0]}") from None
    with _refusing_stale_tensors(ckpt_dir):
        model = Stage2Model(cfg, tensors)
        params = model.all_params()
        load_into(params, tensors)
        extra = sorted(set(tensors) - set(params))
        if extra:
            raise KeyError(f"checkpoint has tensor {extra[0]!r}, which this model does not")
    return model, cfg


@contextlib.contextmanager
def _refusing_stale_tensors(ckpt_dir):
    """Refuse, in _refuse_stale's words and by the checkpoint's manifest, a
    tensor that load_into raised on: one missing, or one of another shape."""
    try:
        yield
    except (KeyError, ValueError) as err:
        raise ValueError(
            f"{Path(ckpt_dir) / 'manifest.txt'}: stale state, {err.args[0]}; "
            "use a fresh output directory or remove the old one"
        ) from None


# -- evaluation ----------------------------------------------------------------


def evaluate(ckpt_dir, dataset, reducer_spec=None, out_dir=None, baseline_score=None, dataset_name="synthetic"):
    """Deterministic eval-mode pass: accuracy (overall and per query kind),
    modeled per-sample time, and (for grouping runs) assignment maps plus
    token-to-region purity."""
    model, cfg = load_stage2_model(ckpt_dir)
    _refuse_dataset_spec(dataset.spec, cfg, f"{dataset_name} eval data", f"checkpoint {ckpt_dir}")
    if reducer_spec is not None:
        model.spec = reducer_spec
        if reducer_spec.kind == B.KIND_GROUPING and model.sem is None:
            raise ValueError(f"{ckpt_dir}: checkpoint has no grouping parameters")
    model.spec.validate_for(cfg.num_patches)  # before any shard runs
    is_grouping = model.spec.kind == B.KIND_GROUPING

    token_regions = dataset.token_regions(cfg.patch_size) if is_grouping else None
    maps_dir = None
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        if is_grouping:
            maps_dir = out_dir / "maps"
            maps_dir.mkdir(exist_ok=True)

    def run_batch(batch):  # one shard: pixels -> (hits, per-scene purity) and maps, on a worker thread
        logits, ids = model.forward(dataset, batch)
        if maps_dir is not None:
            for i, scene_ids in zip(batch.tolist(), ids):
                G.write_assignment_pgm(maps_dir / f"scene_{i:05d}.pgm", scene_ids, model.spec.target_tokens)
        hits = np.argmax(logits.data, axis=-1) == dataset.targets[batch]
        return hits, _purity(ids, token_regions[batch], model.spec.target_tokens) if is_grouping else None

    with T.no_grad():
        hits, purities = zip(*T.parallel_map(run_batch, _batches(len(dataset), SHARD_SCENES)))
    hits = np.concatenate(hits)
    kinds = np.asarray(dataset.query_kinds)
    accuracy = int(hits.sum()) / len(dataset)
    per_sample_flops = prefill_cost(
        CostModelConfig(text_tokens=64, visual_tokens=model.spec.target_tokens)
    )
    total_time = per_sample_flops * len(dataset) / MODEL_FLOPS_PER_SECOND
    record = EvalRecord(
        dataset_name=dataset_name,
        score=accuracy,
        baseline_score=accuracy if baseline_score is None else baseline_score,
        total_time=total_time,
        sample_count=len(dataset),
    )
    extras = {"accuracy_by_query_kind": {k: float(hits[kinds == k].mean()) for k in sorted(set(dataset.query_kinds))}}
    if is_grouping:
        extras["purity"] = float(np.mean(np.concatenate(purities)))
    if out_dir is not None:
        write_results(out_dir / "results.csv", [record])
    return record, extras


def _purity(group_ids, true_regions, num_groups):
    """Per scene of (…,M) ids and regions: the fraction of tokens whose
    group's majority ground-truth region is their own."""
    lead = np.shape(group_ids)[:-1]
    group_ids = np.asarray(group_ids).reshape(-1, np.shape(group_ids)[-1])
    true_regions = np.asarray(true_regions).reshape(group_ids.shape)
    scenes, m = group_ids.shape
    regions = int(true_regions.max()) + 1
    cell = (np.arange(scenes)[:, None] * num_groups + group_ids) * regions + true_regions
    counts = np.bincount(cell.ravel(), minlength=scenes * num_groups * regions)
    majority = counts.reshape(scenes, num_groups, regions).argmax(axis=-1)
    hits = np.take_along_axis(majority, group_ids, axis=-1) == true_regions
    return (hits.sum(axis=-1) / m).reshape(lead)


# -- ablations -----------------------------------------------------------------

# run-config fields that only stage 2 reads: a stage-1 checkpoint is reused
# whatever their values
STAGE2_ONLY_FIELDS = (
    "mask_mode",
    "head_blocks",
    "temperature",
    "grouping_eps",
    "reducer",
    "target_tokens",
    "reducer_seed",
    "stage1_dir",
)


def _reusable(run_cfg):
    """The run's checkpoint if an earlier run with the same settings for this
    stage (out_dir aside) already wrote it, else None."""
    ckpt = Path(run_cfg.out_dir) / f"stage{run_cfg.stage}"
    if not (ckpt / "manifest.txt").exists():
        return None
    ignored = ("out_dir",) + (STAGE2_ONLY_FIELDS if run_cfg.stage == 1 else ())
    wanted = {k: v for k, v in run_cfg.to_dict().items() if k not in ignored}
    _refuse_stale(ckpt, read_manifest(ckpt)[0], wanted)
    return ckpt


ABLATION_PRESETS = ("token_sweep", "mask_mode")


def ablation_plan(preset, num_patches, mask_mode):
    """The stage-2 rows (reducer, tokens, mask_mode) of a preset, in run order,
    for budgets up to num_patches. 'token_sweep' crosses reducers with token
    budgets after an identity reference; 'mask_mode' compares isolated vs full
    attention for the grouping reducer."""
    if preset not in ABLATION_PRESETS:
        raise ValueError(f"unknown ablation preset {preset!r}")
    if preset == "mask_mode":
        return [(B.KIND_GROUPING, t, mode) for t in (16, 64) if t <= num_patches for mode in (MASK_ISOLATED, MASK_FULL)]
    rows = [(B.KIND_IDENTITY, num_patches, mask_mode)]
    for reducer in (B.KIND_GROUPING, B.KIND_RANDOM_DROP, B.KIND_AVG_POOL):
        for tokens in (8, 16, 32, 64):
            # adaptive pooling is defined on square grids only
            if tokens <= num_patches and (reducer != B.KIND_AVG_POOL or (tokens**0.5).is_integer()):
                rows.append((reducer, tokens, mask_mode))
    return rows


def run_ablation(preset, cfg, seeds):
    """Train (or reuse) and evaluate each planned row of `preset` for every
    seed under cfg.out_dir, and write the rows to <preset>.csv there."""
    plan = ablation_plan(preset, cfg.num_patches, cfg.mask_mode)
    root = Path(cfg.out_dir)
    root.mkdir(parents=True, exist_ok=True)
    # each seed generates its own data and stage 1 under root
    cfg = replace(cfg, train_data="", eval_data="", stage1_dir="")
    rows = []
    for seed in seeds:
        seed_cfg = replace(cfg, seed=seed)
        datasets = ensure_dataset(seed_cfg, "train", root), ensure_dataset(seed_cfg, "eval", root)
        stage1_cfg = replace(seed_cfg, stage=1, out_dir=str(root / f"stage1_seed{seed}"))
        stage1 = _reusable(stage1_cfg) or train_stage1(stage1_cfg, *datasets)
        for reducer, tokens, mode in plan:
            run_dir = root / f"run_{reducer}_{tokens}_{mode}_seed{seed}"  # shared across presets with equal settings
            run_cfg = replace(
                seed_cfg, stage=2, reducer=reducer, target_tokens=tokens, mask_mode=mode, out_dir=str(run_dir)
            )
            ckpt = _reusable(run_cfg)
            if ckpt is None:  # a fresh row takes the evaluation its training ran
                _, record, extras = _train_stage2(run_cfg, stage1, *datasets)
            else:
                record, extras = evaluate(ckpt, datasets[1])
            purity = extras.get("purity", float("nan"))
            rows.append(
                dict(reducer=reducer, tokens=tokens, mask_mode=mode, seed=seed, accuracy=record.score, purity=purity)
            )
    _write_ablation_table(root / f"{preset}.csv", rows)
    return rows


def _write_ablation_table(path, rows):
    lines = ["reducer,tokens,mask_mode,seed,accuracy,purity"]
    for r in rows:
        lines.append(
            f"{r['reducer']},{r['tokens']},{r['mask_mode']},{r['seed']},{r['accuracy']:.6f},{r['purity']:.6f}"
        )
    for (reducer, tokens, mode), mean in sorted(ablation_means(rows).items()):
        lines.append(f"mean:{reducer},{tokens},{mode},-,{mean:.6f},nan")
    Path(path).write_text("".join(line + "\n" for line in lines))


def ablation_means(rows):
    means = {}
    for r in rows:
        means.setdefault((r["reducer"], r["tokens"], r["mask_mode"]), []).append(r["accuracy"])
    return {key: float(np.mean(v)) for key, v in means.items()}
