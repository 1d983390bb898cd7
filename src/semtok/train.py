"""Two-stage training pipeline, evaluation, and ablation presets.

Stage 1 aligns visual features on a caption-like class-bag proxy without any
grouping machinery. Stage 2 freezes the encoder, attaches semantic tokens and
the grouping block (or a baseline reducer), and trains the connector plus a
query-conditioned task head so instruction gradients reach the grouping
layer. Every run is seed-deterministic: repeated runs write byte-identical
checkpoints, results files, and assignment maps.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import baselines as B
from . import grouping as G
from . import tensor as T
from .data import SceneSpec, generate_dataset, load_dataset
from .encoder import MASK_FULL, MASK_ISOLATED, Encoder, EncoderConfig, SemanticTokens
from .metrics import CostModelConfig, EvalRecord, prefill_cost, write_results
from .model import BagHead, Connector, TaskHead, load_into
from .optim import Adam, parameters_of, require_grad
from .tensor_io import load_checkpoint, save_checkpoint

# seed-stream tags so independent random purposes never share a stream
TAG_MODEL = 1
TAG_SHUFFLE = 2
TAG_NOISE = 3
TAG_DROP = 4
TAG_DATA = 5
TAG_EVAL_DROP = 6

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
    channels: int = 3
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
    per_token_noise: bool = False
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
    # ablation
    ablate_seeds: int = 5

    def encoder_config(self, num_semantic_tokens=0):
        return EncoderConfig(
            image_height=self.image_height,
            image_width=self.image_width,
            channels=self.channels,
            patch_size=self.patch_size,
            embed_dim=self.embed_dim,
            num_layers=self.num_layers,
            num_heads=self.num_heads,
            num_semantic_tokens=num_semantic_tokens,
            mask_mode=self.mask_mode,
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

    def to_dict(self):
        out = {}
        for f in fields(self):
            v = getattr(self, f.name)
            out[f.name] = ",".join(repr(x) for x in v) if isinstance(v, tuple) else str(v)
        return out

    @classmethod
    def from_items(cls, items):
        kwargs = {}
        for key, value in items:
            if key not in cls.__dataclass_fields__:
                raise KeyError(f"unknown config key {key!r}")
            default = cls.__dataclass_fields__[key].default
            if isinstance(default, bool):
                kwargs[key] = value in ("True", "true", "1")
            elif isinstance(default, int):
                kwargs[key] = int(value)
            elif isinstance(default, float):
                kwargs[key] = float(value)
            elif isinstance(default, tuple):
                kwargs[key] = tuple(float(x) for x in value.split(","))
            else:
                kwargs[key] = value
        return cls(**kwargs)

    @classmethod
    def from_file(cls, path, overrides=()):
        items = []
        if path:
            for lineno, line in enumerate(Path(path).read_text().splitlines(), 1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                key, value = split_item(line, f"{path}:{lineno}")
                items.append((key.strip(), value.strip()))
        items.extend(overrides)
        return cls.from_items(items)


def split_item(text, where):
    """Split one KEY=VALUE config item; `where` names its origin in errors."""
    key, sep, value = text.partition("=")
    if not sep:
        raise ValueError(f"{where}: expected KEY=VALUE, got {text!r}")
    return key, value


# -- data -------------------------------------------------------------------


def ensure_dataset(cfg, which, out_root):
    """Load the configured dataset or deterministically generate one."""
    path = cfg.train_data if which == "train" else cfg.eval_data
    if path:
        return load_dataset(path)
    count = cfg.train_count if which == "train" else cfg.eval_count
    sub = Path(out_root) / f"data_{which}_seed{cfg.seed}"
    if not (sub / "scenes.csv").exists():
        generate_dataset(
            cfg.scene_spec(), count, derived_seed(cfg.seed, TAG_DATA, 0 if which == "train" else 1), sub
        )
    return load_dataset(sub)


# -- stage 1 ------------------------------------------------------------------


def _batches(count, batch_size, order=None):
    idx = np.arange(count) if order is None else order
    for lo in range(0, count, batch_size):
        yield idx[lo : lo + batch_size]


def _bag_loss(encoder, connector, bag_head, images, presence):
    tokens = encoder.patch_embed(images)
    img_out, _ = encoder.encode(tokens)
    return T.sigmoid_bce(bag_head.forward(connector.forward(img_out)), presence)


def train_stage1(cfg, train_ds=None, eval_ds=None):
    """Alignment pretraining: encoder + connector + bag head on the class-bag
    proxy; no grouping layer or semantic tokens exist yet."""
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    train_ds = train_ds if train_ds is not None else ensure_dataset(cfg, "train", out_dir)
    eval_ds = eval_ds if eval_ds is not None else ensure_dataset(cfg, "eval", out_dir)

    rng = rng_for(cfg.seed, TAG_MODEL, 1)
    encoder = Encoder(cfg.encoder_config(0), rng)
    connector = Connector(cfg.embed_dim, rng)
    bag_head = BagHead(cfg.embed_dim, cfg.num_classes, rng)
    params = parameters_of(
        {f"encoder.{k}": v for k, v in encoder.params.items()}, connector, bag_head
    )
    opt = Adam(params, lr=cfg.learning_rate)

    presence_train = train_ds.class_presence()
    presence_eval = eval_ds.class_presence()

    def eval_loss():
        with T.no_grad():
            return _bag_loss(encoder, connector, bag_head, eval_ds.images, presence_eval).item()

    loss_before = eval_loss()
    for epoch in range(cfg.epochs):
        order = rng_for(cfg.seed, TAG_SHUFFLE, 1, epoch).permutation(len(train_ds))
        for batch in _batches(len(train_ds), cfg.batch_size, order):
            loss = _bag_loss(
                encoder, connector, bag_head, train_ds.images[batch], presence_train[batch]
            )
            opt.zero_grad()
            loss.backward()
            opt.step()
    loss_after = eval_loss()

    ckpt = out_dir / "stage1"
    save_checkpoint(
        ckpt,
        parameters_to_tensors(params),
        config=dict(cfg.to_dict(), stage="1"),
        notes=[STAGE1_NOTE],
    )
    (out_dir / "stage1_report.txt").write_text(
        f"eval_bag_loss_before {loss_before:.6f}\neval_bag_loss_after {loss_after:.6f}\n"
    )
    return ckpt


def parameters_to_tensors(params):
    return {name: p.data for name, p in params.items()}


# -- stage 2 ------------------------------------------------------------------


class Stage2Model:
    """Frozen encoder + reducer + connector + query-conditioned task head.

    Because the encoder is frozen, its image-path outputs are constant for a
    given dataset; prepare() precomputes them once so training steps only run
    the trainable pieces (plus the semantic half under the isolated layout).
    Full-attention grouping cannot be cached: there the image path depends on
    the live semantic tokens.
    """

    def __init__(self, cfg, encoder, connector, head, sem=None, grouping_params=None):
        self.cfg = cfg
        self.encoder = encoder
        self.connector = connector
        self.head = head
        self.sem = sem
        self.grouping = grouping_params
        self.spec = B.ReducerSpec(cfg.reducer, cfg.target_tokens, seed=cfg.reducer_seed)
        n = sem.count if sem is not None else 0
        self.mask = cfg.mask_mode if n else None  # attention layout passed to encode
        self._cache_dataset = None
        self._cache_img_out = None
        self._cache_states = None

    @property
    def _cacheable(self):
        return not (self.spec.kind == B.KIND_GROUPING and self.cfg.mask_mode == MASK_FULL)

    def prepare(self, dataset, batch_size=64):
        """Precompute frozen-encoder image states for every scene."""
        if not self._cacheable or self._cache_dataset is dataset:
            return
        need_states = self.spec.kind == B.KIND_GROUPING
        img_chunks = []
        state_chunks = []
        for idx in _batches(len(dataset), batch_size):
            tokens = self.encoder.patch_embed(dataset.images[idx])
            states, img_out = self.encoder.image_state_stack(tokens)
            img_chunks.append(img_out)
            if need_states:
                state_chunks.append(states)
        self._cache_img_out = np.concatenate(img_chunks, axis=0)
        if need_states:
            self._cache_states = [
                np.concatenate([chunk[layer] for chunk in state_chunks], axis=0)
                for layer in range(len(self.encoder.blocks))
            ]
        self._cache_dataset = dataset

    def visual_outputs(self, dataset, idx):
        """(img_out, sem_out) for the selected scenes; sem_out is None for
        reducers without semantic tokens."""
        if self.spec.kind == B.KIND_GROUPING and not self._cacheable:
            tokens = self.encoder.patch_embed(dataset.images[idx])
            return self.encoder.encode(tokens, self.sem, self.mask)
        if self._cache_dataset is not dataset:
            self.prepare(dataset)
        img_out = T.Tensor(self._cache_img_out[idx])
        if self.spec.kind != B.KIND_GROUPING:
            return img_out, None
        states = [s[idx] for s in self._cache_states]
        sem_out = self.encoder.encode_sem_cached(states, self.sem, batch_shape=(len(idx),))
        return img_out, sem_out

    def reduced_tokens(self, dataset, idx, mode, step_seed):
        img_out, sem_out = self.visual_outputs(dataset, idx)
        if self.spec.kind == B.KIND_GROUPING:
            return B.reduce(img_out, sem_out, self.spec, params=self.grouping, mode=mode, seed=step_seed)
        if self.spec.kind == B.KIND_RANDOM_DROP:
            if mode == G.MODE_TRAIN:  # resample per step; eval fixes per scene
                seeds = [derived_seed(step_seed, int(i)) for i in range(len(idx))]
            else:
                seeds = [derived_seed(self.spec.seed, TAG_EVAL_DROP, int(i)) for i in idx]
            return B.random_drop_batch(img_out, self.spec.target_tokens, seeds)
        return B.reduce(img_out, None, self.spec)

    def logits(self, dataset, idx, mode, step_seed):
        reduced = self.reduced_tokens(dataset, idx, mode, step_seed)
        return self.head.forward(self.connector.forward(reduced), dataset.query_ids[idx])

    def trainable_params(self):
        pieces = [self.connector, self.head]
        if self.spec.kind == B.KIND_GROUPING:
            pieces.append({"semantic_tokens": self.sem.values})
            pieces.append({f"grouping.{k}": v for k, v in self.grouping.params.items()})
        return parameters_of(*pieces)

    def all_params(self):
        merged = parameters_of({f"encoder.{k}": v for k, v in self.encoder.params.items()})
        merged.update(self.trainable_params())
        return merged


def build_stage2_model(cfg, stage1_tensors):
    n = cfg.target_tokens if cfg.reducer == B.KIND_GROUPING else 0
    encoder = Encoder(cfg.encoder_config(n), rng_for(cfg.seed, TAG_MODEL, 1))
    load_into(
        encoder.params,
        {k[len("encoder.") :]: v for k, v in stage1_tensors.items() if k.startswith("encoder.")},
    )
    require_grad(encoder.params, False)  # freeze: retains stage-1 alignment

    rng = rng_for(cfg.seed, TAG_MODEL, 2)
    connector = Connector(cfg.embed_dim, rng)
    load_into(connector.params, stage1_tensors)
    head = TaskHead(
        cfg.embed_dim,
        cfg.num_heads,
        cfg.scene_spec().query_vocab,
        cfg.num_classes,
        rng,
        num_blocks=cfg.head_blocks,
    )
    sem = grouping_params = None
    if cfg.reducer == B.KIND_GROUPING:
        sem = SemanticTokens.create(cfg.target_tokens, cfg.embed_dim, rng)
        grouping_params = G.GroupingParams.create(
            cfg.embed_dim,
            rng,
            temperature=cfg.temperature,
            eps=cfg.grouping_eps,
            per_token_noise=cfg.per_token_noise,
        )
    return Stage2Model(cfg, encoder, connector, head, sem, grouping_params)


def train_stage2(cfg, stage1_dir, train_ds=None, eval_ds=None):
    """Instruction tuning: encoder frozen; connector, grouping machinery, and
    task head learn from query-conditioned losses."""
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    train_ds = train_ds if train_ds is not None else ensure_dataset(cfg, "train", out_dir)
    eval_ds = eval_ds if eval_ds is not None else ensure_dataset(cfg, "eval", out_dir)

    stage1_tensors, _, _ = load_checkpoint(stage1_dir)
    model = build_stage2_model(cfg, stage1_tensors)
    model.prepare(train_ds)
    opt = Adam(model.trainable_params(), lr=cfg.learning_rate)

    step = 0
    for epoch in range(cfg.epochs):
        order = rng_for(cfg.seed, TAG_SHUFFLE, 2, epoch).permutation(len(train_ds))
        for batch in _batches(len(train_ds), cfg.batch_size, order):
            step_seed = derived_seed(cfg.seed, TAG_NOISE, step)
            logits = model.logits(train_ds, batch, G.MODE_TRAIN, step_seed)
            loss = T.cross_entropy(logits, train_ds.targets[batch])
            opt.zero_grad()
            loss.backward()
            opt.step()
            step += 1

    ckpt = out_dir / "stage2"
    notes = ["stage2 freezes the encoder; trainable: connector, task head"]
    if cfg.reducer == B.KIND_GROUPING:
        notes = ["stage2 freezes the encoder; trainable: connector, semantic tokens, grouping block, task head"]
    save_checkpoint(ckpt, parameters_to_tensors(model.all_params()), config=dict(cfg.to_dict(), stage="2"), notes=notes)
    record, extras = evaluate(ckpt, eval_ds)  # maps/results land on explicit `eval` runs
    lines = [f"eval_accuracy {record.score:.6f}"]
    if "purity" in extras:
        lines.append(f"grouping_purity {extras['purity']:.6f}")
    (out_dir / "stage2_report.txt").write_text("".join(line + "\n" for line in lines))
    return ckpt


def load_stage2_model(ckpt_dir):
    tensors, config, _ = load_checkpoint(ckpt_dir)
    cfg = RunConfig.from_items([(k, v) for k, v in config.items() if k in RunConfig.__dataclass_fields__])
    model = build_stage2_model(cfg, {k: v for k, v in tensors.items() if k.startswith(("encoder.", "connector."))})
    load_into(model.head.params, tensors)
    if model.sem is not None:
        load_into({"semantic_tokens": model.sem.values}, tensors)
        load_into({f"grouping.{k}": v for k, v in model.grouping.params.items()}, tensors)
    load_into(model.connector.params, tensors)
    return model, cfg


# -- evaluation ----------------------------------------------------------------


def evaluate(ckpt_dir, dataset, reducer_spec=None, out_dir=None, baseline_score=None, dataset_name="synthetic"):
    """Deterministic eval-mode pass: accuracy, modeled per-sample time, and
    (for grouping runs) assignment maps plus token-to-region purity."""
    model, cfg = load_stage2_model(ckpt_dir)
    if reducer_spec is not None:
        model.spec = reducer_spec
        if reducer_spec.kind == B.KIND_GROUPING and model.sem is None:
            raise ValueError("checkpoint has no grouping parameters")
    is_grouping = model.spec.kind == B.KIND_GROUPING

    correct = 0
    purities = []
    assignments = []
    batch_size = max(cfg.batch_size, 64)
    token_regions = dataset.token_regions(cfg.patch_size) if is_grouping else None
    model.prepare(dataset)
    with T.no_grad():
        for batch in _batches(len(dataset), batch_size):
            if is_grouping:
                img_out, sem_out = model.visual_outputs(dataset, batch)
                reduced = B.reduce(img_out, sem_out, model.spec, params=model.grouping, mode=G.MODE_EVAL)
                ids = G.assign_eval(sem_out, img_out, model.grouping)
                assignments.append(ids)
                for row, truth in zip(ids, token_regions[batch]):
                    purities.append(_purity(row, truth, model.spec.target_tokens))
            else:
                reduced = model.reduced_tokens(dataset, batch, G.MODE_EVAL, 0)
            logits = model.head.forward(model.connector.forward(reduced), dataset.query_ids[batch])
            predicted = np.argmax(logits.data, axis=-1)
            correct += int((predicted == dataset.targets[batch]).sum())

    accuracy = correct / len(dataset)
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
    extras = {}
    if is_grouping:
        extras["purity"] = float(np.mean(purities))
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        write_results(out_dir / "results.csv", [record])
        if is_grouping:
            maps_dir = out_dir / "maps"
            maps_dir.mkdir(exist_ok=True)
            all_ids = np.concatenate(assignments, axis=0)
            for i in range(all_ids.shape[0]):
                G.write_assignment_pgm(maps_dir / f"scene_{i:05d}.pgm", all_ids[i], model.spec.target_tokens)
            extras["maps_dir"] = str(maps_dir)
    return record, extras


def _purity(group_ids, true_regions, num_groups):
    """Fraction of tokens whose group's majority ground-truth region matches
    their own region."""
    majority = {}
    for g in range(num_groups):
        members = true_regions[group_ids == g]
        if members.size:
            majority[g] = np.bincount(members).argmax()
    hits = sum(1 for g, r in zip(group_ids, true_regions) if majority.get(g) == r)
    return hits / len(group_ids)


def accuracy_by_query_kind(ckpt_dir, dataset):
    """Instruction-awareness proxy: per-query-kind accuracy breakdown."""
    model, cfg = load_stage2_model(ckpt_dir)
    model.prepare(dataset)
    kinds = {}
    with T.no_grad():
        for batch in _batches(len(dataset), max(cfg.batch_size, 64)):
            logits = model.logits(dataset, batch, G.MODE_EVAL, 0)
            predicted = np.argmax(logits.data, axis=-1)
            for i, ok in zip(batch, predicted == dataset.targets[batch]):
                kinds.setdefault(dataset.query_kinds[i], []).append(bool(ok))
    return {k: float(np.mean(v)) for k, v in sorted(kinds.items())}


# -- ablations -----------------------------------------------------------------

TOKEN_SWEEP = (8, 16, 32, 64)
MASK_ABLATION_TOKENS = (16, 64)


def _stage1_for_seed(cfg, seed, root, datasets):
    run_cfg = replace(cfg, seed=seed, stage=1, out_dir=str(root / f"stage1_seed{seed}"))
    ckpt = Path(run_cfg.out_dir) / "stage1"
    if not (ckpt / "manifest.txt").exists():
        train_stage1(run_cfg, *datasets[seed])
    return ckpt


def _datasets_for_seed(cfg, seed, root):
    train_dir = root / f"data_train_seed{seed}"
    eval_dir = root / f"data_eval_seed{seed}"
    if not (train_dir / "scenes.csv").exists():
        generate_dataset(cfg.scene_spec(), cfg.train_count, derived_seed(seed, TAG_DATA, 0), train_dir)
    if not (eval_dir / "scenes.csv").exists():
        generate_dataset(cfg.scene_spec(), cfg.eval_count, derived_seed(seed, TAG_DATA, 1), eval_dir)
    return load_dataset(train_dir), load_dataset(eval_dir)


def _stage2_row(cfg, seed, stage1, datasets, root, reducer, tokens, mask_mode=None):
    mode = mask_mode or cfg.mask_mode
    label = f"{reducer}_{tokens}_{mode}"  # shared across presets with equal settings
    run_cfg = replace(
        cfg,
        seed=seed,
        stage=2,
        reducer=reducer,
        target_tokens=tokens,
        mask_mode=mode,
        out_dir=str(root / f"run_{label}_seed{seed}"),
    )
    ckpt = Path(run_cfg.out_dir) / "stage2"
    if not (ckpt / "manifest.txt").exists():
        train_stage2(run_cfg, stage1, *datasets[seed])
    record, extras = evaluate(ckpt, datasets[seed][1])
    return {
        "reducer": reducer,
        "tokens": tokens,
        "mask_mode": run_cfg.mask_mode,
        "seed": seed,
        "accuracy": record.score,
        "purity": extras.get("purity", float("nan")),
    }


def run_ablation(preset, cfg, out_dir=None, seeds=None):
    """Presets: 'token_sweep' crosses reducers with target token counts;
    'mask_mode' compares isolated vs full attention for the grouping reducer."""
    if preset not in ("token_sweep", "mask_mode"):
        raise ValueError(f"unknown ablation preset {preset!r}")
    root = Path(out_dir if out_dir is not None else cfg.out_dir)
    root.mkdir(parents=True, exist_ok=True)
    seeds = list(seeds if seeds is not None else range(cfg.ablate_seeds))
    datasets = {s: _datasets_for_seed(cfg, s, root) for s in seeds}
    stage1 = {s: _stage1_for_seed(cfg, s, root, datasets) for s in seeds}

    rows = []
    if preset == "token_sweep":
        for seed in seeds:
            rows.append(_stage2_row(cfg, seed, stage1[seed], datasets, root, B.KIND_IDENTITY, cfg.num_patches))
            for reducer in (B.KIND_GROUPING, B.KIND_RANDOM_DROP, B.KIND_AVG_POOL):
                for tokens in TOKEN_SWEEP:
                    if tokens > cfg.num_patches:
                        continue
                    if reducer == B.KIND_AVG_POOL and int(round(np.sqrt(tokens))) ** 2 != tokens:
                        continue  # adaptive pooling is defined on square grids only
                    rows.append(_stage2_row(cfg, seed, stage1[seed], datasets, root, reducer, tokens))
    else:
        for seed in seeds:
            for tokens in MASK_ABLATION_TOKENS:
                if tokens > cfg.num_patches:
                    continue
                for mode in (MASK_ISOLATED, MASK_FULL):
                    rows.append(
                        _stage2_row(cfg, seed, stage1[seed], datasets, root, B.KIND_GROUPING, tokens, mode)
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
