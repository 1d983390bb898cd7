"""The benchmark's four workloads.

Each workload makes its inputs from the benchmark seed in `setup`, runs one
repeatable operation through the public entry points in `op` (that call is
what the runner times), and checks the operation's outputs in `check`.
Every operation of a run sees the same inputs, so its outputs must be
byte-identical from one repeat to the next; the runner checks that with a
digest of the operation's output directory.
"""

from __future__ import annotations

import contextlib
import io
import math
import shutil
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from semtok import baselines as B
from semtok import cli
from semtok import data as D
from semtok import tensor as T
from semtok import train as TR
from semtok.metrics import read_results


@dataclass(frozen=True)
class Scale:
    """Input sizes. `default` is what the benchmark measures; `tiny` only
    shows that every workload and metric runs (smoke test).

    `default` keeps every `RunConfig` field at its default, epochs (4)
    included. Only the scene counts are smaller: a training operation uses
    128 train and 32 held-out scenes, the 4:1 ratio of the default 2000 and
    500, so the cache build and the evaluation keep their share of a
    training run against the steps."""

    overrides: dict
    train: int  # scenes per training operation (stage1_train, stage2_grouping)
    eval: int  # held-out scenes evaluated inside a training operation
    setup_train: int  # scenes for the checkpoints that setup trains
    reducer_eval: int  # scenes per evaluation pass (eval_reducers)
    gen: int  # scenes per generated dataset (gen_data)


SCALES = {
    "default": Scale({}, train=128, eval=32, setup_train=32, reducer_eval=128, gen=512),
    "tiny": Scale(
        {
            "image_height": 32,
            "image_width": 32,
            "embed_dim": 32,
            "num_layers": 2,
            "num_heads": 2,
            "head_blocks": 1,
            "batch_size": 16,
            "target_tokens": 4,
            "epochs": 1,
        },
        train=32,
        eval=16,
        setup_train=16,
        reducer_eval=16,
        gen=16,
    ),
}

# Labels of the five evaluation passes; the budgets scale with the config
# (16 and 64 at the default config).
EVAL_PASSES = ("grouping16_isolated", "grouping16_full", "random_drop16", "avg_pool16", "identity64")


def input_seed(seed, stream):
    """Independent input stream `stream` of benchmark seed `seed`."""
    return int(np.random.SeedSequence([seed, stream]).generate_state(1, np.uint32)[0])


@dataclass
class OpResult:
    scenes: int  # scenes the timed call processed
    out_dir: Path  # everything the call wrote; digested by the runner
    pass_rates: dict = field(default_factory=dict)  # label -> scenes/s of a sub-call
    quality: dict = field(default_factory=dict)  # deterministic model-quality numbers


class Workload:
    name = ""

    def __init__(self, scale, seed, work):
        self.scale = scale
        self.seed = seed
        self.work = Path(work)
        self.cfg = TR.RunConfig(**scale.overrides, seed=seed)
        self.reference = None  # directory every operation's output must equal, if any

    def dataset(self, root, name, count, stream):
        return D.generate_dataset(self.cfg.scene_spec(), count, input_seed(self.seed, stream), Path(root) / name)

    def setup(self, root):
        raise NotImplementedError

    def op(self):
        raise NotImplementedError

    def check(self, result):
        """Problems found in one operation's outputs (empty when correct)."""
        return []

    def final_checks(self):
        """(name, problems) of one-off checks run after the timed operations."""
        return []


def _report(path):
    values = {}
    for line in Path(path).read_text().splitlines():
        key, value = line.split()
        values[key] = float(value)
    return values


class Stage1Train(Workload):
    """Encoder forward and backward plus tensor ops dominate. Grouping and
    the frozen cache do no work, so grouping and cache changes should leave
    this workload unchanged."""

    name = "stage1_train"

    def setup(self, root):
        self.train = self.dataset(root, "train", self.scale.train, 0)
        self.eval = self.dataset(root, "eval", self.scale.eval, 1)

    def op(self):
        out = self.work / "op"
        TR.train_stage1(replace(self.cfg, stage=1, out_dir=str(out)), self.train, self.eval)
        report = _report(out / "stage1_report.txt")
        return OpResult(
            scenes=len(self.train) * self.cfg.epochs,
            out_dir=out,
            quality={"stage1_bag_loss": report["eval_bag_loss_after"]},
        )

    def check(self, result):
        report = _report(result.out_dir / "stage1_report.txt")
        before, after = report["eval_bag_loss_before"], report["eval_bag_loss_after"]
        if not (math.isfinite(after) and after < before):
            return [f"stage-1 bag loss did not fall: before {before}, after {after}"]
        return []


class Stage2Grouping(Workload):
    """Frozen-encoder cache, Gumbel grouping forward and backward, a 17-token
    task head and Adam over small parameters; no encoder backward. Work
    moved between the cache (`prepare`) and the steps shows here."""

    name = "stage2_grouping"

    def setup(self, root):
        self.train = self.dataset(root, "train", self.scale.train, 0)
        self.eval = self.dataset(root, "eval", self.scale.eval, 1)
        stage1_train = self.dataset(root, "stage1_train", self.scale.setup_train, 2)
        s1_cfg = replace(self.cfg, stage=1, out_dir=str(Path(root) / "s1"))
        self.stage1 = TR.train_stage1(s1_cfg, stage1_train, self.eval)

    def _cfg(self, out):
        return replace(self.cfg, stage=2, reducer=B.KIND_GROUPING, mask_mode="isolated", out_dir=str(out))

    def op(self):
        out = self.work / "op"
        TR.train_stage2(self._cfg(out), self.stage1, self.train, self.eval)
        report = _report(out / "stage2_report.txt")
        return OpResult(
            scenes=len(self.train) * self.cfg.epochs,
            out_dir=out,
            quality={"eval_accuracy": report["eval_accuracy"]},
        )

    def final_checks(self):
        """The cached fast path (frozen image states plus the semantic half)
        must equal the reference encoder bit for bit on one batch."""
        model, cfg = TR.load_stage2_model(self.work / "op" / "stage2")
        idx = np.arange(min(cfg.batch_size, len(self.train)))
        model.prepare(self.train)
        with T.no_grad():
            img_fast, sem_fast = model.visual_outputs(self.train, idx)
            tokens = model.encoder.patch_embed(self.train.images[idx])
            img_ref, sem_ref = model.encoder.encode(tokens, model.sem, model.mask)
        problems = [
            f"cached {what} differs from encoder.encode"
            for what, fast, ref in (("image output", img_fast, img_ref), ("semantic output", sem_fast, sem_ref))
            if fast.data.dtype != ref.data.dtype or fast.data.tobytes() != ref.data.tobytes()
        ]
        return [("fast_path_bitwise", problems)]


def full_mask_copy(ckpt, dest):
    """Copy of a stage-2 checkpoint whose config selects full attention."""
    shutil.copytree(ckpt, dest)
    manifest = Path(dest) / "manifest.txt"
    lines = manifest.read_text().splitlines()
    if "config mask_mode isolated" not in lines:
        raise ValueError(f"{manifest}: expected an isolated-layout checkpoint")
    swapped = ("config mask_mode full" if line == "config mask_mode isolated" else line for line in lines)
    manifest.write_text("".join(line + "\n" for line in swapped))
    return Path(dest)


class EvalReducers(Workload):
    """Forward-only evaluation of one checkpoint under each reducer and token
    budget: the paper's inference comparison, measured instead of modeled."""

    name = "eval_reducers"

    def setup(self, root):
        root = Path(root)
        self.eval = self.dataset(root, "eval", self.scale.reducer_eval, 1)
        small = self.dataset(root, "setup_train", self.scale.setup_train, 2)
        s1 = TR.train_stage1(replace(self.cfg, stage=1, out_dir=str(root / "s1")), small, small)
        s2_cfg = replace(self.cfg, stage=2, reducer=B.KIND_GROUPING, mask_mode="isolated", out_dir=str(root / "s2"))
        isolated = TR.train_stage2(s2_cfg, s1, small, small)
        full = full_mask_copy(isolated, root / "s2_full")
        n, m = self.cfg.target_tokens, self.cfg.num_patches
        self.passes = dict(
            zip(
                EVAL_PASSES,
                (
                    (isolated, None),
                    (full, None),
                    (isolated, B.ReducerSpec(B.KIND_RANDOM_DROP, n)),
                    (isolated, B.ReducerSpec(B.KIND_AVG_POOL, n)),
                    (isolated, B.ReducerSpec(B.KIND_IDENTITY, m)),
                ),
            )
        )

    def op(self):
        out = self.work / "op"
        rates = {}
        quality = {}
        for label, (ckpt, spec) in self.passes.items():
            t0 = time.perf_counter()
            record, _ = TR.evaluate(ckpt, self.eval, reducer_spec=spec, out_dir=out / label)
            rates[label] = len(self.eval) / (time.perf_counter() - t0)
            if label == EVAL_PASSES[0]:
                quality["eval_accuracy"] = record.score
        return OpResult(scenes=len(self.eval) * len(self.passes), out_dir=out, pass_rates=rates, quality=quality)

    def check(self, result):
        problems = []
        n = self.cfg.target_tokens
        for label in self.passes:
            records = read_results(result.out_dir / label / "results.csv")
            if len(records) != 1 or records[0].sample_count != len(self.eval):
                problems.append(f"{label}: results.csv does not hold one record of {len(self.eval)} samples")
            if label.startswith("grouping"):
                maps = sorted((result.out_dir / label / "maps").glob("*.pgm"))
                if len(maps) != len(self.eval):
                    problems.append(f"{label}: {len(maps)} assignment maps for {len(self.eval)} scenes")
                for path in maps:
                    problem = _check_pgm(path, n)
                    if problem:
                        problems.append(f"{label}: {problem}")
        return problems


def _check_pgm(path, num_groups):
    """Problem with one P2 assignment map, or None: every group id in [0, N)."""
    tokens = Path(path).read_text().split()
    if tokens[0] != "P2":
        return f"{path.name}: not a P2 map"
    width, height = int(tokens[1]), int(tokens[2])
    ids = [int(t) for t in tokens[4:]]
    if len(ids) != width * height:
        return f"{path.name}: {len(ids)} ids for a {width}x{height} map"
    if not all(0 <= g < num_groups for g in ids):
        return f"{path.name}: group id outside [0, {num_groups})"
    return None


class GenData(Workload):
    """Scene generation and tensor file writes and reads do the main work; no
    model runs. Without it the data layer would only show in set-up time."""

    name = "gen_data"

    def setup(self, root):
        self.data_seed = input_seed(self.seed, 3)
        reference = Path(root) / "reference"
        D.generate_dataset(self.cfg.scene_spec(), self.scale.gen, self.data_seed, reference)
        self.reference = reference

    def op(self):
        out = self.work / "op"
        argv = ["gen-data", "--seed", str(self.data_seed), "--out", str(out), "--count", str(self.scale.gen)]
        for key, value in self.scale.overrides.items():
            argv += ["--set", f"{key}={value}"]
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            cli.main(argv)
        self.loaded = D.load_dataset(out)
        self.printed = printed.getvalue()
        return OpResult(scenes=self.scale.gen, out_dir=out)

    def check(self, result):
        problems = []
        if f"wrote {self.scale.gen} scenes" not in self.printed:
            problems.append(f"gen-data printed {self.printed!r}")
        if len(self.loaded) != self.scale.gen:
            problems.append(f"loaded {len(self.loaded)} scenes, wrote {self.scale.gen}")
        return problems


WORKLOADS = {w.name: w for w in (Stage1Train, Stage2Grouping, EvalReducers, GenData)}
