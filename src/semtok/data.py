"""Procedural scene generator with exact ground truth.

A scene is a grid-aligned rectangular partition of the image (so every patch
lies inside exactly one region), each region painted one of a fixed palette of
class colors plus pixel noise. Ground truth (region map, per-region labels)
lets the harness score answers and measure token-to-region grouping purity.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .tensor_io import read_tensor, write_tensor

# Widely separated anchor colors; class id == palette row.
PALETTE = np.array(
    [
        [0.9, 0.1, 0.1],
        [0.1, 0.8, 0.1],
        [0.15, 0.25, 0.9],
        [0.9, 0.85, 0.1],
        [0.85, 0.15, 0.85],
        [0.1, 0.85, 0.85],
        [0.95, 0.55, 0.1],
        [0.55, 0.55, 0.55],
    ],
    dtype=np.float64,
)

QUERY_CLASSIFY_REGION = "classify-region"
QUERY_COUNT_REGIONS = "count-regions"
QUERY_DOMINANT_COLOR = "dominant-color"
QUERY_KINDS = (QUERY_CLASSIFY_REGION, QUERY_COUNT_REGIONS, QUERY_DOMINANT_COLOR)


@dataclass
class SceneSpec:
    height: int = 64
    width: int = 64
    grid: int = 8  # region cuts land on multiples of this, keeping patches pure
    min_regions: int = 2
    max_regions: int = 4
    num_classes: int = 8
    pixel_noise: float = 0.05
    # sampling weights for (classify-region, count-regions, dominant-color)
    query_mix: tuple = (0.3, 0.5, 0.2)
    # chance that one region is a small inset carved out of the largest one;
    # small regions are what make sparse token subsets miss whole objects
    small_region_rate: float = 0.6
    small_region_max: int = 2  # inset side length, in grid units

    def __post_init__(self):
        if self.height % self.grid or self.width % self.grid:
            raise ValueError(f"image {self.height}x{self.width} not divisible by grid {self.grid}")
        if not 1 <= self.min_regions <= self.max_regions:
            raise ValueError("need 1 <= min_regions <= max_regions")
        if self.num_classes > len(PALETTE):
            raise ValueError(f"at most {len(PALETTE)} classes available")
        if self.max_regions > self.num_classes:
            raise ValueError("distinct classes need num_classes >= max_regions")
        if not 0.0 <= self.small_region_rate <= 1.0 or self.small_region_max < 1:
            raise ValueError("bad small-region settings")
        # the tolerance Generator.choice applies to float64 weights; the weights are used as given
        mix, tol = self.query_mix, np.sqrt(np.finfo(np.float64).eps)
        if len(mix) != len(QUERY_KINDS) or not all(w >= 0 for w in mix) or not abs(sum(mix) - 1.0) <= tol:
            raise ValueError(f"query_mix must be {len(QUERY_KINDS)} non-negative weights summing to 1, got {mix}")

    @property
    def query_vocab(self):
        # classify-region-0 .. classify-region-(max_regions-1), count, dominant
        return self.max_regions + 2

    def query_id(self, kind, arg=0):
        if kind == QUERY_CLASSIFY_REGION:
            return int(arg)
        if kind == QUERY_COUNT_REGIONS:
            return self.max_regions
        if kind == QUERY_DOMINANT_COLOR:
            return self.max_regions + 1
        raise ValueError(f"unknown query kind {kind!r}")


@dataclass
class SyntheticScene:
    image: np.ndarray  # (H,W,3) float32 in [0,1]
    region_map: np.ndarray  # (H,W) int32, region ids 0..K-1
    labels: list  # class id per region
    query_kind: str
    query_arg: int
    query_id: int
    target: int

    @property
    def num_regions(self):
        return len(self.labels)


def _split_rects(rng, height, width, count, grid):
    """Recursive axis-aligned cuts at grid multiples; always yields `count`
    rectangles that tile the image."""
    rects = [(0, 0, height, width)]
    while len(rects) < count:
        splittable = [i for i, (_, _, h, w) in enumerate(rects) if h >= 2 * grid or w >= 2 * grid]
        areas = np.array([rects[i][2] * rects[i][3] for i in splittable], dtype=np.float64)
        pick = splittable[int(rng.choice(len(splittable), p=areas / areas.sum()))]
        top, left, h, w = rects.pop(pick)
        split_h = h >= 2 * grid and (w < 2 * grid or rng.random() < h / (h + w))
        if split_h:
            cut = grid * int(rng.integers(1, h // grid))
            rects.extend([(top, left, cut, w), (top + cut, left, h - cut, w)])
        else:
            cut = grid * int(rng.integers(1, w // grid))
            rects.extend([(top, left, h, cut), (top, left + cut, h, w - cut)])
    return sorted(rects, key=lambda r: (r[0], r[1]))  # canonical raster order


def _carve_inset(rng, rects, grid, side_max):
    """Cut a small grid-aligned rectangle out of the largest rect; returns the
    inset or None when it cannot leave the host nonempty and unambiguous."""
    host = max(rects, key=lambda r: r[2] * r[3])
    top, left, h, w = host
    ah = grid * int(rng.integers(1, side_max + 1))
    aw = grid * int(rng.integers(1, side_max + 1))
    if ah > h or aw > w or (ah == h and aw == w):
        return None
    toff = grid * int(rng.integers(0, (h - ah) // grid + 1))
    loff = grid * int(rng.integers(0, (w - aw) // grid + 1))
    if toff == 0 and loff == 0:
        # sharing the host's top-left corner would make region order ambiguous
        if h - ah >= grid:
            toff = grid
        elif w - aw >= grid:
            loff = grid
        else:
            return None
    return (top + toff, left + loff, ah, aw)


def generate_scene(spec, rng):
    k = int(rng.integers(spec.min_regions, spec.max_regions + 1))
    carve = k >= 2 and rng.random() < spec.small_region_rate
    rects = _split_rects(rng, spec.height, spec.width, k - 1 if carve else k, spec.grid)
    inset = _carve_inset(rng, rects, spec.grid, spec.small_region_max) if carve else None
    if inset is not None:
        rects = rects + [inset]
    k = len(rects)
    labels = [int(c) for c in rng.choice(spec.num_classes, size=k, replace=False)]  # distinct classes
    # canonical region order: ascending class id (ties by raster position), so
    # "region r" means "the r-th lowest class present" and is answerable from
    # the color set alone
    order = sorted(range(k), key=lambda i: (labels[i], rects[i][0], rects[i][1]))
    rects = [rects[i] for i in order]
    labels = [labels[i] for i in order]

    region_map = np.zeros((spec.height, spec.width), dtype=np.int32)
    image = np.zeros((spec.height, spec.width, 3), dtype=np.float64)
    order = sorted(range(k), key=lambda rid: rects[rid][2] * rects[rid][3], reverse=True)
    for rid in order:  # paint large-to-small so insets overwrite their host
        top, left, h, w = rects[rid]
        region_map[top : top + h, left : left + w] = rid
        noise = rng.normal(0.0, spec.pixel_noise, size=(h, w, 3))
        image[top : top + h, left : left + w] = PALETTE[labels[rid]] + noise
    image = np.clip(image, 0.0, 1.0).astype(np.float32)

    kind = QUERY_KINDS[int(rng.choice(len(QUERY_KINDS), p=np.asarray(spec.query_mix)))]
    if kind == QUERY_CLASSIFY_REGION:
        arg = int(rng.integers(0, k))
        target = labels[arg]
    elif kind == QUERY_COUNT_REGIONS:
        arg = 0
        target = k
    else:
        arg = 0
        pixel_counts = np.bincount(region_map.reshape(-1), minlength=k)
        counts = np.zeros(spec.num_classes, dtype=np.int64)
        for rid in range(k):
            counts[labels[rid]] += pixel_counts[rid]
        target = int(np.argmax(counts))  # ties toward the lowest class id
    return SyntheticScene(
        image=image,
        region_map=region_map,
        labels=labels,
        query_kind=kind,
        query_arg=arg,
        query_id=spec.query_id(kind, arg),
        target=target,
    )


def dominant_class_from_pixels(image, num_classes):
    """Recover the dominant class by nearest-palette classification of raw
    pixels (independent of the generator's bookkeeping)."""
    flat = image.reshape(-1, 3).astype(np.float64)
    d2 = ((flat[:, None, :] - PALETTE[None, :num_classes, :]) ** 2).sum(axis=-1)
    nearest = np.argmin(d2, axis=1)
    return int(np.argmax(np.bincount(nearest, minlength=num_classes)))


# -- dataset files -----------------------------------------------------------

SCENES_FILE = "scenes.csv"
IMAGES_FILE = "images.tgt"
REGIONS_FILE = "region_maps.tgt"
SPEC_FILE = "spec.txt"
SCENES_HEADER = "index,num_regions,labels,query_kind,query_arg,query_id,target"


class SceneDataset:
    def __init__(self, spec, images, region_maps, scenes_rows):
        self.spec = spec
        self.images = images  # (count,H,W,3) float32
        self.region_maps = region_maps  # (count,H,W) int32
        self.labels = [r[1] for r in scenes_rows]
        self.query_kinds = [r[2] for r in scenes_rows]
        self.query_ids = np.array([r[4] for r in scenes_rows], dtype=np.int64)
        self.targets = np.array([r[5] for r in scenes_rows], dtype=np.int64)

    def __len__(self):
        return self.images.shape[0]

    def class_presence(self):
        """(count, num_classes) multi-hot of classes present in each scene."""
        out = np.zeros((len(self), self.spec.num_classes), dtype=np.float32)
        for i, labels in enumerate(self.labels):
            out[i, labels] = 1.0
        return out

    def token_regions(self, patch_size):
        """(count, M) ground-truth region id per patch (majority vote; exact
        for grid-aligned scenes, ties toward the lowest region id)."""
        count, h, w = self.region_maps.shape
        gh, gw = h // patch_size, w // patch_size
        m = gh * gw
        blocks = self.region_maps.reshape(count, gh, patch_size, gw, patch_size)
        blocks = np.moveaxis(blocks, 2, 3).reshape(count, m, patch_size * patch_size)
        counts = np.stack([(blocks == r).sum(-1) for r in range(int(blocks.max()) + 1)], -1)
        return counts.argmax(axis=-1)


def generate_dataset(spec, count, seed, out_dir):
    """Write `count` scenes to out_dir; byte-identical for identical seeds."""
    if count < 1:
        raise ValueError(f"count must be at least 1, got {count}")
    rng = np.random.default_rng(seed)
    scenes = [generate_scene(spec, rng) for _ in range(count)]
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    images = np.stack([s.image for s in scenes], axis=0)
    regions = np.stack([s.region_map for s in scenes], axis=0).astype(np.float32)
    write_tensor(out_dir / IMAGES_FILE, images)
    write_tensor(out_dir / REGIONS_FILE, regions)
    lines = [SCENES_HEADER]
    for i, s in enumerate(scenes):
        labels = "|".join(str(c) for c in s.labels)
        lines.append(
            f"{i},{s.num_regions},{labels},{s.query_kind},{s.query_arg},{s.query_id},{s.target}"
        )
    spec_lines = [f"{k}={v}" for k, v in format_fields(spec).items()]
    (out_dir / SPEC_FILE).write_text("".join(line + "\n" for line in spec_lines))
    (out_dir / SCENES_FILE).write_text("".join(line + "\n" for line in lines))
    return load_dataset(out_dir)


def _spec_items(path):
    """spec.txt's items less the distinct_classes=True that older versions
    wrote; scenes always have distinct classes, so other values are refused."""
    for lineno, line in enumerate(path.read_text().splitlines(), 1):
        key, _, value = line.partition("=")
        if key.strip() == "distinct_classes" and value.strip() != "True":
            raise ValueError(f"{path}:{lineno}: distinct_classes must be True, got {value.strip()!r}")
    return [item for item in read_items(path) if item[0] != "distinct_classes"]


def load_dataset(directory):
    directory = Path(directory)
    spec = parse_fields(SceneSpec, _spec_items(directory / SPEC_FILE))
    images = read_tensor(directory / IMAGES_FILE)
    regions = read_tensor(directory / REGIONS_FILE).astype(np.int32)
    rows = []
    scenes = directory / SCENES_FILE
    for lineno, line in enumerate(scenes.read_text().splitlines(), 1):
        line = line.strip()
        if not line or line == SCENES_HEADER:
            continue
        try:
            _, num_regions, labels, kind, arg, qid, target = line.split(",")
            rows.append(
                (
                    int(num_regions),
                    [int(c) for c in labels.split("|")],
                    kind,
                    int(arg),
                    int(qid),
                    int(target),
                )
            )
        except ValueError as err:
            raise ValueError(f"{scenes}:{lineno}: malformed scene row {line!r} ({err})") from None
    if not len(rows) == images.shape[0] == regions.shape[0]:
        raise ValueError(
            f"{directory}: scene counts disagree: {SCENES_FILE} has {len(rows)} rows, "
            f"{IMAGES_FILE} {images.shape[0]} images, {REGIONS_FILE} {regions.shape[0]} maps"
        )
    return SceneDataset(spec, images, regions, rows)


# -- config codec: the text form of spec.txt, run configs and manifest configs


def format_fields(obj):
    """Field name -> text of a config dataclass; parse_fields inverts it."""
    out = {}
    for f in fields(obj):
        v = getattr(obj, f.name)
        out[f.name] = ",".join(str(x) for x in v) if isinstance(v, tuple) else str(v)
    return out


def parse_fields(cls, items):
    """Build config dataclass `cls` from (key, text) pairs, each value typed
    by its field's default."""
    kwargs = {}
    for key, value in items:
        if key not in cls.__dataclass_fields__:
            raise KeyError(f"unknown config key {key!r}")
        default = cls.__dataclass_fields__[key].default
        try:
            if isinstance(default, int):
                kwargs[key] = int(value)
            elif isinstance(default, float):
                kwargs[key] = float(value)
            elif isinstance(default, tuple):
                kwargs[key] = tuple(float(x) for x in value.split(","))
            else:
                kwargs[key] = value
        except ValueError as err:
            raise ValueError(f"config key {key!r}: {err}") from None
    return cls(**kwargs)


def split_item(text, where):
    """Split one KEY=VALUE config item; `where` names its origin in errors."""
    key, sep, value = text.partition("=")
    if not sep:
        raise ValueError(f"{where}: expected KEY=VALUE, got {text!r}")
    return key, value


def read_items(path):
    """(key, value) pairs of a KEY=VALUE file; blank and '#' lines are skipped."""
    items = []
    for lineno, line in enumerate(Path(path).read_text().splitlines(), 1):
        line = line.strip()
        if line and not line.startswith("#"):
            key, value = split_item(line, f"{path}:{lineno}")
            items.append((key.strip(), value.strip()))
    return items
