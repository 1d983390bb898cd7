"""Synthetic scenes: determinism, ground-truth consistency, and the
pixel-count oracle for dominant-color labels."""

import re
import tracemalloc

import numpy as np
import pytest

from semtok.data import (
    PALETTE,
    QUERY_CLASSIFY_REGION,
    QUERY_COUNT_REGIONS,
    QUERY_DOMINANT_COLOR,
    SceneSpec,
    generate_dataset,
    generate_scene,
    SceneDataset,
    load_dataset,
)
from semtok.tensor_io import read_tensor, write_tensor


def spec(**kwargs):
    return SceneSpec(**kwargs)


def dominant_class_from_pixels(image, num_classes):
    """Recover the dominant class by nearest-palette classification of raw
    pixels (independent of the generator's bookkeeping)."""
    flat = image.reshape(-1, 3).astype(np.float64)
    d2 = ((flat[:, None, :] - PALETTE[None, :num_classes, :]) ** 2).sum(axis=-1)
    nearest = np.argmin(d2, axis=1)
    return int(np.argmax(np.bincount(nearest, minlength=num_classes)))


def test_spec_validation():
    with pytest.raises(ValueError):
        SceneSpec(height=60, grid=8)
    with pytest.raises(ValueError):
        SceneSpec(min_regions=3, max_regions=2)
    with pytest.raises(ValueError):
        SceneSpec(num_classes=3, max_regions=4)  # regions need distinct classes


def test_count_regions_answers_must_fit_the_class_logits():
    # a scene of max_regions regions answers count-regions with the class id max_regions
    with pytest.raises(ValueError, match=r"count-regions answers \(up to max_regions\) are class ids"):
        SceneSpec(num_classes=4, min_regions=4, max_regions=4)
    assert SceneSpec(num_classes=5, min_regions=4, max_regions=4).max_regions == 4


def test_query_mix_must_be_three_non_negative_weights_summing_to_one():
    for mix in ((0.5, 0.5), (0.3, 0.5, 0.2, 0.0), (0.6, 0.6, -0.2), (0.3, 0.5, 0.3), (float("nan"), 0.5, 0.5)):
        with pytest.raises(ValueError, match=r"query_mix must be 3 non-negative weights summing to 1"):
            SceneSpec(query_mix=mix)
    # within the tolerance Generator.choice applies, the weights are kept as given
    mix = (0.3, 0.5, 0.2 + 1e-9)
    assert SceneSpec(query_mix=mix).query_mix == mix


def test_generate_dataset_refuses_an_empty_dataset_before_making_its_directory(tmp_path):
    for count in (0, -1):
        with pytest.raises(ValueError, match=rf"count must be at least 1, got {count}"):
            generate_dataset(spec(), count, seed=0, out_dir=tmp_path / "d")
    assert not (tmp_path / "d").exists()


def test_single_region_map_is_constant_zero():
    s = spec(min_regions=1, max_regions=1)
    scene = generate_scene(s, np.random.default_rng(0))
    np.testing.assert_array_equal(scene.region_map, np.zeros((64, 64), dtype=np.int32))
    assert scene.num_regions == 1


def test_region_map_covers_image_with_contiguous_rects():
    s = spec(small_region_rate=0.0)
    for seed in range(20):
        scene = generate_scene(s, np.random.default_rng(seed))
        k = scene.num_regions
        assert sorted(np.unique(scene.region_map)) == list(range(k))
        # without insets every region is a solid axis-aligned rectangle
        for rid in range(k):
            rows, cols = np.where(scene.region_map == rid)
            h = rows.max() - rows.min() + 1
            w = cols.max() - cols.min() + 1
            assert h * w == rows.size
            assert rows.min() % s.grid == 0 and cols.min() % s.grid == 0


def test_inset_regions_are_small_and_carved_from_host():
    s = spec(small_region_rate=1.0, min_regions=2, max_regions=4)
    saw_inset = 0
    for seed in range(30):
        scene = generate_scene(s, np.random.default_rng(seed))
        assert sorted(np.unique(scene.region_map)) == list(range(scene.num_regions))
        sizes = np.bincount(scene.region_map.reshape(-1), minlength=scene.num_regions)
        max_inset_px = (s.small_region_max * s.grid) ** 2
        if sizes.min() <= max_inset_px:
            saw_inset += 1
        # region map still covers every pixel exactly once by construction
        assert sizes.sum() == s.height * s.width
    assert saw_inset >= 20  # carve rate 1.0 should nearly always produce one


def test_regions_ordered_by_class_id():
    # region r is the r-th lowest class id present in the scene
    s = spec()
    for seed in range(10):
        scene = generate_scene(s, np.random.default_rng(seed))
        assert scene.labels == sorted(scene.labels)


def test_pixels_match_region_labels():
    s = spec(pixel_noise=0.01)
    scene = generate_scene(s, np.random.default_rng(3))
    for rid, label in enumerate(scene.labels):
        mask = scene.region_map == rid
        mean_color = scene.image[mask].mean(axis=0)
        assert np.abs(mean_color - PALETTE[label]).max() < 0.05


def test_dominant_color_label_matches_pixel_count_oracle():
    s = spec(query_mix=(0.0, 0.0, 1.0))
    for seed in range(25):
        scene = generate_scene(s, np.random.default_rng(seed))
        assert scene.query_kind == QUERY_DOMINANT_COLOR
        assert scene.target == dominant_class_from_pixels(scene.image, s.num_classes)


def test_count_query_targets_region_count():
    s = spec(query_mix=(0.0, 1.0, 0.0))
    for seed in range(10):
        scene = generate_scene(s, np.random.default_rng(seed))
        assert scene.query_kind == QUERY_COUNT_REGIONS
        assert scene.target == scene.num_regions


def test_classify_query_targets_region_label():
    s = spec(query_mix=(1.0, 0.0, 0.0))
    for seed in range(10):
        scene = generate_scene(s, np.random.default_rng(seed))
        assert scene.query_kind == QUERY_CLASSIFY_REGION
        assert scene.target == scene.labels[scene.query_arg]
        assert scene.query_id == scene.query_arg


def test_query_ids_distinct_across_kinds():
    s = spec()
    ids = {s.query_id(QUERY_CLASSIFY_REGION, r) for r in range(s.max_regions)}
    ids.add(s.query_id(QUERY_COUNT_REGIONS))
    ids.add(s.query_id(QUERY_DOMINANT_COLOR))
    assert len(ids) == s.query_vocab == s.max_regions + 2


def test_region_classes_are_distinct():
    s = spec()
    for seed in range(10):
        scene = generate_scene(s, np.random.default_rng(seed))
        assert len(set(scene.labels)) == len(scene.labels)


def test_dataset_regeneration_is_byte_identical(tmp_path):
    s = spec()
    generate_dataset(s, 12, seed=42, out_dir=tmp_path / "a")
    generate_dataset(s, 12, seed=42, out_dir=tmp_path / "b")
    for name in ("images.tgt", "region_maps.tgt", "scenes.csv", "spec.txt"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_dataset_roundtrip(tmp_path):
    s = spec(max_regions=3)
    ds = generate_dataset(s, 8, seed=1, out_dir=tmp_path / "d")
    back = load_dataset(tmp_path / "d")
    assert len(back) == 8
    np.testing.assert_array_equal(back.images, ds.images)
    np.testing.assert_array_equal(back.region_maps, ds.region_maps)
    np.testing.assert_array_equal(back.targets, ds.targets)
    np.testing.assert_array_equal(back.query_ids, ds.query_ids)
    assert back.spec == s


def test_class_presence_bags(tmp_path):
    ds = generate_dataset(spec(), 6, seed=2, out_dir=tmp_path / "d")
    bags = ds.class_presence()
    for i in range(6):
        want = np.zeros(8)
        want[ds.labels[i]] = 1.0
        np.testing.assert_array_equal(bags[i], want)


def test_token_regions_unanimous_for_grid_aligned_scenes(tmp_path):
    ds = generate_dataset(spec(), 5, seed=3, out_dir=tmp_path / "d")
    tok = ds.token_regions(patch_size=8)
    assert tok.shape == (5, 64)
    # each patch lies in exactly one region, so the majority is unanimous
    for i in range(5):
        grid = ds.region_maps[i].reshape(8, 8, 8, 8)
        for pr in range(8):
            for pc in range(8):
                block = grid[pr, :, pc, :]
                assert (block == tok[i, pr * 8 + pc]).all()


def test_token_regions_majority_vote_off_the_grid():
    # a hand-built 4x4 map that no patch boundary follows; with 2x2 patches,
    # two 3-of-4 majorities and two 2-2 ties, each tie going to the lower id
    # whichever comes first in the patch
    region_map = np.array(
        [
            [0, 1, 2, 2],
            [1, 1, 0, 0],
            [3, 3, 2, 1],
            [3, 2, 1, 2],
        ],
        dtype=np.int32,
    )
    ds = SceneDataset(SceneSpec(height=4, width=4, grid=2), np.zeros((1, 4, 4, 3), np.float32), region_map[None], [])
    np.testing.assert_array_equal(ds.token_regions(patch_size=2), [[1, 0, 3, 1]])
    np.testing.assert_array_equal(ds.token_regions(patch_size=4), [[1]])  # 1 and 2 tie at 5, 1 wins


@pytest.mark.parametrize("line", ["distinct_classes=True", "colour=red"])
def test_spec_txt_with_an_unknown_key_is_refused_by_file_and_key(tmp_path, line):
    # distinct_classes=True is what spec.txt carried before the setting was dropped
    generate_dataset(spec(), 2, seed=6, out_dir=tmp_path / "d")
    path = tmp_path / "d" / "spec.txt"
    path.write_text(path.read_text() + line + "\n")
    key = line.split("=")[0]
    with pytest.raises(ValueError, match=re.escape(f"{path}: unknown config key '{key}'")):
        load_dataset(tmp_path / "d")


def test_spec_txt_with_a_bad_value_is_refused_by_file(tmp_path):
    generate_dataset(spec(), 2, seed=6, out_dir=tmp_path / "d")
    path = tmp_path / "d" / "spec.txt"
    path.write_text(path.read_text().replace("max_regions=4", "max_regions=8"))
    with pytest.raises(ValueError, match=re.escape(f"{path}: count-regions answers")):
        load_dataset(tmp_path / "d")


@pytest.mark.parametrize("value", ["nan", "inf", "-0.1"])
def test_spec_txt_with_a_bad_pixel_noise_is_refused_by_file(tmp_path, value):
    generate_dataset(spec(), 2, seed=6, out_dir=tmp_path / "d")
    path = tmp_path / "d" / "spec.txt"
    path.write_text(path.read_text().replace("pixel_noise=0.05", f"pixel_noise={value}"))
    refusal = f"{path}: pixel_noise={float(value)} is refused: it must be finite and at least 0"
    with pytest.raises(ValueError, match=re.escape(refusal)):
        load_dataset(tmp_path / "d")


def test_a_scene_row_whose_num_regions_disagrees_with_its_labels_names_its_line(tmp_path):
    generate_dataset(spec(), 3, seed=4, out_dir=tmp_path / "d")
    scenes = tmp_path / "d" / "scenes.csv"
    lines = scenes.read_text().splitlines()
    row = lines[2].split(",")
    labels = row[2].count("|") + 1
    lines[2] = ",".join([row[0], "9", *row[2:]])
    scenes.write_text("".join(line + "\n" for line in lines))
    refusal = rf"scenes\.csv:3: malformed scene row .*num_regions is 9 but the row has {labels} labels"
    with pytest.raises(ValueError, match=refusal):
        load_dataset(tmp_path / "d")


@pytest.mark.parametrize(
    "column, value",
    [("target", "-1"), ("target", "8"), ("query_id", "-1"), ("query_id", "6"), ("labels", "0|8"), ("labels", "-1|2")],
)
def test_scene_values_the_model_would_index_out_of_range_name_their_line(tmp_path, column, value):
    # numpy would wrap a negative index to the last class logit or query embedding
    generate_dataset(spec(), 3, seed=4, out_dir=tmp_path / "d")
    scenes = tmp_path / "d" / "scenes.csv"
    lines = scenes.read_text().splitlines()
    row = dict(zip(lines[0].split(","), lines[2].split(",")), **{column: value})
    lines[2] = ",".join(row.values())
    scenes.write_text("".join(line + "\n" for line in lines))
    refusal = r"scenes\.csv:3: malformed scene row .*need 0 <= query_id < 6, 0 <= labels, target < 8"
    with pytest.raises(ValueError, match=refusal):
        load_dataset(tmp_path / "d")


def test_malformed_scene_row_names_its_line(tmp_path):
    generate_dataset(spec(), 3, seed=4, out_dir=tmp_path / "d")
    scenes = tmp_path / "d" / "scenes.csv"
    lines = scenes.read_text().splitlines()
    lines[2] = "1,2,3"
    scenes.write_text("".join(line + "\n" for line in lines))
    with pytest.raises(ValueError, match=r"scenes\.csv:3: malformed scene row"):
        load_dataset(tmp_path / "d")


def test_a_dataset_with_no_scene_rows_is_refused_by_its_scenes_csv(tmp_path):
    # generate_dataset refuses count < 1; a loaded directory holds to the same rule
    generate_dataset(spec(), 2, seed=4, out_dir=tmp_path / "d")
    scenes = tmp_path / "d" / "scenes.csv"
    scenes.write_text(scenes.read_text().splitlines(keepends=True)[0])
    with pytest.raises(ValueError, match=re.escape(f"{scenes}: no scene rows; a dataset needs at least 1 scene")):
        load_dataset(tmp_path / "d")


def test_malformed_spec_line_names_its_line(tmp_path):
    generate_dataset(spec(), 2, seed=5, out_dir=tmp_path / "d")
    path = tmp_path / "d" / "spec.txt"
    path.write_text(path.read_text().replace("grid=8", "grid 8"))
    with pytest.raises(ValueError, match=re.escape(f"{path}:3: expected KEY=VALUE")):
        load_dataset(tmp_path / "d")


def test_files_that_disagree_on_the_scene_count_are_refused(tmp_path):
    # a cut scenes.csv would leave the missing scenes' class bags all zero
    d = tmp_path / "d"
    generate_dataset(spec(), 10, seed=6, out_dir=d)
    scenes = d / "scenes.csv"
    full = scenes.read_text()
    scenes.write_text("".join(full.splitlines(keepends=True)[:8]))  # header + 7 rows
    counts = "scenes.csv has 7 rows, images.tgt 10 images, region_maps.tgt 10 maps"
    with pytest.raises(ValueError, match=re.escape(f"{d}: scene counts disagree: {counts}")):
        load_dataset(d)
    scenes.write_text(full)
    write_tensor(d / "region_maps.tgt", read_tensor(d / "region_maps.tgt")[:9])
    with pytest.raises(ValueError, match=r"10 rows, images\.tgt 10 images, region_maps\.tgt 9 maps"):
        load_dataset(d)


@pytest.mark.parametrize(
    "name, shape, implied",
    [
        ("images.tgt", (4, 32, 32, 3), (4, 64, 64, 3)),
        ("region_maps.tgt", (4, 32, 128), (4, 64, 64)),  # as many ids as (4, 64, 64): checked before the cast
    ],
)
def test_a_tensor_of_another_size_than_spec_txt_sets_is_refused_by_file_and_shape(tmp_path, name, shape, implied):
    d = tmp_path / "d"
    generate_dataset(spec(), 4, seed=6, out_dir=d)
    write_tensor(d / name, read_tensor(d / name).ravel()[: np.prod(shape)].reshape(shape))
    refusal = f"{d / name}: shape {shape}, but spec.txt implies {implied}"
    with pytest.raises(ValueError, match=re.escape(refusal)):
        load_dataset(d)


def test_generation_and_loading_hold_about_one_copy_of_the_dataset(tmp_path):
    # peaks as multiples of the dataset's bytes; a list of scenes stacked into
    # arrays, a serialised copy per file and a raw file buffer each add a copy
    tracemalloc.start()
    try:
        ds = generate_dataset(spec(), 64, seed=7, out_dir=tmp_path / "d")
        generate_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        back = load_dataset(tmp_path / "d")
        load_peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    size = ds.images.nbytes + ds.region_maps.nbytes
    assert back.images.nbytes + back.region_maps.nbytes == size
    assert generate_peak <= 1.6 * size, f"generate_dataset peaked at {generate_peak / size:.2f}x the dataset"
    assert load_peak <= 1.3 * size, f"load_dataset peaked at {load_peak / size:.2f}x the dataset"


@pytest.mark.parametrize("value", [2.5, -1.0, float("nan"), float("inf"), 1e10, "num_regions"])
def test_a_region_id_that_is_not_a_region_of_its_scene_is_refused_by_file_and_scene(tmp_path, value):
    # a cast to int32 would turn 2.5 into 2 and nan into an arbitrary id
    d = tmp_path / "d"
    ds = generate_dataset(spec(), 4, seed=8, out_dir=d)
    if value == "num_regions":
        value = float(len(ds.labels[2]))  # one past the scene's last region
    maps = read_tensor(d / "region_maps.tgt")
    maps[2, 5, 7] = value
    write_tensor(d / "region_maps.tgt", maps)
    refusal = f"{d / 'region_maps.tgt'}: scene 2: region id {value} is not a whole number in [0, {len(ds.labels[2])})"
    with pytest.raises(ValueError, match=re.escape(refusal)):
        load_dataset(d)
