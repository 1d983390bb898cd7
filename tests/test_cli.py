"""CLI surface: subcommands run end to end and rerunning a command with the
same seed produces byte-identical artifacts."""

from pathlib import Path

import numpy as np
import pytest

from semtok.cli import main
from semtok.metrics import CostModelConfig, EvalRecord, prefill_cost, read_results, write_results
from semtok.train import MODEL_FLOPS_PER_SECOND

TINY = {
    "image_height": "32",
    "image_width": "32",
    "patch_size": "8",
    "embed_dim": "32",
    "num_layers": "2",
    "num_heads": "2",
    "head_blocks": "1",
    "train_count": "40",
    "eval_count": "16",
    "epochs": "1",
    "batch_size": "16",
    "target_tokens": "4",
}


def write_cfg(tmp_path, **extra):
    fields = dict(TINY, **{k: str(v) for k, v in extra.items()})
    path = tmp_path / "config.txt"
    path.write_text("".join(f"{k}={v}\n" for k, v in fields.items()))
    return str(path)


def tree_bytes(root):
    return {
        str(p.relative_to(root)): p.read_bytes() for p in sorted(Path(root).rglob("*")) if p.is_file()
    }


def test_gen_data_rerun_byte_identical(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "data"
    assert main(["gen-data", "--config", cfg, "--seed", "5", "--out", str(out), "--count", "10"]) == 0
    first = tree_bytes(out)
    assert main(["gen-data", "--config", cfg, "--seed", "5", "--out", str(out), "--count", "10"]) == 0
    assert tree_bytes(out) == first
    assert "wrote 10 scenes" in capsys.readouterr().out


def test_train_eval_pipeline_and_metrics(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    data = tmp_path / "data"
    eval_data = tmp_path / "eval"
    main(["gen-data", "--config", cfg, "--seed", "1", "--out", str(data), "--count", "40"])
    main(["gen-data", "--config", cfg, "--seed", "2", "--out", str(eval_data), "--count", "16"])

    run1 = tmp_path / "run1"
    rc = main(
        [
            "train",
            "--stage",
            "1",
            "--config",
            cfg,
            "--seed",
            "7",
            "--out",
            str(run1),
            "--data",
            str(data),
            "--eval-data",
            str(eval_data),
        ]
    )
    assert rc == 0 and (run1 / "stage1" / "manifest.txt").exists()

    run2 = tmp_path / "run2"
    rc = main(
        [
            "train",
            "--stage",
            "2",
            "--config",
            cfg,
            "--seed",
            "7",
            "--out",
            str(run2),
            "--data",
            str(data),
            "--eval-data",
            str(eval_data),
            "--stage1",
            str(run1 / "stage1"),
        ]
    )
    assert rc == 0 and (run2 / "stage2" / "manifest.txt").exists()

    evout = tmp_path / "evout"
    rc = main(
        [
            "eval",
            "--config",
            cfg,
            "--ckpt",
            str(run2 / "stage2"),
            "--data",
            str(eval_data),
            "--out",
            str(evout),
            "--baseline-score",
            "0.5",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "accuracy" in out and "purity" in out
    results = evout / "results.csv"
    assert results.exists()

    rc = main(["metrics", "--results", str(results)])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.splitlines()[1].startswith("modeled_avg_inference_time_s ") and "prt_percent" in out


def train_both_stages(tmp_path):
    """(config file, dataset, run directory) of a tiny stage-1 + stage-2 run at seed 4."""
    cfg = write_cfg(tmp_path)
    data = tmp_path / "d"
    main(["gen-data", "--config", cfg, "--seed", "3", "--out", str(data), "--count", "24"])
    run = tmp_path / "r"
    main(["train", "--stage", "1", "--config", cfg, "--seed", "4", "--out", str(run), "--data", str(data), "--eval-data", str(data)])
    main(
        [
            "train",
            "--stage",
            "2",
            "--config",
            cfg,
            "--seed",
            "4",
            "--out",
            str(run),
            "--data",
            str(data),
            "--eval-data",
            str(data),
            "--stage1",
            str(run / "stage1"),
        ]
    )
    return cfg, data, run


def test_eval_rerun_byte_identical(tmp_path):
    cfg, data, run = train_both_stages(tmp_path)
    e1, e2 = tmp_path / "e1", tmp_path / "e2"
    for e in (e1, e2):
        main(["eval", "--config", cfg, "--ckpt", str(run / "stage2"), "--data", str(data), "--out", str(e)])
    assert tree_bytes(e1) == tree_bytes(e2)


def test_eval_refuses_settings_that_differ_from_the_checkpoint(tmp_path):
    # eval runs the stored config; a differing value is refused by name, not ignored
    cfg, data, run = train_both_stages(tmp_path)
    argv = ["eval", "--config", cfg, "--ckpt", str(run / "stage2"), "--data", str(data), "--out", str(tmp_path / "e")]
    for extra, key, stored, given in (
        (["--set", "mask_mode=full"], "mask_mode", "isolated", "full"),
        (["--seed", "5"], "seed", "4", "5"),
        (["--set", "target_tokens=9"], "target_tokens", "4", "9"),
        (["--set", "learning_rate=.01"], "learning_rate", "0.001", "0.01"),
    ):
        with pytest.raises(ValueError, match=rf"stored {key}={stored} but eval was given {key}={given}"):
            main(argv + extra)
    assert not (tmp_path / "e").exists()
    # equal values in another spelling, and a --reducer budget, still run
    assert main(argv + ["--seed", "4", "--set", "learning_rate=1e-3"]) == 0
    assert main(argv + ["--reducer", "random_drop", "--set", "target_tokens=2"]) == 0


def test_eval_reducer_override_without_set_takes_the_checkpoints_budget(tmp_path):
    # a 4-token checkpoint at M=16: with no --config or --set, --reducer runs
    # at the stored budget, not the RunConfig default (16, the identity cost)
    _, data, run = train_both_stages(tmp_path)
    argv = ["eval", "--ckpt", str(run / "stage2"), "--data", str(data), "--reducer", "avg_pool"]
    assert main(argv + ["--out", str(tmp_path / "e")]) == 0
    expected = prefill_cost(CostModelConfig(text_tokens=64, visual_tokens=4)) * 24 / MODEL_FLOPS_PER_SECOND
    (record,) = read_results(tmp_path / "e" / "results.csv")
    assert record.total_time == pytest.approx(expected, abs=1e-6)  # written with 6 decimals
    assert main(argv + ["--out", str(tmp_path / "e4"), "--set", "target_tokens=4"]) == 0
    assert tree_bytes(tmp_path / "e") == tree_bytes(tmp_path / "e4")


def test_a_dataset_that_disagrees_on_a_key_the_model_reads_is_refused(tmp_path):
    # the model's shapes come from the run; noise, query mix and grid stay free
    cfg, data, run = train_both_stages(tmp_path)
    five, six, free = tmp_path / "d5", tmp_path / "d6", tmp_path / "dfree"
    main(["gen-data", "--config", cfg, "--out", str(five), "--count", "4", "--set", "num_classes=5"])
    main(["gen-data", "--config", cfg, "--out", str(six), "--count", "4", "--set", "max_regions=6"])
    free_keys = ["--set", "pixel_noise=0.2", "--set", "query_mix=0.2,0.2,0.6", "--set", "patch_size=16"]  # grid=16
    main(["gen-data", "--config", cfg, "--out", str(free), "--count", "4"] + free_keys)
    train = ["train", "--config", cfg, "--out", str(tmp_path / "r2")]
    with pytest.raises(ValueError, match=rf"{five}: dataset has num_classes=5 but this run has num_classes=8"):
        main(train + ["--stage", "1", "--data", str(five), "--eval-data", str(data)])
    with pytest.raises(ValueError, match=rf"{six}: dataset has max_regions=6 but this run has max_regions=4"):
        main(train + ["--stage", "2", "--data", str(data), "--eval-data", str(six), "--stage1", str(run / "stage1")])
    ckpt = run / "stage2"
    evaluate = ["eval", "--config", cfg, "--ckpt", str(ckpt), "--out", str(tmp_path / "e")]
    with pytest.raises(ValueError, match=rf"dataset has max_regions=6 but checkpoint {ckpt} has max_regions=4"):
        main(evaluate + ["--data", str(six)])
    assert main(evaluate + ["--data", str(free)]) == 0


def test_metrics_command_names_the_line_of_a_malformed_row(tmp_path):
    path = tmp_path / "r.csv"
    write_results(path, [EvalRecord("gqa", 57.3, 62.7, 10.0, 100), EvalRecord("pope", 79.5, 86.2, 20.0, 100)])
    lines = path.read_text().splitlines()
    lines[2] = "gqa,57.3,62.7"
    path.write_text("".join(line + "\n" for line in lines))
    with pytest.raises(ValueError, match=rf"{path}:3: malformed results row 'gqa,57.3,62.7'"):
        main(["metrics", "--results", str(path)])


def test_metrics_command_reports_prt(tmp_path, capsys):
    path = tmp_path / "r.csv"
    write_results(
        path,
        [
            EvalRecord("gqa", 57.3, 62.7, 10.0, 100),
            EvalRecord("pope", 79.5, 86.2, 20.0, 100),
        ],
    )
    assert main(["metrics", "--results", str(path)]) == 0
    out = capsys.readouterr().out
    assert "prt_percent 91.8" in out  # mean of 91.39 and 92.23 rounded


def test_set_overrides(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "data"
    main(["gen-data", "--config", cfg, "--seed", "1", "--out", str(out), "--set", "train_count=7"])
    assert "wrote 7 scenes" in capsys.readouterr().out


def test_bad_scene_inputs_fail_by_name_before_writing_anything(tmp_path):
    out = tmp_path / "data"
    with pytest.raises(ValueError, match=r"query_mix must be 3 non-negative weights summing to 1, got \(0\.5, 0\.5\)"):
        main(["gen-data", "--out", str(out), "--set", "query_mix=0.5,0.5"])
    with pytest.raises(ValueError, match=r"count must be at least 1, got 0"):
        main(["gen-data", "--out", str(out), "--count", "0"])
    for value in ("nan", "-0.1"):
        with pytest.raises(ValueError, match=rf"pixel_noise={value} is refused: it must be finite and at least 0"):
            main(["gen-data", "--out", str(out), "--count", "2", "--set", f"pixel_noise={value}"])
    with pytest.raises(ValueError, match=r"seed=-1 is refused: it must be at least 0"):
        main(["gen-data", "--out", str(out), "--count", "2", "--seed", "-1"])
    assert not out.exists()


def test_a_bad_set_value_is_refused_before_training_writes_anything(tmp_path):
    out = tmp_path / "run"
    with pytest.raises(ValueError, match=r"learning_rate=nan is refused: it must be finite and above 0"):
        main(["train", "--stage", "1", "--out", str(out), "--set", "learning_rate=nan"])
    assert not out.exists()


def test_unknown_reducer_rejected(tmp_path):
    with pytest.raises(SystemExit):
        main(["eval", "--ckpt", "x", "--data", "y", "--reducer", "bogus"])


def test_malformed_config_items_name_their_origin(tmp_path):
    out = str(tmp_path / "data")
    with pytest.raises(ValueError, match=r"--set: expected KEY=VALUE, got 'epochs'"):
        main(["gen-data", "--out", out, "--set", "epochs"])
    with pytest.raises(ValueError, match=r"config key 'epochs': invalid literal"):
        main(["gen-data", "--out", out, "--set", "epochs=two"])
    # removed settings are refused by name, not silently ignored
    for key, value in (("channels", 1), ("ablate_seeds", 3)):
        with pytest.raises(KeyError, match=rf"unknown config key '{key}'"):
            main(["gen-data", "--out", out, "--set", f"{key}={value}"])
    cfg = write_cfg(tmp_path)
    with open(cfg, "a") as f:
        f.write("epochs 2\n")
    line = len(TINY) + 1
    with pytest.raises(ValueError, match=rf"config\.txt:{line}: expected KEY=VALUE, got 'epochs 2'"):
        main(["gen-data", "--config", cfg, "--out", out])


def test_eval_reducer_override_reads_budget_and_seed_from_config(tmp_path, monkeypatch):
    # target_tokens and reducer_seed have one source, the config: --set
    # reaches evaluate, and the old second-source flags are gone
    import semtok.train as TR

    seen = []

    def fake_evaluate(ckpt, dataset, reducer_spec=None, **kwargs):
        seen.append(reducer_spec)
        return EvalRecord("synthetic", 0.5, 0.5, 1.0, len(dataset)), {}

    data = tmp_path / "d"
    main(["gen-data", "--config", write_cfg(tmp_path), "--out", str(data), "--count", "2"])
    monkeypatch.setattr(TR, "evaluate", fake_evaluate)
    argv = ["eval", "--ckpt", "x", "--data", str(data), "--out", str(tmp_path / "e"), "--reducer", "random_drop"]
    assert main(argv + ["--set", "reducer_seed=5", "--set", "target_tokens=9"]) == 0
    assert (seen[0].kind, seen[0].target_tokens, seen[0].seed) == ("random_drop", 9, 5)
    for flag in ("--tokens", "--reducer-seed"):
        with pytest.raises(SystemExit):
            main(argv + [flag, "3"])
