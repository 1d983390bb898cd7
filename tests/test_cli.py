"""CLI surface: subcommands run end to end and rerunning a command with the
same seed produces byte-identical artifacts."""

from pathlib import Path

import numpy as np
import pytest

from semtok.cli import main
from semtok.metrics import EvalRecord, write_results

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
    assert "avg_inference_time_s" in out and "prt_percent" in out


def test_eval_rerun_byte_identical(tmp_path):
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
    e1, e2 = tmp_path / "e1", tmp_path / "e2"
    for e in (e1, e2):
        main(["eval", "--config", cfg, "--ckpt", str(run / "stage2"), "--data", str(data), "--out", str(e)])
    assert tree_bytes(e1) == tree_bytes(e2)


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


def test_unknown_reducer_rejected(tmp_path):
    with pytest.raises(SystemExit):
        main(["eval", "--ckpt", "x", "--data", "y", "--reducer", "bogus"])


def test_malformed_config_items_name_their_origin(tmp_path):
    out = str(tmp_path / "data")
    with pytest.raises(ValueError, match=r"--set: expected KEY=VALUE, got 'epochs'"):
        main(["gen-data", "--out", out, "--set", "epochs"])
    with pytest.raises(ValueError, match=r"config key 'epochs': invalid literal"):
        main(["gen-data", "--out", out, "--set", "epochs=two"])
    cfg = write_cfg(tmp_path)
    with open(cfg, "a") as f:
        f.write("epochs 2\n")
    line = len(TINY) + 1
    with pytest.raises(ValueError, match=rf"config\.txt:{line}: expected KEY=VALUE, got 'epochs 2'"):
        main(["gen-data", "--config", cfg, "--out", out])
