"""Evaluation arithmetic: performance retain rate, average per-sample
inference time, and an analytic LLM prefill cost model that stands in for
wall-clock measurements at desk scale."""

from __future__ import annotations

from dataclasses import dataclass
from decimal import ROUND_HALF_EVEN, Decimal
from pathlib import Path


@dataclass
class EvalRecord:
    dataset_name: str
    score: float
    baseline_score: float
    total_time: float  # seconds over the whole dataset
    sample_count: int

    def __post_init__(self):
        if self.sample_count < 1:
            raise ValueError(f"sample_count must be >= 1, got {self.sample_count}")
        if self.total_time < 0:
            raise ValueError(f"total_time must be >= 0, got {self.total_time}")


@dataclass
class CostModelConfig:
    llm_hidden_dim: int = 4096
    llm_layers: int = 32
    text_tokens: int = 64
    visual_tokens: int = 576

    def __post_init__(self):
        for field in ("llm_hidden_dim", "llm_layers", "text_tokens", "visual_tokens"):
            if getattr(self, field) <= 0:
                raise ValueError(f"{field} must be positive")


def prt(records):
    """Performance retain rate: mean over datasets of score/baseline, as a
    percentage."""
    records = list(records)
    if not records:
        raise ValueError("prt needs at least one record")
    for r in records:
        if r.baseline_score <= 0:
            raise ValueError(f"baseline score must be positive, got {r.baseline_score} for {r.dataset_name}")
    return 100.0 * sum(r.score / r.baseline_score for r in records) / len(records)


def round_half_even(value, decimals=1):
    """Table-style rounding (round-half-to-even at the given decimals)."""
    q = Decimal(1).scaleb(-decimals)
    return float(Decimal(repr(value)).quantize(q, rounding=ROUND_HALF_EVEN))


def prt_rounded(records, decimals=1):
    return round_half_even(prt(records), decimals)


def avg_inference_time(records):
    """Unweighted mean over datasets of per-sample inference time."""
    records = list(records)
    if not records:
        raise ValueError("avg_inference_time needs at least one record")
    return sum(r.total_time / r.sample_count for r in records) / len(records)


def prefill_cost(cfg):
    """Prefill FLOPs for one sample: L * (12*d^2*s + 2*d*s^2), s = text +
    visual tokens (linear projections plus quadratic attention). Decode cost
    is deliberately excluded; visual tokens dominate prefill."""
    s = cfg.text_tokens + cfg.visual_tokens
    d = cfg.llm_hidden_dim
    return float(cfg.llm_layers) * (12.0 * d * d * s + 2.0 * d * s * s)


def prefill_reduction(cfg, reference_visual_tokens):
    """Fractional prefill saving versus running with reference_visual_tokens."""
    ref = CostModelConfig(
        llm_hidden_dim=cfg.llm_hidden_dim,
        llm_layers=cfg.llm_layers,
        text_tokens=cfg.text_tokens,
        visual_tokens=reference_visual_tokens,
    )
    return 1.0 - prefill_cost(cfg) / prefill_cost(ref)


# -- results files ---------------------------------------------------------

RESULTS_HEADER = "dataset,score,baseline,total_time_s,samples"


def format_record(record):
    return (
        f"{record.dataset_name},{record.score:.6f},{record.baseline_score:.6f},"
        f"{record.total_time:.6f},{record.sample_count}"
    )


def write_results(path, records):
    lines = [RESULTS_HEADER] + [format_record(r) for r in records]
    Path(path).write_text("".join(line + "\n" for line in lines))
    return Path(path)


def read_results(path):
    records = []
    for lineno, line in enumerate(Path(path).read_text().splitlines(), 1):
        line = line.strip()
        if not line or line == RESULTS_HEADER:
            continue
        try:
            name, score, baseline, total_time, samples = line.split(",")
            records.append(
                EvalRecord(
                    dataset_name=name,
                    score=float(score),
                    baseline_score=float(baseline),
                    total_time=float(total_time),
                    sample_count=int(samples),
                )
            )
        except ValueError as err:
            raise ValueError(f"{path}:{lineno}: malformed results row {line!r} ({err})") from None
    return records
