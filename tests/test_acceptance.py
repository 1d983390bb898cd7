"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Criteria 1-6 are direct property/oracle checks and run in seconds. The
training-based criteria 7-10 (grouping against the baselines at an equal
token budget, isolated against full attention, grouping purity, per-query-kind
accuracy) are not written yet.
"""

import time

import numpy as np

from conftest import record_criterion, semantic_tokens
from semtok import tensor as T
from semtok.encoder import MASK_FULL, MASK_ISOLATED, Encoder, EncoderConfig
from semtok.gradcheck import check_gradients
from semtok.grouping import GroupingParams, hard_assign, merge, sample_gumbel, similarity
from semtok.metrics import CostModelConfig, EvalRecord, prefill_reduction, prt_rounded
from semtok.tensor import Tensor


# -- criterion 1: isolation invariance ----------------------------------------


def test_criterion_1_isolation_invariance():
    start = time.time()
    rng = np.random.default_rng(20260809)
    ok_bitwise = 0
    ok_full_differs = 0
    trials = 100
    for trial in range(trials):
        dtype = np.float32 if trial % 2 == 0 else np.float64
        patch = int(rng.choice([4, 8]))
        side = patch * int(rng.integers(2, 5))
        cfg = EncoderConfig(
            image_height=side,
            image_width=side,
            patch_size=patch,
            embed_dim=int(rng.choice([16, 32])),
            num_layers=int(rng.integers(1, 4)),
            num_heads=int(rng.choice([2, 4])),
        )
        n = int(rng.integers(1, 7))  # semantic tokens
        enc = Encoder(cfg, np.random.default_rng(rng.integers(1 << 31)), dtype=dtype)
        sem = semantic_tokens(n, cfg.embed_dim, np.random.default_rng(rng.integers(1 << 31)), dtype=dtype)
        image = rng.random((side, side, 3)).astype(dtype)
        with T.no_grad():
            tokens = enc.patch_embed(image)
            img_iso, _ = enc.encode(tokens, sem, MASK_ISOLATED)
            img_plain, _ = enc.encode(enc.patch_embed(image))
            img_full, _ = enc.encode(enc.patch_embed(image), sem, MASK_FULL)
        ok_bitwise += int(np.array_equal(img_iso.data, img_plain.data))
        ok_full_differs += int(np.abs(img_full.data - img_plain.data).max() > 0)
    elapsed = time.time() - start
    record_criterion(
        1,
        "isolation invariance",
        ok_bitwise == trials and ok_full_differs == trials and elapsed < 30,
        f"bitwise {ok_bitwise}/{trials}, full-differs {ok_full_differs}/{trials}, {elapsed:.1f}s",
    )


# -- criterion 2: straight-through correctness ------------------------------------


def test_criterion_2_straight_through():
    start = time.time()
    rng = np.random.default_rng(77)
    trials = 20
    bitwise = 0
    worst = 0.0
    for _ in range(trials):
        n = int(rng.integers(2, 9))
        m = int(rng.integers(2, 33))
        c = int(rng.integers(2, 17))
        sem = Tensor(rng.standard_normal((n, c)), requires_grad=True)
        img = Tensor(rng.standard_normal((m, c)), requires_grad=True)
        params = GroupingParams.create(c, rng, dtype=np.float64)
        params.w_query.requires_grad = True
        params.w_key.requires_grad = True
        coeff = Tensor(rng.standard_normal((n, m)))
        checked = {"w_query": params.w_query, "w_key": params.w_key, "sem": sem, "img": img}

        def soft_loss():
            return T.mul(similarity(sem, img, params), coeff).sum()

        def hard_loss():
            return T.mul(hard_assign(similarity(sem, img, params)), coeff).sum()

        def autodiff(loss_fn):
            for p in checked.values():
                p.grad = None
            loss_fn().backward()
            return {k: (np.zeros_like(p.data) if p.grad is None else p.grad.copy()) for k, p in checked.items()}

        # the straight-through backward of the hard path is the soft gradient
        hard, soft = autodiff(hard_loss), autodiff(soft_loss)
        bitwise += int(all(np.array_equal(hard[k], soft[k]) for k in checked))
        # and the soft gradient itself matches central differences
        worst = max(worst, check_gradients(soft_loss, checked).max_rel_err)
    elapsed = time.time() - start
    record_criterion(
        2,
        "straight-through gradients",
        bitwise == trials and worst < 1e-4 and elapsed < 60,
        f"hard == soft bitwise {bitwise}/{trials}, soft max rel err {worst:.2e}, {elapsed:.1f}s",
    )


# -- criterion 3: assignment stochasticity ------------------------------------------


def test_criterion_3_assignment_stochasticity():
    rng = np.random.default_rng(99)
    col_ok = hard_ok = cold_ok = 0
    columns_tested = columns_tied = 0
    trials = 1000
    tau = 1e-3
    for trial in range(trials):
        n = int(rng.integers(1, 9))
        m = int(rng.integers(1, 25))
        c = int(rng.integers(2, 13))
        sem = Tensor(rng.standard_normal((n, c)))
        img = Tensor(rng.standard_normal((m, c)))
        params = GroupingParams.create(c, rng, dtype=np.float64)
        soft = similarity(sem, img, params, sample_gumbel((n, 1), seed=trial))
        col_ok += int(np.abs(soft.data.sum(axis=-2) - 1.0).max() < 1e-6)
        hard = hard_assign(soft).data
        hard_ok += int(((hard == 0) | (hard == 1)).all() and (hard.sum(axis=-2) == 1).all())

        cold = GroupingParams(params.w_query, params.w_key, params.w_value, params.w_out, temperature=tau)
        soft_cold = similarity(sem, img, cold, None).data
        # the cold limit can only force a column one-hot when its top-two
        # logit gap clears the temperature margin; columns tied closer than
        # that are counted but cannot converge at this tau
        logits = (sem.data @ params.w_query.data) @ (img.data @ params.w_key.data).T
        top_gap = np.full(m, np.inf)
        if n > 1:
            part = np.sort(logits, axis=0)
            top_gap = part[-1] - part[-2]
        margin = tau * np.log(max(n - 1, 1) / 1e-3)
        decisive = top_gap >= margin
        columns_tested += int(decisive.sum())
        columns_tied += int(m - decisive.sum())
        cold_ok += int((soft_cold.max(axis=-2)[decisive] > 1.0 - 1e-3).all() if decisive.any() else True)
    record_criterion(
        3,
        "assignment stochasticity",
        col_ok == trials and hard_ok == trials and cold_ok == trials and columns_tested > 0.95 * (columns_tested + columns_tied),
        f"columns {col_ok}/{trials}, one-hot {hard_ok}/{trials}, cold-limit {cold_ok}/{trials} "
        f"({columns_tied} tied columns excluded of {columns_tested + columns_tied})",
    )


# -- criterion 4: merge oracle ---------------------------------------------------------


def test_criterion_4_merge_oracle():
    rng = np.random.default_rng(4242)
    worst = 0.0
    empty_exact = True
    for _ in range(50):
        n = int(rng.integers(1, 9))
        m = int(rng.integers(1, 25))
        c = int(rng.integers(2, 13))
        sem = Tensor(rng.standard_normal((n, c)))
        img = Tensor(rng.standard_normal((m, c)))
        params = GroupingParams.create(c, rng, dtype=np.float64)
        hard = hard_assign(similarity(sem, img, params, sample_gumbel((n, 1), seed=int(rng.integers(1 << 30)))))
        got = merge(hard, sem, img, params).data
        assert np.isfinite(got).all()
        values = img.data @ params.w_value.data
        for i in range(n):
            acc = np.zeros(c)
            mass = 0.0
            for j in range(m):
                acc += hard.data[i, j] * values[j]
                mass += hard.data[i, j]
            want = sem.data[i] + (acc / (mass + params.eps)) @ params.w_out.data
            worst = max(worst, float(np.abs(got[i] - want).max()))
            if mass == 0.0 and not np.array_equal(got[i], sem.data[i]):
                empty_exact = False
    # forced empty group: more groups than tokens guarantees at least one
    sem = Tensor(np.random.default_rng(1).standard_normal((5, 4)))
    img = Tensor(np.random.default_rng(2).standard_normal((2, 4)))
    params = GroupingParams.create(4, np.random.default_rng(3), dtype=np.float64)
    hard = hard_assign(similarity(sem, img, params))
    out = merge(hard, sem, img, params).data
    empty_rows = np.where(hard.data.sum(axis=-1) == 0)[0]
    assert empty_rows.size >= 3
    for i in empty_rows:
        empty_exact = empty_exact and np.array_equal(out[i], sem.data[i])
    record_criterion(
        4,
        "merge oracle",
        worst < 1e-10 and empty_exact,
        f"max abs err {worst:.2e}, empty groups exact {empty_exact}",
    )


# -- criterion 5: metrics reproduce the published retain-rate table ---------------------


def test_criterion_5_metrics_table():
    start = time.time()
    reference = {"gqa": 62.7, "textvqa": 57.3, "pope": 86.2, "mme": 1452.0}
    rand_144 = {"gqa": 57.3}
    grouped_128 = {"gqa": 61.4, "textvqa": 54.5, "pope": 85.5, "mme": 1421.2}

    def record_for(name, table):
        return EvalRecord(name, table[name], reference[name], 1.0, 1)

    rand_gqa = prt_rounded([record_for("gqa", rand_144)])
    grouped_gqa = prt_rounded([record_for("gqa", grouped_128)])
    grouped_avg = prt_rounded([record_for(name, grouped_128) for name in reference])
    elapsed = time.time() - start
    record_criterion(
        5,
        "retain-rate table reproduction",
        rand_gqa == 91.4 and grouped_gqa == 97.9 and grouped_avg == 97.5 and elapsed < 1.0,
        f"rand gqa {rand_gqa}, grouped gqa {grouped_gqa}, grouped avg {grouped_avg}, {elapsed:.3f}s",
    )


# -- criterion 6: cost-model reduction ----------------------------------------------------


def test_criterion_6_cost_model_reduction():
    cfg = CostModelConfig(llm_hidden_dim=4096, llm_layers=32, text_tokens=64, visual_tokens=128)
    reduction = prefill_reduction(cfg, reference_visual_tokens=576)
    record_criterion(6, "modeled prefill reduction", reduction > 0.27, f"576->128 saves {reduction:.1%}")
