"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
report lines as they complete.
"""

import math
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import bagkit as bk
from bagkit.experiment import MemberSpec, equivalence_group, variance_analysis
from bagkit.metrics import accuracy, macro_f1, mean_std
from bagkit.predictor import _design_matrix, _init_params, _loss_and_grads, _one, _Workspace
from bagkit.prune import prune_magnitude, PruneSpec
from bagkit.toy import noisy_binary_task, synthetic_task, write_toy_workspace

from test_ensemble import brute_force_vote, random_prob_matrix
from test_metrics import two_pass_mean_std
from test_predictor import grad_dataset


def report(num, name, passed, detail=""):
    line = f"[{'PASS' if passed else 'FAIL'}] criterion {num}: {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert passed, line


def test_criterion_1_bootstrap_statistics():
    start = time.time()
    n = 1000
    fractions = [len(set(bk.bootstrap(n, seed).indices)) / n for seed in range(1000)]
    mean_fraction = float(np.mean(fractions))

    oracle = random.Random(20260811)
    oracle_mean = float(
        np.mean([len({oracle.randrange(n) for _ in range(n)}) / n for _ in range(300)])
    )
    analytic = 1 - 1 / math.e

    elapsed = time.time() - start
    passed = (
        abs(mean_fraction - analytic) < 0.01
        and abs(mean_fraction - oracle_mean) < 0.005
        and elapsed < 10
    )
    report(
        1,
        "bootstrap distinct-index fraction",
        passed,
        f"mean={mean_fraction:.4f} analytic={analytic:.4f} oracle={oracle_mean:.4f} {elapsed:.1f}s",
    )


def test_criterion_2_vote_oracle_equivalence():
    start = time.time()
    rng = np.random.default_rng(321)
    all_ok = True
    for _ in range(1000):
        probs = random_prob_matrix(rng, int(rng.integers(1, 9)), int(rng.integers(2, 6)))
        winner, combined = bk.soft_vote(probs)
        oracle_winner, oracle_combined = brute_force_vote(probs.tolist())
        all_ok &= winner == oracle_winner
        all_ok &= bool(np.all(np.abs(combined - np.asarray(oracle_combined)) <= 1e-12))
    elapsed = time.time() - start
    report(2, "soft vote matches brute force", all_ok and elapsed < 5, f"{elapsed:.1f}s")


def _random_raw_model(rng, dims, num_classes, hidden):
    if hidden == 0:
        params = {
            "out_weight": rng.normal(size=dims * num_classes),
            "out_bias": rng.normal(size=num_classes),
        }
    else:
        params = {
            "hidden_weight": rng.normal(size=dims * hidden),
            "hidden_bias": rng.normal(size=hidden),
            "out_weight": rng.normal(size=hidden * num_classes),
            "out_bias": rng.normal(size=num_classes),
        }
    return bk.Model(
        spec=bk.FeatureSpec(dims=dims),
        hyper=bk.Hyperparams(hidden_size=hidden),
        num_classes=num_classes,
        params=params,
    )


def test_criterion_3_pruning_exactness():
    start = time.time()
    rng = np.random.default_rng(77)
    count_ok = True
    for _ in range(100):
        dims = int(2 ** rng.integers(2, 8))
        hidden = int(rng.choice([0, 4, 9]))
        num_classes = int(rng.integers(2, 5))
        fraction = float(rng.uniform(0, 1))
        model = _random_raw_model(rng, dims, num_classes, hidden)
        total = sum(a.size for a in model.params.values())
        pruned = prune_magnitude(model, PruneSpec(fraction))
        zeros = sum(int(np.sum(a == 0)) for a in pruned.params.values())
        count_ok &= zeros == math.floor(fraction * total)
        # Zeroed set must be the smallest magnitudes under the tie rule.
        names = sorted(model.params)
        before = np.concatenate([model.params[n] for n in names])
        after = np.concatenate([pruned.params[n] for n in names])
        expected_victims = np.argsort(np.abs(before), kind="stable")[
            : math.floor(fraction * total)
        ]
        count_ok &= bool(np.all(after[expected_victims] == 0))

    model = _random_raw_model(rng, 64, 3, 0)
    identity = prune_magnitude(model, PruneSpec(0.0))
    identity_ok = all(
        np.array_equal(identity.params[n], model.params[n]) for n in model.params
    )
    wiped = prune_magnitude(model, PruneSpec(1.0))
    probs = bk.predict_proba(wiped, bk.Example(id="x", text_a="a few words", label=0))
    uniform_ok = bool(np.allclose(probs, 1 / 3))

    elapsed = time.time() - start
    report(
        3,
        "pruning exact count, identity, and degenerate cases",
        count_ok and identity_ok and uniform_ok and elapsed < 30,
        f"{elapsed:.1f}s",
    )


def test_criterion_4_pruning_degradation_direction():
    start = time.time()
    task = synthetic_task(
        "degrade", seed=4, n_train=240, n_val=80, n_test=200, noise=0.1,
        vocab_size=40, filler_size=80,
    )
    spec = bk.FeatureSpec(dims=128)
    light, heavy = [], []
    for seed in range(10):
        model = bk.fit(task.train, spec, bk.Hyperparams(seed=seed))
        for fraction, bucket in ((0.05, light), (0.9, heavy)):
            pruned = prune_magnitude(model, PruneSpec(fraction))
            preds = np.argmax(bk.predict_proba_dataset(pruned, task.test), axis=1)
            bucket.append(accuracy(preds, task.test.labels()))
    mean_light, mean_heavy = float(np.mean(light)), float(np.mean(heavy))
    elapsed = time.time() - start
    report(
        4,
        "mean accuracy at prune 0.9 <= at prune 0.05 over 10 seeds",
        mean_heavy <= mean_light and elapsed < 120,
        f"0.05->{mean_light:.4f} 0.9->{mean_heavy:.4f} {elapsed:.1f}s",
    )


def test_criterion_5_variance_reduction_direction():
    start = time.time()
    task = noisy_binary_task(seed=0)
    # Briefly trained members keep init/batch-order noise in the fit, the
    # desk-scale stand-in for fine-tuning stochasticity.
    member = MemberSpec(
        model_kind="logreg",
        feature_spec=bk.FeatureSpec(dims=128),
        hyper_override=bk.Hyperparams(learning_rate=0.05, epochs=1, l2=0.0),
        bagged=True,
    )
    wins = 0
    for base_seed in range(10):
        rep = variance_analysis(task, member, n=10, m=5, base_seed=base_seed)
        wins += rep.ensemble_std <= rep.single_std
    elapsed = time.time() - start
    report(
        5,
        "ensemble std <= single std in >= 8 of 10 base seeds",
        wins >= 8 and elapsed < 300,
        f"wins={wins}/10 {elapsed:.1f}s",
    )


def test_criterion_6_metric_correctness():
    acc_ok = accuracy([0, 1, 1, 0], [0, 1, 0, 0]) == 0.75 and accuracy([1, 1], [1, 1]) == 1.0

    macro, per_class = macro_f1([0, 1, 1, 1], [0, 0, 1, 1], num_classes=2)
    f1_ok = (
        abs(per_class[0] - 2 / 3) <= 1e-12
        and abs(per_class[1] - 4 / 5) <= 1e-12
        and abs(macro - 11 / 15) <= 1e-12
    )
    macro_zero, per_zero = macro_f1([0, 1, 0, 1], [0, 1, 0, 1], num_classes=3)
    f1_ok &= per_zero[2] == 0.0 and abs(macro_zero - 2 / 3) <= 1e-12

    rng = np.random.default_rng(6)
    std_ok = True
    for _ in range(1000):
        values = rng.uniform(-3, 3, size=int(rng.integers(2, 30))).tolist()
        got = mean_std(values)
        ref = two_pass_mean_std(values)
        std_ok &= abs(got[0] - ref[0]) <= 1e-12 and abs(got[1] - ref[1]) <= 1e-12

    report(6, "accuracy, macro-F1, and mean/std exactness", acc_ok and f1_ok and std_ok)


def test_criterion_7_gradient_check():
    ds = grad_dataset()
    spec = bk.FeatureSpec(dims=4)
    hyper = bk.Hyperparams(l2=0.01)
    x = _design_matrix(ds, spec)
    y = ds.labels()
    params = _init_params(spec, hyper, 2, np.random.default_rng(5))
    total = sum(p.size for p in params.values())

    l2 = np.array([0.01])
    analytic = {name: np.empty_like(arr) for name, arr in _one(params).items()}
    _loss_and_grads(_one(params), x, y, 2, 0, l2, grads=analytic, blocks=None, work=_Workspace())
    h = 1e-6
    numeric = {}
    for name in params:
        g = np.zeros_like(params[name])
        for k in range(params[name].size):
            probe = {n: a.copy() for n, a in params.items()}
            probe[name][k] += h
            lp = _loss_and_grads(_one(probe), x, y, 2, 0, l2, grads=None, blocks=None, work=None)
            probe[name][k] -= 2 * h
            lm = _loss_and_grads(_one(probe), x, y, 2, 0, l2, grads=None, blocks=None, work=None)
            g[k] = (lp[0] - lm[0]) / (2 * h)
        numeric[name] = g
    ga = np.concatenate([analytic[n][0] for n in sorted(params)])
    gf = np.concatenate([numeric[n] for n in sorted(params)])
    rel = float(np.linalg.norm(ga - gf) / max(np.linalg.norm(ga), np.linalg.norm(gf)))
    report(
        7,
        "analytic gradients match central differences on a 10-parameter model",
        total == 10 and rel < 1e-4,
        f"params={total} rel_err={rel:.2e}",
    )


def test_criterion_8_end_to_end_determinism(tmp_path):
    start = time.time()
    workspace = write_toy_workspace(tmp_path / "ws")
    outputs = []
    for run in (1, 2):
        out_dir = tmp_path / f"out{run}"
        proc = subprocess.run(
            [
                sys.executable, "-m", "bagkit", "run",
                "--config", str(workspace / "configs.json"),
                "--data", str(workspace / "data"),
                "--out", str(out_dir),
            ],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(Path(bk.__file__).parents[1])},
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append((out_dir / "results.csv").read_bytes())
    elapsed = time.time() - start
    report(
        8,
        "cmd_run twice on the bundled 5-config batch is byte-identical",
        outputs[0] == outputs[1] and len(outputs[0]) > 0 and elapsed < 300,
        f"{len(outputs[0])} bytes {elapsed:.1f}s",
    )


def test_criterion_9_equivalence_grouping():
    baselines = [304, 355, 774, 1558]
    ok = (
        equivalence_group(390, baselines) == 355
        and equivalence_group(774, baselines) == 774
        and equivalence_group(500, baselines) is None
    )
    report(9, "parameter-equivalence grouping probes", ok)
