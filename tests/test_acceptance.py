"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest -s tests/test_acceptance.py``).

Dataset-gated criteria skip unless MIAS_DATA_DIR points at the scans plus
readings file.
"""

import itertools
import os
import time
from dataclasses import replace

import numpy as np

from blocksrc import (
    BENIGN,
    MALIGNANT,
    Dictionary,
    ExperimentConfig,
    bpdn_batch,
    lcksvd_train_stack,
    roc_auc,
    run_experiment,
)
from blocksrc.dictlearn import TrainParams
from blocksrc.ensemble import bbll, bbmap, lls_score
from blocksrc.harness import load_dataset
from blocksrc.mias import filter_lesions, parse_metadata
from blocksrc.solvers import L1_LOG_FLOOR

from .oracles import (
    exhaustive_sparse_fit,
    low_coherence_matrix,
    mutual_coherence,
    orthonormal_bpdn_oracle,
    pair_counting_auc,
)
from .test_dictlearn import drawn_columns, ksvd_one, lcksvd_init
from .test_mias import MIAS_DIR, needs_mias
from .test_solvers import omp


def report(name: str, ok: bool, detail: str = ""):
    tag = "PASS" if ok else "FAIL"
    print(f"{tag}  {name}" + (f"  ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


class TestSolverOracleSuite:
    def test_criterion(self):
        start = time.perf_counter()
        rng = np.random.default_rng(20)

        support_matches = 0
        for _ in range(100):
            A = low_coherence_matrix(rng, 4, 8)
            assert mutual_coherence(A) < 0.5
            D = Dictionary.from_matrix(A, [BENIGN] * 4 + [MALIGNANT] * 4)
            i, j = rng.choice(8, size=2, replace=False)
            y = 1.0 * D.atoms[:, i] + 0.5 * D.atoms[:, j]
            X, _, _ = omp(D, y[:, None], 2)
            oracle_support, _, _ = exhaustive_sparse_fit(D.atoms, y, 2)
            support_matches += int(frozenset(np.flatnonzero(X[:, 0]).tolist()) == oracle_support)

        max_coeff_err = 0.0
        for _ in range(30):
            d = int(rng.integers(2, 8))
            Q, _ = np.linalg.qr(rng.standard_normal((d, d)))
            D = Dictionary.from_matrix(Q, rng.integers(0, 2, d))
            y = rng.standard_normal(d)
            eps = float(rng.uniform(0.2, 0.9)) * float(np.linalg.norm(y))
            X, _, feasible, _ = bpdn_batch(D, y[:, None], eps)
            assert feasible.all()
            oracle = orthonormal_bpdn_oracle(D.atoms, y, eps)
            max_coeff_err = max(max_coeff_err, float(np.abs(X[:, 0] - oracle).max()))

        elapsed = time.perf_counter() - start
        report(
            "solver-oracle-suite",
            support_matches == 100 and max_coeff_err <= 1e-4 and elapsed < 10.0,
            f"support {support_matches}/100, bpdn err {max_coeff_err:.2e}, {elapsed:.1f}s",
        )


class TestDictionaryLearningSuite:
    def test_criterion(self):
        start = time.perf_counter()
        rng = np.random.default_rng(20)

        # stacked-objective algebraic identity
        identity_ok = True
        for _ in range(20):
            d, k, s = 6, 5, 9
            alpha, beta = rng.uniform(0.05, 3.0, size=2)
            Y, Q, H = rng.standard_normal((d, s)), rng.standard_normal((k, s)), rng.standard_normal((2, s))
            D, A, W = rng.standard_normal((d, k)), rng.standard_normal((k, k)), rng.standard_normal((2, k))
            X = rng.standard_normal((k, s))
            lhs = float(np.sum((np.vstack([Y, np.sqrt(alpha) * Q, np.sqrt(beta) * H])
                                - np.vstack([D, np.sqrt(alpha) * A, np.sqrt(beta) * W]) @ X) ** 2))
            rhs = (float(np.sum((Y - D @ X) ** 2))
                   + alpha * float(np.sum((Q - A @ X) ** 2))
                   + beta * float(np.sum((H - W @ X) ** 2)))
            identity_ok &= abs(lhs - rhs) <= 1e-9 * max(1.0, abs(rhs))

        # dictionary-update monotonicity, 30 iterations x 20 seeds
        monotone_ok = True
        for seed in range(20):
            r2 = np.random.default_rng(seed)
            Y = r2.standard_normal((10, 16))
            params = TrainParams(K=6, T=3, iterations=30, seed=seed, min_rel_improvement=0.0)
            stages = []
            ksvd_one(Y, params, drawn_columns(Y, 6, seed),
                     probe=lambda it, before, after: stages.append((before[0], after[0])))
            assert len(stages) == 30
            for before, after in stages:
                monotone_ok &= after <= before * (1 + 1e-9) + 1e-12

        # alpha = beta = 0 reduces label-consistent training to plain K-SVD
        reduction_ok = True
        for seed in (0, 1, 2):
            r3 = np.random.default_rng(100 + seed)
            Y = r3.standard_normal((8, 12))
            labels = np.array([BENIGN] * 6 + [MALIGNANT] * 6)
            params = TrainParams(K=6, T=2, alpha=0.0, beta=0.0, iterations=6, seed=seed,
                                 min_rel_improvement=0.0)
            model = lcksvd_train_stack(Y[None], labels, params, "lcksvd2")
            (D0,), _, _, _, _ = lcksvd_init(Y[None], labels, params)
            _, _, trace = ksvd_one(Y, params, D0)
            reduction_ok &= np.array_equal(model.objective_traces[0], trace)

        elapsed = time.perf_counter() - start
        report(
            "dictionary-learning-suite",
            identity_ok and monotone_ok and reduction_ok and elapsed < 60.0,
            f"identity {identity_ok}, monotone {monotone_ok}, reduction {reduction_ok}, {elapsed:.1f}s",
        )


class TestEnsembleSuite:
    def test_criterion(self):
        start = time.perf_counter()
        rng = np.random.default_rng(20)

        # BBMAP posterior and permutation invariants
        bbmap_ok = True
        for _ in range(50):
            n = int(rng.integers(1, 30))
            hard = np.array([[int(rng.integers(0, 2)) for i in range(n)]])
            posterior, label, score = bbmap(hard)
            bbmap_ok &= abs(posterior.sum() - 1.0) < 1e-12
            posterior2, label2, score2 = bbmap(hard[:, rng.permutation(n)])
            bbmap_ok &= (
                np.array_equal(posterior, posterior2)
                and np.array_equal(label, label2)
                and np.array_equal(score, score2)
            )

        # ELLS mean identity and antisymmetry
        ells_ok = True
        for _ in range(50):
            n = int(rng.integers(1, 24))
            l1s = rng.uniform(0.0, 2.0, size=(n, 2))
            default = lls_score(l1s.T)[None]
            inverted = lls_score(l1s.T, invert=True)[None]
            (ells,), _ = bbll(default)
            (ells_inv,), _ = bbll(inverted)
            ells_ok &= abs(ells - np.mean(default)) <= 1e-12
            ells_ok &= abs(ells + ells_inv) <= 1e-9
            guarded = np.maximum(l1s, L1_LOG_FLOOR)
            expanded = (np.log(guarded[:, MALIGNANT]) - np.log(guarded[:, BENIGN])).sum() / n
            ells_ok &= abs(ells - expanded) <= 1e-9

        # roc_auc equals brute-force pair counting: exhaustive for small
        # binary inputs, randomized (with heavy ties) up to 50 samples
        auc_ok = True
        for n in range(2, 7):
            for smask, tmask in itertools.product(range(2**n), range(1, 2**n - 1)):
                scores = [(smask >> i) & 1 for i in range(n)]
                truth = [(tmask >> i) & 1 for i in range(n)]
                _, auc = roc_auc(scores, truth)
                auc_ok &= abs(auc - pair_counting_auc(scores, truth)) <= 1e-12
        for n in range(2, 51):
            for _ in range(4):
                truth = rng.integers(0, 2, n)
                if truth.min() == truth.max():
                    truth[0] = 1 - truth[0]
                scores = np.round(rng.random(n) * 5) / 5
                _, auc = roc_auc(scores, truth)
                auc_ok &= abs(auc - pair_counting_auc(scores, truth)) <= 1e-12

        elapsed = time.perf_counter() - start
        report(
            "ensemble-suite",
            bbmap_ok and ells_ok and auc_ok and elapsed < 30.0,
            f"bbmap {bbmap_ok}, ells {ells_ok}, auc {auc_ok}, {elapsed:.1f}s",
        )


class TestSyntheticEndToEnd:
    def test_criterion(self):
        start = time.perf_counter()
        cfg = ExperimentConfig(
            roi_size=64,
            block_sizes=(16,),
            k_folds=10,
            dl_mode="lcksvd2",
            decision="bbll",
            seed=20,
            synthetic=True,
            synth_atoms_per_class=6,
            synth_sparsity=3,
            synth_noise_sigma=0.05,
            synth_samples_per_class=40,
        )
        rep = run_experiment(cfg, persist=False)
        elapsed = time.perf_counter() - start
        acc = rep.metrics["acc"]
        auc = rep.metrics["auc"]
        report(
            "synthetic-end-to-end",
            acc >= 90.0 and auc >= 95.0 and elapsed < 300.0 and not rep.incomplete_folds,
            f"acc {acc:.2f}%, auc {auc:.2f}%, {elapsed:.0f}s",
        )


class TestDeterminism:
    def test_criterion(self):
        cfg = ExperimentConfig(
            roi_size=16,
            block_sizes=(8,),
            k_folds=4,
            dl_mode="lcksvd1",
            decision="bbll",
            iterations=4,
            seed=20,
            synthetic=True,
            synth_atoms_per_class=4,
            synth_sparsity=2,
            synth_noise_sigma=0.05,
            synth_samples_per_class=8,
        )
        first = run_experiment(cfg, persist=False).to_json().encode()
        second = run_experiment(cfg, persist=False).to_json().encode()
        report(
            "byte-identical-reports",
            first == second,
            f"repeat {'==' if first == second else '!='}",
        )


@needs_mias
class TestMiasDatasetCounts:
    def test_criterion(self):
        path = None
        for name in ("Info.txt", "info.txt", "info"):
            p = os.path.join(MIAS_DIR, name)
            if os.path.exists(p):
                path = p
                break
        with open(path, "r", encoding="utf-8") as fh:
            records = parse_metadata(fh.read(), strict=False)
        kept = filter_lesions(records, 64)
        benign = sum(1 for r in kept if r.severity == BENIGN)
        malignant = sum(1 for r in kept if r.severity == MALIGNANT)
        benign_refs = len({r.ref_id for r in records if r.severity == BENIGN})
        malignant_refs = len({r.ref_id for r in records if r.severity == MALIGNANT})
        report(
            "mias-dataset-counts",
            (benign, malignant) == (36, 37) and (benign_refs, malignant_refs) == (66, 51),
            f"lesions {benign}/{malignant}, mammograms {benign_refs}/{malignant_refs}",
        )


@needs_mias
class TestMiasGridTrends:
    def test_criterion(self, tmp_path):
        from blocksrc.mias import build_roi_cache

        cache = tmp_path / "rois"
        build_roi_cache(MIAS_DIR, os.path.join(MIAS_DIR, "Info.txt"), 64, str(cache), strict=False)
        base = ExperimentConfig(
            roi_size=64,
            block_sizes=(64,),
            decision="bbll",
            seed=20,
            data_dir=str(cache),
            output_dir=str(tmp_path / "results"),
        )
        acc = {}
        auc = {}
        for k in (20, 30):
            for mode in ("none", "lcksvd1", "lcksvd2"):
                cfg = replace(base, k_folds=k, dl_mode=mode)
                samples = load_dataset(cfg)
                for block in (64, 16, 8):
                    rep = run_experiment(cfg, block_size=block, samples=samples, persist=False)
                    acc[(k, mode, block)] = rep.metrics["acc"]
                    auc[(k, mode, block)] = rep.metrics["auc"]

        ordering_ok = all(
            max(acc[(k, mode, 16)], acc[(k, mode, 8)]) > acc[(k, mode, 64)]
            for k in (20, 30)
            for mode in ("none", "lcksvd1", "lcksvd2")
        )
        auc_ok = any(
            auc[(30, mode, block)] > 85.0
            for mode in ("lcksvd1", "lcksvd2")
            for block in (16, 8)
        )
        report(
            "mias-grid-trends",
            ordering_ok and auc_ok,
            f"ordering {ordering_ok}, best 30-fold dl auc "
            f"{max(auc[(30, m, b)] for m in ('lcksvd1', 'lcksvd2') for b in (16, 8)):.2f}%",
        )
