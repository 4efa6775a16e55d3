"""End-to-end acceptance checks, one test per criterion.

Each test prints a single PASS line once its assertions hold, so a verbose
run reads as a checklist.  The synthetic pipeline is executed once and shared
by the criteria that inspect it.
"""

import json
import math
import os
from pathlib import Path

import numpy as np
import pytest

import rulemix.em
from conftest import random_dataset, random_model
from oracles import (
    component_bound,
    finite_diff_gate_gradient,
    lower_bound,
    maximize_component_bound,
    naive_em,
)
from rulemix.binarizer import BinaryDataset
from rulemix.cli import energy_pipeline, run, synthetic_pipeline
from rulemix.em import LAMBDA_BOUNDS, EmConfig, e_step, fit, gate_gradient, gate_objective, m_step_closed_form

PIPELINE_SEED = 0


def announce(n, name):
    print(f"\nACCEPTANCE {n} ({name}): PASS", flush=True)


@pytest.fixture(scope="module")
def synthetic_report():
    return synthetic_pipeline(seed=PIPELINE_SEED)


def energy_csv_path():
    candidate = os.environ.get("RULEMIX_ENERGY_CSV")
    if candidate and Path(candidate).exists():
        return candidate
    local = Path(__file__).resolve().parent.parent / "data" / "energy.csv"
    return str(local) if local.exists() else None


def quadrant_signature(component):
    """Map a two-feature interval conjunction to its (side, side) quadrant."""
    by_feature = {iv.feature: iv for iv in component.intervals}
    assert set(by_feature) == {0, 1}, "component must constrain both features"
    signature = []
    for d in (0, 1):
        iv = by_feature[d]
        has_lower = iv.lower > -math.inf
        has_upper = iv.upper < math.inf
        assert has_lower != has_upper, "quadrants are one-sided per feature"
        signature.append("high" if has_lower else "low")
        bound = iv.lower if has_lower else iv.upper
        assert abs(bound - 0.5) <= 0.05, f"threshold {bound} not within 0.05 of 0.5"
    return tuple(signature)


def test_criterion_1_synthetic_pipeline(synthetic_report, capsys):
    report, rules = synthetic_report
    counts, errors = report["counts"], report["errors"]
    assert counts["n_atm"] == counts["n_train"] == counts["n_test"] == 1000
    assert report["config"]["gbt"]["tree_count"] == 100
    assert report["config"]["gbt"]["max_depth"] == 3
    assert report["config"]["gbt"]["learning_rate"] == 0.1
    assert report["config"]["em"]["restarts"] == 10

    assert errors["atm_test_mse"] <= 0.02
    assert errors["model_i_test_mse"] <= 0.05

    assert len(rules.components) == 4
    expected_mu = {
        ("low", "low"): 0.0,
        ("low", "high"): 1.0,
        ("high", "low"): 1.0,
        ("high", "high"): 0.0,
    }
    seen = {}
    for component in rules.components:
        assert not component.degenerate
        signature = quadrant_signature(component)
        seen[signature] = component.mu
    assert set(seen) == set(expected_mu), "four axis-aligned quadrants required"
    for signature, mu in seen.items():
        assert abs(mu - expected_mu[signature]) <= 0.15

    assert counts["region_count"] >= 100
    assert counts["region_count_mode"] == "exact"
    assert report["wall_time_s"] <= 60.0
    with capsys.disabled():
        announce(1, "synthetic pipeline")


def test_criterion_2_baseline(synthetic_report, capsys):
    report, _ = synthetic_report
    assert report["errors"]["baseline_test_mse"] <= 0.02
    assert 4 <= report["counts"]["baseline_leaves"] <= 31
    with capsys.disabled():
        announce(2, "CV-selected CART baseline")


def test_criterion_3_energy_pipeline(capsys):
    path = energy_csv_path()
    report, rules = energy_pipeline(seed=PIPELINE_SEED, data_path=path)
    assert report["errors"]["model_i_test_mse"] <= 35.0
    assert report["counts"]["region_count_mode"] == "sampled"

    rc_bounds = []
    for component in rules.components:
        for iv in component.intervals:
            if rules.name_of(iv.feature) == "Relative Compactness":
                for bound in (iv.lower, iv.upper):
                    if math.isfinite(bound):
                        rc_bounds.append(bound)
    assert any(0.65 <= b <= 0.85 for b in rc_bounds), "no compactness rule near 0.75"

    top = max(rules.components, key=lambda c: c.mu)
    top_rc = [iv for iv in top.intervals if rules.name_of(iv.feature) == "Relative Compactness"]
    assert top_rc, "largest-mu component carries no compactness constraint"
    assert top_rc[0].lower > -math.inf, "largest-mu component must sit on the >= side"
    assert 0.65 <= top_rc[0].lower <= 0.85
    with capsys.disabled():
        announce(3, f"energy pipeline ({report['dataset']})")


def test_criterion_4_em_monotonicity(monkeypatch, capsys):
    monkeypatch.setattr(rulemix.em, "MAX_ITERS", 60)
    rng = np.random.default_rng(2024)
    runs = 0
    while runs < 50:
        n = int(rng.integers(20, 201))
        l = int(rng.integers(2, 11))
        k = int(rng.integers(2, 5))
        ds = random_dataset(int(rng.integers(1e9)), n=n, l=l)
        config = EmConfig(n_components=k, restarts=1, seed=int(rng.integers(1e9)))
        _, report = fit(ds, config)
        for trace_obj in report.restarts:
            trace = trace_obj.objective_trace
            for a, b in zip(trace, trace[1:]):
                assert b >= a - 1e-8, f"objective dropped {a} -> {b}"
            runs += 1
    with capsys.disabled():
        announce(4, "EM objective monotone over 50 runs")


def test_criterion_5_m_step_oracles(capsys):
    rng = np.random.default_rng(99)
    for case in range(20):
        n = int(rng.integers(4, 11))
        l = int(rng.integers(1, 4))
        ds = random_dataset(int(rng.integers(1e9)), n=n, l=l)
        beta = rng.dirichlet(np.ones(2), size=n)
        eta, mu, lam = m_step_closed_form(beta, ds)
        for k in range(2):
            ours = component_bound(eta[k], mu[k], lam[k], beta[:, k], ds.bits, ds.z)
            challenger = maximize_component_bound(
                beta[:, k], ds.bits, ds.z, LAMBDA_BOUNDS, seed=case * 2 + k
            )
            assert ours >= challenger - 1e-8

    bits = rng.integers(0, 2, size=(10, 3)).astype(float)
    design = np.concatenate([bits, np.ones((10, 1))], axis=1)
    beta = rng.dirichlet(np.ones(3), size=10)
    weights = rng.normal(scale=0.5, size=(3, 4))
    moments = beta.T @ design
    _, shifted = gate_objective(weights, moments, design)
    analytic = gate_gradient(weights, moments, design, shifted)
    numeric = finite_diff_gate_gradient(lambda w: gate_objective(w, moments, design)[0], weights, h=1e-5)
    rel = np.abs(analytic - numeric).max() / max(1.0, float(np.abs(numeric).max()))
    assert rel <= 1e-5
    with capsys.disabled():
        announce(5, "closed-form M-step beats no numerical challenger; gradient checks")


def test_criterion_6_bound_tightness(capsys):
    rng = np.random.default_rng(123)
    for case in range(100):
        n = int(rng.integers(2, 30))
        l = int(rng.integers(1, 6))
        k = int(rng.integers(1, 5))
        ds = random_dataset(int(rng.integers(1e9)), n=n, l=l)
        model = random_model(int(rng.integers(1e9)), k=k, schema=ds.schema)
        beta, row_ll = e_step(model, ds)
        ll = float(row_ll.sum())
        assert lower_bound(model, beta, ds) == pytest.approx(ll, abs=1e-8)
    with capsys.disabled():
        announce(6, "bound tight at posterior on 100 instances")


def small_two_group_dataset(seed=0):
    """20 rows, two latent groups, every bit pattern occurring in both groups
    so the optimal gate stays finite and both optimizers can pin it down."""
    import itertools

    from conftest import schema_of_length

    rng = np.random.default_rng(seed)
    schema = schema_of_length(2)
    patterns = list(itertools.product([0.0, 1.0], repeat=2))
    rows, zs = [], []
    for g in (0, 1):
        for p in patterns:
            rows.append(p)
            zs.append(g * 1.0 + rng.normal(0, 0.55))
    for i in range(12):
        g = i % 2
        probs = np.array([0.7, 0.35]) if g == 0 else np.array([0.3, 0.65])
        rows.append(tuple((rng.random(2) < probs).astype(float)))
        zs.append(g * 1.0 + rng.normal(0, 0.55))
    return BinaryDataset(np.array(rows), np.array(zs), schema)


def test_criterion_7_matches_naive_em_optimum(monkeypatch, capsys):
    ds = small_two_group_dataset(seed=5)
    monkeypatch.setattr(rulemix.em, "MAX_ITERS", 2000)
    monkeypatch.setattr(rulemix.em, "REL_TOL", 1e-12)
    model, report = fit(ds, EmConfig(n_components=2, restarts=10, seed=0))
    ours = report.restarts[report.best_restart].objective_trace[-1]
    best_naive = max(naive_em(ds, k=2, seed=s, max_iters=1000) for s in range(200))
    assert ours >= best_naive - 1e-6, f"ours {ours} vs naive best {best_naive}"
    with capsys.disabled():
        announce(7, f"global optimum match (ours {ours:.9f}, oracle {best_naive:.9f})")


def test_criterion_8_reproduce_is_deterministic(tmp_path, capsys):
    outs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        assert run(["reproduce", "synthetic", "--seed", "7", "--out", str(out)]) == 0
        outs.append(json.loads(out.read_text()))
    assert len(outs[0]["rules"]["components"]) == 4
    assert outs[0]["errors"]["model_i_test_mse"] <= 0.05
    for doc in outs:
        doc.pop("wall_time_s")
    assert json.dumps(outs[0], sort_keys=True) == json.dumps(outs[1], sort_keys=True)
    with capsys.disabled():
        announce(8, "reproduce synthetic --seed 7 byte-stable")
