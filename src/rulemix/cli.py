"""Command-line front end: train, simplify, evaluate, and reproduce pipelines."""

from __future__ import annotations

import argparse
import itertools
import json
import sys
import time
from dataclasses import asdict

import numpy as np

from . import em
from .baseline import CartConfig, cv_mse_by_depth, fit_cart, tree_to_ruleset
from .binarizer import build_dataset, count_patterns, count_regions_exact, extract_splits
from .data import (
    ENERGY_FEATURES,
    ENERGY_TARGET,
    gen_energy_like,
    gen_xor,
    load_csv,
    mse,
    split3,
    write_csv,
)
from .ensemble import count_regions
from .mixture import check_tau, extract_rules, render_rules_text, rules_to_json_dict
from .trainer import GbtConfig, ParseError, fit_gbt, parse_ensemble_json, serialize_ensemble


def _emit(text: str, out_path) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _emit_report(report: dict, out_path, rules=None) -> None:
    _emit(json.dumps(report, indent=2), out_path)
    if rules is not None and sys.stderr.isatty():
        print(render_rules_text(rules), file=sys.stderr)


def _read_model(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return parse_ensemble_json(fh.read())
    except ParseError as e:
        raise ParseError(f"{path}: {e}") from e


def _read_csv_for(expected, path, target):
    """``load_csv``, requiring the feature columns to be ``expected``, in
    order, unless ``expected`` is None."""
    data = load_csv(path, target)
    expected = expected or data.feature_names
    for i, (got, want) in enumerate(itertools.zip_longest(data.feature_names, expected)):
        if got != want:
            raise ValueError(f"{path}: feature column {i + 1} is {got!r}, expected {want!r}")
    return data


def cmd_synth(args) -> int:
    data = gen_xor(args.n, args.noise_sd, args.seed)
    write_csv(data, args.out, "y")
    print(f"wrote {len(data)} rows to {args.out}")
    return 0


def cmd_train_atm(args) -> int:
    data = load_csv(args.train, args.target)
    config = GbtConfig(args.trees, args.depth, args.lr, args.min_samples_leaf, args.seed)
    ensemble = fit_gbt(data, config)
    _emit(serialize_ensemble(ensemble), args.out)
    return 0


def _fit_rules(ensemble, xs, em_config, tau):
    """Binarize ``xs`` on the ensemble's splits, fit the mixture by EM and read
    off its rules; callers check ``tau`` first.  ``warnings`` names a degenerate
    fit: fewer distinct bit patterns than components (an empty schema has one pattern)."""
    schema = extract_splits(ensemble)
    dataset = build_dataset(ensemble, schema, xs)
    model, fit_report = em.fit(dataset, em_config)
    rules = extract_rules(model, tau, dataset)
    k, patterns = em_config.n_components, count_patterns(dataset.bits)
    note = f"K={k} but {patterns} distinct bit pattern(s): spare components repeat a rule"
    warnings = [note] if patterns < k else []
    return dataset, model, fit_report, rules, warnings


def _fit_baseline(data, cart_config):
    """Cross-validate the depth grid once, then refit CART at the best depth."""
    scores = cv_mse_by_depth(data, cart_config)
    return scores, fit_cart(data, cart_config, scores)


def cmd_simplify(args) -> int:
    check_tau(args.tau)
    ensemble = _read_model(args.model)
    train = _read_csv_for(ensemble.feature_names, args.train, args.target)
    config = em.EmConfig(args.k, restarts=args.restarts, seed=args.seed)
    dataset, model, fit_report, rules, warnings = _fit_rules(ensemble, train.xs, config, args.tau)
    report = {
        "counts": {"n_train": len(train), "split_rules": dataset.n_bits, "components": args.k},
        "rules": rules_to_json_dict(rules),
        "train_mse_vs_atm": mse(model.predict_batch(dataset.bits), dataset.z),
        "fit": asdict(fit_report),
        "warnings": warnings,
    }
    _emit_report(report, args.out, rules)
    return 0


def cmd_baseline(args) -> int:
    train = load_csv(args.train, args.target)
    depths = tuple(range(args.min_depth, args.max_depth + 1))
    config = CartConfig(depths, args.folds, args.min_samples_leaf, args.seed)
    test = _read_csv_for(train.feature_names, args.test, args.target) if args.test else None
    scores, tree = _fit_baseline(train, config)
    report = {"cv_mse_by_depth": {str(d): v for d, v in scores.items()}, "leaves": tree.n_leaves}
    rules = tree_to_ruleset(tree, train)
    if test is not None:
        report["test_mse"] = mse(tree.predict_batch(test.xs), test.ys)
    report["rules"] = rules_to_json_dict(rules)
    _emit_report(report, args.out, rules)
    return 0


def cmd_evaluate(args) -> int:
    ensemble = _read_model(args.model)
    test = _read_csv_for(ensemble.feature_names, args.test, args.target)
    report = {"n_test": len(test), "test_mse": mse(ensemble.predict_batch(test.xs), test.ys)}
    _emit_report(report, args.out)
    return 0


def _pipeline_report(task, source, d_atm, d_train, d_test, gbt_config, em_config, cart_config, tau):
    check_tau(tau)
    if len(d_train) < em_config.n_components:
        raise ValueError("need at least one row per component")
    start = time.perf_counter()
    ensemble = fit_gbt(d_atm, gbt_config)
    dataset, model, fit_report, rules, warnings = _fit_rules(ensemble, d_train.xs, em_config, tau)
    _, cart = _fit_baseline(d_train, cart_config)

    atm_preds = ensemble.predict_batch(d_test.xs)
    test_bits = dataset.schema.encode_batch(d_test.xs)
    hard_preds = model.predict_batch(test_bits)
    atm_mse = mse(atm_preds, d_test.ys)
    model_hard = mse(hard_preds, d_test.ys)
    model_soft = mse(model.predict_batch(test_bits, soft=True), d_test.ys)
    fidelity = mse(hard_preds, atm_preds)
    cart_mse = mse(cart.predict_batch(d_test.xs), d_test.ys)
    if ensemble.feature_count <= 2:
        regions, mode = count_regions_exact(ensemble), "exact"
    else:
        regions, mode = count_regions(ensemble, np.vstack([d_train.xs, d_test.xs])), "sampled"

    best = fit_report.restarts[fit_report.best_restart]
    gate_iters = [i for r in fit_report.restarts for i in r.gate_iters]
    grad_norms = [g for r in fit_report.restarts for g in r.gate_final_grad_norms]
    report = {
        "task": task,
        "seed": em_config.seed,
        "dataset": source,
        "config": {
            "gbt": asdict(gbt_config),
            "em": asdict(em_config),
            "cart": asdict(cart_config),
            "tau": tau,
        },
        "counts": {
            "n_atm": len(d_atm),
            "n_train": len(d_train),
            "n_test": len(d_test),
            "split_rules": dataset.n_bits,
            "region_count": regions,
            "region_count_mode": mode,
            "components": em_config.n_components,
            "baseline_leaves": cart.n_leaves,
        },
        "errors": {
            "atm_test_mse": atm_mse,
            "model_i_test_mse": model_hard,
            "model_i_test_mse_soft": model_soft,
            "model_i_vs_atm_mse": fidelity,
            "baseline_test_mse": cart_mse,
        },
        "rules": rules_to_json_dict(rules),
        "em_fit": {
            "best_restart": fit_report.best_restart,
            "restarts": len(fit_report.restarts),
            "iterations": best.iters,
            "final_objective": best.objective_trace[-1],
            "reseed_events": sum(r.reseed_events for r in fit_report.restarts),
            "gate_cap_share": gate_iters.count(em_config.gate_max_iters) / len(gate_iters),
            "gate_max_final_grad_norm": max(grad_norms),
        },
        "warnings": warnings,
        "wall_time_s": time.perf_counter() - start,
    }
    return report, rules


def synthetic_pipeline(seed, k=4, tau=0.05, restarts=10, n=1000):
    d_atm = gen_xor(n, seed=seed)
    d_train = gen_xor(n, seed=seed + 1)
    d_test = gen_xor(n, seed=seed + 2)
    gbt = GbtConfig(min_samples_leaf=50, seed=seed)
    emc = em.EmConfig(n_components=k, restarts=restarts, seed=seed)
    cart = CartConfig(min_samples_leaf=15, seed=seed)
    return _pipeline_report("synthetic", "generated", d_atm, d_train, d_test, gbt, emc, cart, tau)


def energy_pipeline(seed, data_path=None, k=4, tau=0.05, restarts=10):
    if data_path:
        full = _read_csv_for(ENERGY_FEATURES, data_path, ENERGY_TARGET)
        source = str(data_path)
    else:
        full = gen_energy_like(seed=seed)
        source = "synthetic stand-in"
    d_atm, d_train, d_test = split3(full, (0.4, 0.3, 0.3), seed)
    gbt = GbtConfig(min_samples_leaf=10, seed=seed)
    emc = em.EmConfig(n_components=k, restarts=restarts, seed=seed)
    cart = CartConfig(seed=seed)
    return _pipeline_report("energy", source, d_atm, d_train, d_test, gbt, emc, cart, tau)


def cmd_reproduce(args) -> int:
    if args.task == "synthetic":
        report, rules = synthetic_pipeline(args.seed, args.k, args.tau, args.restarts)
    else:
        report, rules = energy_pipeline(args.seed, args.data, args.k, args.tau, args.restarts)
    _emit_report(report, args.out, rules)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rulemix",
        description="Approximate a boosted tree ensemble by a few readable interval rules.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate the synthetic XOR regression data")
    p.add_argument("--n", type=int, default=1000)
    p.add_argument("--noise-sd", type=float, default=0.1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train-atm", help="fit a boosted tree ensemble on a CSV")
    p.add_argument("--train", required=True)
    p.add_argument("--target", default="y")
    p.add_argument("--trees", type=int, default=100)
    p.add_argument("--depth", type=int, default=3)
    p.add_argument("--lr", type=float, default=0.1)
    p.add_argument("--min-samples-leaf", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_train_atm)

    p = sub.add_parser("simplify", help="fit the mixture surrogate and extract rules")
    p.add_argument("--model", required=True)
    p.add_argument("--train", required=True)
    p.add_argument("--target", default="y")
    p.add_argument("--k", type=int, default=4)
    p.add_argument("--tau", type=float, default=0.05)
    p.add_argument("--restarts", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_simplify)

    p = sub.add_parser("baseline", help="cross-validated CART regression tree")
    p.add_argument("--train", required=True)
    p.add_argument("--test", default=None)
    p.add_argument("--target", default="y")
    p.add_argument("--min-depth", type=int, default=2)
    p.add_argument("--max-depth", type=int, default=10)
    p.add_argument("--folds", type=int, default=5)
    p.add_argument("--min-samples-leaf", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_baseline)

    p = sub.add_parser("evaluate", help="test error of a stored ensemble")
    p.add_argument("--model", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--target", default="y")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("reproduce", help="run a full pipeline with stock settings")
    p.add_argument("task", choices=("synthetic", "energy"))
    p.add_argument("--data", default=None, help="energy CSV (default: built-in stand-in)")
    p.add_argument("--k", type=int, default=4)
    p.add_argument("--tau", type=float, default=0.05)
    p.add_argument("--restarts", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_reproduce)
    return parser


def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.func(args)
    except Exception as e:  # surfaced as a one-line diagnostic, exit 1
        print(f"error: {e}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
