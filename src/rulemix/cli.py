"""Command-line front end: train, simplify, evaluate, and reproduce pipelines."""

from __future__ import annotations

import argparse
import functools
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
    check_count,
    check_sum_of_squares,
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
    _emit(json.dumps(report, indent=2, allow_nan=False), out_path)
    if rules is not None and sys.stderr.isatty():
        print(render_rules_text(rules), file=sys.stderr)


def _read_model(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return parse_ensemble_json(fh.read())
    except (ParseError, UnicodeDecodeError) as e:
        raise ParseError(f"{path}: {e}") from e


def _read_csv_for(expected, path, target):
    """``load_csv``, refusing targets whose squares no fit can sum, and
    requiring the feature columns to be ``expected``: their names, in order,
    or, for a model without names, their count (any columns for None)."""
    data = load_csv(path, target)
    check_sum_of_squares(f"{path}: column {target!r}: targets", data.ys)
    if expected is None:
        return data
    if isinstance(expected, int):
        if data.dimension != expected:
            raise ValueError(f"{path}: {data.dimension} feature columns, expected {expected}")
        return data
    for i, (got, want) in enumerate(itertools.zip_longest(data.feature_names, expected), start=1):
        if want is None:
            raise ValueError(f"{path}: feature column {i} {got!r} is extra, expected {len(expected)} feature columns")
        if got is None:
            raise ValueError(f"{path}: feature column {i} is missing, expected {want!r}")
        if got != want:
            raise ValueError(f"{path}: feature column {i} is {got!r}, expected {want!r}")
    return data


def _check_at_most_rows(field, value, data, path) -> None:
    if value > len(data):
        raise ValueError(f"{field} must be at most the {len(data)} rows of {path}, got {value}")


def cmd_synth(args) -> int:
    data = gen_xor(args.n, args.noise_sd, args.seed)
    write_csv(data, args.out, "y")
    print(f"wrote {len(data)} rows to {args.out}")
    return 0


def cmd_train_atm(args) -> int:
    check_count("seed", args.seed, 0)  # accepted and checked, but it feeds nothing
    config = GbtConfig(args.tree_count, args.max_depth, args.learning_rate, args.min_samples_leaf)
    data = _read_csv_for(None, args.train, args.target)
    try:
        ensemble = fit_gbt(data, config)
    except ValueError as e:  # fewer than 2 rows
        raise ValueError(f"{args.train}: {e}") from e
    _emit(serialize_ensemble(ensemble), args.out)
    return 0


def _fit_rules(ensemble, xs, em_config, tau, source="the ensemble's predictions"):
    """Binarize ``xs`` on the ensemble's splits, fit the mixture by EM and read
    off its rules; callers check ``tau`` first.  ``source`` names the
    predictions in an error: too large to fit, or every restart failed.
    ``warnings`` names a degenerate fit: fewer distinct bit patterns than
    components (an empty schema has one pattern)."""
    schema = extract_splits(ensemble)
    dataset = build_dataset(ensemble, schema, xs)
    try:
        model, fit_report = em.fit(dataset, em_config)
    except ValueError as e:  # predictions too large to fit
        raise ValueError(f"{source}: {e}") from e
    except RuntimeError as e:  # every restart failed on these predictions
        raise RuntimeError(f"{source}: {e}") from e
    rules = extract_rules(model, tau, dataset)
    k, patterns = em_config.n_components, count_patterns(dataset.bits)
    note = (
        f"K={k} but {patterns} distinct bit pattern(s): "
        f"the gate gives each to one component, so at least {k - patterns} get share 0"
    )
    warnings = [note] if patterns < k else []
    return dataset, model, fit_report, rules, warnings


def _fit_baseline(data, cart_config):
    """Cross-validate the depth grid once, then refit CART at the best depth."""
    scores = cv_mse_by_depth(data, cart_config)
    return scores, fit_cart(data, cart_config, scores)


def cmd_simplify(args) -> int:
    check_tau(args.tau)
    config = em.EmConfig(args.n_components, restarts=args.restarts, seed=args.seed)
    ensemble = _read_model(args.model)
    train = _read_csv_for(ensemble.feature_names or ensemble.feature_count, args.train, args.target)
    _check_at_most_rows("n_components", args.n_components, train, args.train)
    source = f"{args.model}: predictions on {args.train}"
    dataset, model, fit_report, rules, warnings = _fit_rules(ensemble, train.xs, config, args.tau, source)
    report = {
        "counts": {"n_train": len(train), "split_rules": dataset.n_bits, "components": args.n_components},
        "rules": rules_to_json_dict(rules),
        "train_mse_vs_atm": mse(model.predict_batch(dataset.bits), dataset.z),
        "fit": asdict(fit_report),
        "warnings": warnings,
    }
    _emit_report(report, args.out, rules)
    return 0


def cmd_baseline(args) -> int:
    check_count("min_depth", args.min_depth, 0)
    if args.max_depth < args.min_depth:
        raise ValueError(f"max_depth must be >= --min-depth {args.min_depth}, got {args.max_depth}")
    depths = tuple(range(args.min_depth, args.max_depth + 1))
    config = CartConfig(depths, args.folds, args.min_samples_leaf, args.seed)
    train = _read_csv_for(None, args.train, args.target)
    _check_at_most_rows("folds", args.folds, train, args.train)
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
    test = _read_csv_for(ensemble.feature_names or ensemble.feature_count, args.test, args.target)
    preds = ensemble.predict_batch(test.xs)
    check_sum_of_squares(f"{args.model}: predictions on {args.test}", preds)
    report = {"n_test": len(test), "test_mse": mse(preds, test.ys)}
    _emit_report(report, args.out)
    return 0


def _pipeline_report(task, source, d_atm, d_train, d_test, gbt_config, em_config, cart_config, tau):
    check_tau(tau)
    if em_config.n_components > len(d_train):
        raise ValueError(
            f"n_components must be at most the {len(d_train)} training rows, got {em_config.n_components}"
        )
    if len(d_atm) < 2:
        raise ValueError(f"{source}: the ATM split has {len(d_atm)} row(s), need at least 2 to fit the ensemble")
    if len(d_train) < cart_config.folds:
        raise ValueError(
            f"{source}: the training split has {len(d_train)} row(s), "
            f"need at least one per CART fold ({cart_config.folds})"
        )
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
    gbt = GbtConfig(min_samples_leaf=50)
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
    gbt = GbtConfig(min_samples_leaf=10)
    emc = em.EmConfig(n_components=k, restarts=restarts, seed=seed)
    cart = CartConfig(seed=seed)
    return _pipeline_report("energy", source, d_atm, d_train, d_test, gbt, emc, cart, tau)


def cmd_reproduce(args) -> int:
    if args.task == "synthetic":
        report, rules = synthetic_pipeline(args.seed, args.n_components, args.tau, args.restarts)
    else:
        report, rules = energy_pipeline(args.seed, args.data, args.n_components, args.tau, args.restarts)
    _emit_report(report, args.out, rules)
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The argument parser; ``args.command`` names the subcommand, which
    ``run`` dispatches to ``cmd_<command>`` (dashes as underscores).  Each
    option's dest is the library field it feeds, and ``args.flags`` maps the
    chosen subcommand's dests to their flags."""
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

    p = sub.add_parser("train-atm", help="fit a boosted tree ensemble on a CSV")
    p.add_argument("--train", required=True)
    p.add_argument("--target", default="y")
    p.add_argument("--trees", dest="tree_count", metavar="TREES", type=int, default=100)
    p.add_argument("--depth", dest="max_depth", metavar="DEPTH", type=int, default=3)
    p.add_argument("--lr", dest="learning_rate", metavar="LR", type=float, default=0.1)
    p.add_argument("--min-samples-leaf", type=int, default=5)
    p.add_argument("--seed", type=int, default=0, help="checked, but feeds nothing: boosting draws no random numbers")
    p.add_argument("--out", default=None)

    p = sub.add_parser("simplify", help="fit the mixture surrogate and extract rules")
    p.add_argument("--model", required=True)
    p.add_argument("--train", required=True)
    p.add_argument("--target", default="y")
    p.add_argument("--k", dest="n_components", metavar="K", type=int, default=4)
    p.add_argument("--tau", type=float, default=0.05)
    p.add_argument("--restarts", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)

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

    p = sub.add_parser("evaluate", help="test error of a stored ensemble")
    p.add_argument("--model", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--target", default="y")
    p.add_argument("--out", default=None)

    p = sub.add_parser("reproduce", help="run a full pipeline with stock settings")
    p.add_argument("task", choices=("synthetic", "energy"))
    p.add_argument("--data", default=None, help="energy CSV (default: built-in stand-in)")
    p.add_argument("--k", dest="n_components", metavar="K", type=int, default=4)
    p.add_argument("--tau", type=float, default=0.05)
    p.add_argument("--restarts", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)

    for p in sub.choices.values():
        p.set_defaults(flags={a.dest: a.option_strings[0] for a in p._actions if a.option_strings})
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser, built on the first ``run``; parsing leaves it unchanged."""
    return build_parser()


def _join_negative_values(argv) -> list:
    """``argv`` with each negative number that follows a flag joined to it by
    ``=``: argparse reads a separate argument such as ``-1e-05`` or ``-inf``
    (a negative that ``float`` reads but argparse's own pattern does not) as
    an option, but takes ``--lr=-1e-05`` as the flag's value.  ``--help``,
    the one flag without a value, and arguments from a bare ``--`` on stay
    as they are."""
    out = []
    for i, arg in enumerate(argv):
        if arg == "--":
            return out + list(argv[i:])
        flag = out[-1] if out else ""
        takes_value = flag.startswith("--") and "=" not in flag and flag != "--help"
        if takes_value and arg.startswith("-") and _reads_as_float(arg):
            out[-1] = f"{flag}={arg}"
        else:
            out.append(arg)
    return out


def _reads_as_float(text) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def run(argv) -> int:
    """Parse ``argv``, run its subcommand and return the exit code.  The
    parser maps each flag to its field once: a ValueError that starts with
    a field an option feeds (a library check of its value) prints that word
    as the flag; a file's error starts with ``path:``, so it stays."""
    try:
        args = _parser().parse_args(_join_negative_values(argv))
    except SystemExit as e:
        return int(e.code or 0)
    # Looked up on each call, so a wrapper later set on rulemix.cli.cmd_*
    # (a tracer's, a test's monkeypatch) is what runs.
    command = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return command(args)
    except Exception as e:  # surfaced as a one-line diagnostic, exit 1
        field, space, rest = str(e).partition(" ")
        if isinstance(e, ValueError) and field in args.flags:
            field = args.flags[field]
        print(f"error: {field}{space}{rest}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
