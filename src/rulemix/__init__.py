"""rulemix: compress a boosted tree ensemble into a few readable interval rules.

A trained tree ensemble partitions the input space into thousands of cells.
This package approximates it with a small mixture of experts fitted by EM on
the ensemble's own predictions, then reads each mixture component back as a
conjunction of feature intervals with one predictor value.
"""

from .baseline import CartConfig, cv_mse_by_depth, fit_cart, tree_to_ruleset
from .binarizer import BinaryDataset, SplitSchema, build_dataset, count_regions_exact, extract_splits
from .data import LabeledDataset, gen_energy_like, gen_xor, load_csv, mse, split3
from .em import EmConfig, FitReport, e_step, fit, lower_bound, m_step_closed_form, m_step_gate
from .ensemble import TreeEnsemble, count_regions
from .mixture import MixtureModel, RuleSet, extract_rules, render_rules_text, rules_to_json_dict
from .trainer import GbtConfig, ParseError, fit_gbt, grow_tree, parse_ensemble_json, presort, serialize_ensemble

__all__ = [
    "BinaryDataset",
    "CartConfig",
    "EmConfig",
    "FitReport",
    "GbtConfig",
    "LabeledDataset",
    "MixtureModel",
    "ParseError",
    "RuleSet",
    "SplitSchema",
    "TreeEnsemble",
    "build_dataset",
    "count_regions",
    "count_regions_exact",
    "cv_mse_by_depth",
    "e_step",
    "extract_rules",
    "extract_splits",
    "fit",
    "fit_cart",
    "fit_gbt",
    "gen_energy_like",
    "gen_xor",
    "grow_tree",
    "load_csv",
    "lower_bound",
    "m_step_closed_form",
    "m_step_gate",
    "mse",
    "parse_ensemble_json",
    "presort",
    "render_rules_text",
    "rules_to_json_dict",
    "serialize_ensemble",
    "split3",
    "tree_to_ruleset",
]
__version__ = "0.1.0"
