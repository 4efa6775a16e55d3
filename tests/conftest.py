"""Shared builders for small hand-made models."""

import os
from pathlib import Path

import numpy as np
import pytest

import rulemix
import rulemix.em
from rulemix.binarizer import BinaryDataset, SplitSchema
from rulemix.ensemble import TreeEnsemble
from rulemix.mixture import MixtureModel
from rulemix.trainer import read_nodes


def stump(feature=0, threshold=0.5, left_value=0.0, right_value=1.0) -> list:
    return [
        {"feature": feature, "threshold": threshold, "left": 1, "right": 2},
        {"value": left_value},
        {"value": right_value},
    ]


def constant_tree(value=0.0) -> list:
    return [{"value": value}]


def ensemble_of(trees, weights, feature_count, feature_names=None) -> TreeEnsemble:
    """The ensemble of ``trees``, each a ``nodes`` list of the interchange
    format (``read_nodes``)."""
    columns = ([], [], [], [], [])
    for nodes in trees:
        read_nodes(nodes, columns)
    return TreeEnsemble(columns, [len(nodes) for nodes in trees], weights, feature_count, feature_names)


def one_tree(columns, X) -> TreeEnsemble:
    """``grow_tree``'s ``columns`` as a one-tree ensemble over X's features."""
    return TreeEnsemble(columns, [len(columns[0])], [1.0], X.shape[1])


def two_stump_ensemble(weights=(1.0, 1.0)) -> TreeEnsemble:
    return ensemble_of((stump(0), stump(1)), np.array(weights), 2)


def schema_of_length(l, dims=2) -> SplitSchema:
    features = np.sort(np.arange(l) % dims)
    thresholds = []
    counts = {}
    for d in features:
        counts[d] = counts.get(d, 0) + 1
        thresholds.append(counts[d] / (l + 1.0))
    return SplitSchema(features, np.array(thresholds))


def random_dataset(seed, n, l, dims=2) -> BinaryDataset:
    rng = np.random.default_rng(seed)
    schema = schema_of_length(l, dims)
    bits = rng.integers(0, 2, size=(n, l)).astype(float)
    z = rng.normal(0.0, 1.0, size=n)
    return BinaryDataset(bits, z, schema)


def random_model(seed, k, schema) -> MixtureModel:
    rng = np.random.default_rng(seed)
    l = len(schema)
    return MixtureModel(
        gate_weights=rng.normal(0.0, 1.0, size=(k, l + 1)),
        eta=rng.random((k, l)),
        mu=rng.normal(0.0, 2.0, size=k),
        lam=rng.uniform(0.5, 3.0, size=k),
        schema=schema,
    )


def src_env(**extra):
    """This process's environment with the imported rulemix first on the path."""
    src = str(Path(rulemix.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path, **extra}


@pytest.fixture
def gate_gradient_norms(monkeypatch):
    """Norm of every gate gradient, as a dict from restart to one list per
    gate M-step of that restart, read the way ``bench/tracing.py`` reads them:
    by wrapping the ``rulemix.em`` bindings the EM loop looks up.  One
    ``m_step_gate`` call steps a stack of restarts and one ``gate_gradient``
    call covers the slices that accepted a point; each slice of a gradient is
    told apart by its moments, which no two slices of these stacks share."""
    steps = {}
    stack = []  # (moments, norms) of each slice of the running m_step_gate call
    step, gradient = rulemix.em.m_step_gate, rulemix.em.gate_gradient

    def counted_step(moments, design, w_init, config, restart_ids=None):
        ids = range(len(moments)) if restart_ids is None else restart_ids
        stack[:] = [(m, []) for m in moments]
        for r, (_, norms) in zip(ids, stack):
            steps.setdefault(r, []).append(norms)
        return step(moments, design, w_init, config, restart_ids)

    def counted_gradient(*args):
        G = gradient(*args)
        for m, g in zip(args[1], G):
            (norms,) = [norms for moments, norms in stack if np.array_equal(moments, m)]
            norms.append(float(np.sqrt((g * g).sum())))
        return G

    monkeypatch.setattr(rulemix.em, "m_step_gate", counted_step)
    monkeypatch.setattr(rulemix.em, "gate_gradient", counted_gradient)
    return steps
