"""Shared builders for small hand-made models."""

import os
from pathlib import Path

import numpy as np
import pytest

import rulemix
import rulemix.em
from rulemix.binarizer import BinaryDataset, SplitSchema
from rulemix.ensemble import Tree, TreeEnsemble
from rulemix.mixture import MixtureModel


def stump(feature=0, threshold=0.5, left_value=0.0, right_value=1.0) -> Tree:
    return Tree.from_nodes(
        [
            {"feature": feature, "threshold": threshold, "left": 1, "right": 2},
            {"value": left_value},
            {"value": right_value},
        ]
    )


def constant_tree(value=0.0) -> Tree:
    return Tree.from_nodes([{"value": value}])


def two_stump_ensemble(weights=(1.0, 1.0)) -> TreeEnsemble:
    return TreeEnsemble((stump(0), stump(1)), np.array(weights), 2)


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
    """Norm of every gate gradient, one list per ``m_step_gate`` call, read
    the way ``bench/tracing.py`` reads them: by wrapping the ``rulemix.em``
    bindings the EM loop looks up."""
    steps = []
    step, gradient = rulemix.em.m_step_gate, rulemix.em.gate_gradient

    def counted_step(*args):
        steps.append([])
        return step(*args)

    def counted_gradient(*args):
        G = gradient(*args)
        steps[-1].append(float(np.sqrt((G * G).sum())))
        return G

    monkeypatch.setattr(rulemix.em, "m_step_gate", counted_step)
    monkeypatch.setattr(rulemix.em, "gate_gradient", counted_gradient)
    return steps
