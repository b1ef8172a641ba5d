"""Size cross-checks that need no oracle, so they hold past its cap.

- On a class intersection, two unrelated solvers must return one size:
  threshold graphs are split and interval, so the split solvers (candidate
  families) and the interval solvers (window programs on the threshold
  model) must agree.
- Every solver's size is invariant under a seeded relabelling of its input.
  Tie-broken sets may differ; sizes may not.
"""

import random

import pytest

from capture_scale_outputs import SOURCES
from chordel import (
    Graph,
    IntervalModel,
    delete_to_cluster_split,
    delete_to_complete_split,
    max_cluster_subgraph,
    max_complete_split_subgraph,
    threshold_interval_model,
)
from chordel.cli import _GRAPH_SOLVERS, _MODEL_SOLVERS, _solve_one
from chordel.randgen import gen_threshold


@pytest.mark.parametrize("n", [8, 16, 32, 64, 128, 256])
def test_split_and_interval_solvers_agree_on_threshold_graphs(n):
    for seed in range(3):
        g, _ = gen_threshold(n, seed)
        m = threshold_interval_model(g)
        assert delete_to_cluster_split(g).size == n - len(max_cluster_subgraph(m))
        assert delete_to_complete_split(g).size == n - len(max_complete_split_subgraph(m))


def _relabelled(instance, rng: random.Random):
    """The instance with its vertices renumbered by a seeded permutation: a
    model's intervals reordered, or a graph's edges mapped."""
    perm = rng.sample(range(instance.n), instance.n)
    if isinstance(instance, IntervalModel):
        return IntervalModel(tuple(instance.intervals[v] for v in perm))
    return Graph.from_edges(instance.n, [(perm[u], perm[v]) for u, v in instance.edges()])


@pytest.mark.parametrize("problem, n", [
    (problem, n)
    for problem in (*_GRAPH_SOLVERS, *_MODEL_SOLVERS)
    for n in ((64,) if problem == "split-to-unit-interval" else (64, 256))
])
def test_solver_size_is_invariant_under_relabelling(problem, n):
    _, make = SOURCES[problem.split("-to-")[0]]
    for seed in (1, 2):
        instance = make(n, seed)
        size = _solve_one(problem, None, instance).size
        rng = random.Random(seed)
        for _ in range(2):
            assert _solve_one(problem, None, _relabelled(instance, rng)).size == size
