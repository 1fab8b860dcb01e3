"""End-to-end mining workflow on surrogate components.

One component run follows the full loop: space-filling DOE, surrogate
responses, threshold labelling, uncertain-tree training, rule mining inside
the tree, a fresh DOE restricted to the selected rule box, and reliability
screening of those candidates.  Component runs are then recombined into
system designs by sampling one screened final per component.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .doe import SamplingPlan, lhs, lhs_in_rule
from .rules import (
    PipelineConfig,
    Rule,
    rule_from_payload,
    rules_payload,
    screen_designs,
)
from .surrogate import ComponentSpec, SurrogateSpec, surrogate_responses
from .tree import UncertainTree, TreeConfig, build_tree, training_accuracy
from .uncertain import Dataset, _total, apply_labels, dataset_from_design

__all__ = ["ComponentResult", "SystemDesign", "run_component", "recombine", "run_demo"]


@dataclass(frozen=True)
class ComponentResult:
    """Everything produced while mining one component."""

    component: ComponentSpec
    design_matrix: np.ndarray
    labels: list
    dataset: Dataset
    tree: UncertainTree
    train_accuracy: float
    rules: dict
    rule: Rule
    candidates: np.ndarray
    ranked: list  # every candidate, ranked by target-label probability
    finals: list  # the screened top designs (subset of ranked)

    def final_rows(self) -> np.ndarray:
        """Design vectors of the screened finals, in screened order."""
        return np.array([self.candidates[d.id - 1] for d in self.finals])


@dataclass(frozen=True)
class SystemDesign:
    """One recombined system design: the screened final chosen per component
    and its surrogate responses."""

    id: int
    choices: dict  # component name -> rank of the chosen final (1-based)
    variables: dict  # flat variable name -> value
    responses: dict  # component name -> {"SEA": ..., "M": ...}

    @property
    def total_mass(self) -> float:
        return float(_total([r["M"] for r in self.responses.values()]))


def run_component(
    comp: ComponentSpec,
    n_train: int = 150,
    uncertainty: float = 0.1,
    max_layers: int = 9,
    n_split_points: int = 10,
    lp_threshold: float = 0.85,
    target_label: str = "g",
    n_subspace: int = 20,
    top_k: int = 10,
    seed: int = 0,
) -> ComponentResult:
    """Mine one component: DOE, label, train, extract the rule, sample the
    rule box, and screen the new candidates."""
    problem = PipelineConfig(
        variable_names=comp.variable_names,
        lower=tuple(lo for _, lo, _ in comp.variables),
        upper=tuple(hi for _, _, hi in comp.variables),
        criteria=comp.criteria,
        target_label=target_label,
        lp_threshold=lp_threshold,
        max_layers=max_layers,
    )
    bounds = tuple(problem.bounds())
    design = lhs(SamplingPlan(bounds, n_train, seed))
    records = surrogate_responses(design, comp)
    labels = apply_labels(records, problem.criteria)
    dataset = dataset_from_design(
        comp.variable_names, design, labels, uncertainty, problem.criteria.labels
    )
    config = TreeConfig(
        max_layers=problem.max_layers, n_split_points=n_split_points, seed=seed
    )
    tree = build_tree(dataset, config)
    payload = rules_payload(
        tree, dataset, bounds, problem.target_label, problem.lp_threshold
    )
    rule = rule_from_payload(payload)
    candidates = lhs_in_rule(rule, n_subspace, seed + 1)
    tuples = dataset_from_design(
        comp.variable_names, candidates, [target_label] * len(candidates), uncertainty
    ).tuples
    ranked = screen_designs(tree, tuples, target_label, len(tuples))
    finals = ranked[:top_k]
    return ComponentResult(
        component=comp,
        design_matrix=design,
        labels=labels,
        dataset=dataset,
        tree=tree,
        train_accuracy=training_accuracy(tree, dataset),
        rules=payload,
        rule=rule,
        candidates=candidates,
        ranked=ranked,
        finals=finals,
    )


def recombine(results, n_system: int = 20, seed: int = 0) -> list:
    """Sample system designs by drawing one screened final per component.

    The draws come system by system, component by component; then each
    component responds to its chosen rows in one call."""
    rng = np.random.default_rng(seed)
    picks = [[res.finals[int(rng.integers(0, len(res.finals)))] for res in results] for _ in range(n_system)]
    chosen = []  # per component: the rows its finals put in each system, and their records
    for c, res in enumerate(results):
        rows = res.candidates[[system[c].id - 1 for system in picks]]
        chosen.append((rows.tolist(), surrogate_responses(rows, res.component)))
    designs = []
    for j, system in enumerate(picks):
        choices, variables, responses = {}, {}, {}
        for res, final, (rows, records) in zip(results, system, chosen):
            name = res.component.name
            choices[name] = final.rank
            variables.update(zip(res.component.variable_names, rows[j]))
            responses[name] = {"SEA": records[j].sea, "M": records[j].mass}
        designs.append(SystemDesign(j + 1, choices, variables, responses))
    return designs


def run_demo(
    spec: SurrogateSpec,
    n_train: int = 150,
    uncertainty: float = 0.1,
    max_layers: int = 9,
    n_split_points: int = 10,
    lp_threshold: float = 0.85,
    target_label: str = "g",
    n_subspace: int = 20,
    top_k: int = 10,
    n_system: int = 20,
    seed: int = 0,
):
    """Run every component of a surrogate spec and recombine the finals.

    Per-component seeds are derived deterministically from the base seed, so
    a fixed seed reproduces every intermediate artifact exactly.
    """
    results = []
    for index, comp in enumerate(spec.components):
        results.append(
            run_component(
                comp,
                n_train=n_train,
                uncertainty=uncertainty,
                max_layers=max_layers,
                n_split_points=n_split_points,
                lp_threshold=lp_threshold,
                target_label=target_label,
                n_subspace=n_subspace,
                top_k=top_k,
                seed=seed * 1000 + index * 10,
            )
        )
    systems = recombine(results, n_system, seed * 1000 + 777)
    return results, systems
