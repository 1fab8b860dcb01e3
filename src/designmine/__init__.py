"""designmine: decision-tree design mining for uncertain data.

A numpy toolkit for mining interval design rules from labelled design
datasets whose samples carry truncated-Gaussian uncertainty: an uncertain-data
decision tree, branch-to-rule extraction with coverage scoring, Latin
hypercube DOE over full and rule-reduced design spaces, crashworthiness
response metrics, an analytic surrogate responder for desk-scale pipeline
runs, and thin-plate-spline control-point morphing.
"""

__version__ = "0.1.0"

from .doe import SamplingPlan, lhs, lhs_in_rule, sample_count_heuristic
from .errors import (
    ConditioningError,
    DesignMineError,
    EmptyDatasetError,
    InconsistentBranchError,
    InconsistentCriteriaError,
    IngestionError,
    InvalidParameterError,
    InvalidSplitError,
    SchemaError,
    SelectionError,
    TreeConstructionError,
)
from .metrics import (
    ForceDeflectionCurve,
    IntrusionHistories,
    ResponseRecord,
    avgstiff,
    peak_force,
    peak_intrusion,
    sea,
    total_mass,
)
from .morph import ControlPointSet, MorphMap, apply_morph, fit_morph, tps_kernel
from .pipeline import recombine, run_component, run_demo
from .rules import (
    Branch,
    BranchScore,
    PipelineConfig,
    Rule,
    branch_ctt,
    branch_to_rule,
    enumerate_branches,
    rules_payload,
    score_branches,
    screen_designs,
    select_branch,
)
from .surrogate import (
    ComponentSpec,
    SurrogateSpec,
    load_surrogate,
    surrogate_curve,
    surrogate_histories,
    surrogate_respond,
)
from .tree import (
    UncertainTree,
    SplitCandidate,
    TreeConfig,
    best_split,
    build_tree,
    classify,
    classify_batch,
    entropy,
    gain_ratio,
    gen_split_candidates,
    k_fold_cv,
    load_tree,
    route,
    save_tree,
    split_entropy,
    split_info,
    test_accuracy,
    training_accuracy,
)
from .uncertain import (
    Dataset,
    LabelCriteria,
    TruncatedGaussianMarginal,
    UncertainTuple,
    apply_labels,
    dataset_from_design,
    dataset_mass,
    fresh_tuple,
    interval_marginal,
    label_probability,
    load_criteria,
    load_dataset,
    make_marginal,
    mass_on,
    partition_tuple,
)
