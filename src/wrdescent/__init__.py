"""Without-replacement (incremental) finite-sum descent with certification.

The package runs the epoch-based descent recursion

    z_{K,0} = x_K
    z_{K,i} = z_{K,i-1} - alpha_{K,i} d_{pi_K(i)}(zhat_{K,i-1}),  i = 1..n
    x_{K+1} = z_{K,n}

where each evaluation point zhat lies in the convex hull of the epoch's
earlier iterates (covering batch gradient, incremental, mini-batch, delayed
and mixed schemes), with prescribed or adaptive cube-root step sizes, and
certifies on the recorded trace every step-length bound, per-epoch descent
inequality, rate bound and continuous-time shadowing diagnostic the scheme
satisfies.

Index conventions: epochs K are 0-based, inner steps i are 1-based,
component indices are 0-based.
"""

from .analysis import (
    BoundReport,
    RateCertificate,
    MarginReport,
    rate_bound,
    certify_run,
    check_adaptive_ratio_bound,
    check_step_length_bound,
    check_step_length_bound_trace,
    check_epoch_descent,
    check_epoch_descent_tight,
    check_epoch_descent_tight_trace,
    check_epoch_descent_trace,
    check_descent_decomposition,
    check_summability_ada,
    lemma_log_sum_check,
    lemma_norm_sum_check,
    lipschitz_gradient_check,
    matching_rate_rules,
)
from .config import ConfigError, ExperimentConfig, load_config, save_config
from .engine import (
    EpochRecord,
    NonFiniteError,
    ReplayReport,
    RunConfig,
    RunTrace,
    load_trace,
    replay,
    run,
    run_epoch,
    save_trace,
    write_summary_csv,
)
from .flows import (
    CriticalityReport,
    GammaTrace,
    Interpolant,
    apt_deviation,
    criticality_measure,
    flow_direction,
    gamma_trace,
    integrate_flow,
    interpolant,
    min_norm_point,
)
from .problems import (
    ComponentOracle,
    FiniteSumProblem,
    UnsupportedProblem,
    aggregate_constants,
    finite_diff_check,
    logistic_problem,
    make_problem,
    median_problem,
    problem_from_dict,
    problem_from_json,
    problem_to_dict,
    problem_to_json,
    relu_net_problem,
    sigmoid_problem,
)
from .schedules import (
    AdversarialMaxNorm,
    ConvexMix,
    DelayedAsync,
    FixedPermutation,
    FullGradient,
    Identity,
    Incremental,
    MiniBatch,
    ShuffledPerEpoch,
    counter_rng,
    eval_point,
    eval_support,
    hull_point,
    permutation,
)
from .steps import (
    Adaptive,
    AsymptoticReport,
    Constant,
    DecreasingCbrtWithL,
    DecreasingSqrt,
    LexReport,
    StepState,
    check_asymptotic_conditions,
    check_lex_monotone,
    epoch_anchor,
    new_state,
    step_value,
)

__version__ = "0.1.0"
