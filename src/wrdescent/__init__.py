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
    RateCertificate,
    MarginReport,
    rate_bound,
    certify_run,
    check_adaptive_ratio_bound,
    check_step_length_bound_trace,
    check_epoch_descent_tight_trace,
    check_epoch_descent_trace,
    check_descent_decomposition_trace,
    check_summability_ada,
)
from .config import ConfigError, ExperimentConfig, RunConfig, load_config, save_config
from .engine import (
    NonFiniteError,
    ReplayReport,
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
    logistic_problem,
    make_problem,
    median_problem,
    problem_from_dict,
    problem_to_dict,
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
    Constant,
    DecreasingCbrtWithL,
    DecreasingSqrt,
    LexReport,
    check_lex_monotone,
    epoch_anchor,
    step_value,
)

__version__ = "0.1.0"
