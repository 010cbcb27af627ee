"""State estimation for two-subsystem interconnected linear systems.

Each subsystem measures its own state in real time; the measurement it
shares with the other subsystem arrives late with some probability and is
then discarded.  The package provides the trace-optimal estimator under
that asymmetric information pattern, the boundedness analysis of the
expected error covariance, Monte-Carlo experiment drivers, and a
config-driven CLI (``netkalman``).
"""

from .model import (
    BlockDims,
    DelayModel,
    DelayOutcome,
    SystemModel,
    ValidationReport,
    fixture,
    validate_model,
)
from .gains import (
    GainSet,
    InnovationBlocks,
    StructuredMask,
    gain_set,
    innovation_blocks,
    mask_for_outcome,
    mask_pattern,
    optimal_gain,
    oracle_structured_gain,
    posterior_cov,
)
from .filtering import (
    EstimatorState,
    TrajectoryRecord,
    covariance_step,
    delay_indicators,
    initial_state,
    make_rng,
    predict,
    predict_cov,
    run_filter,
    simulate_plant,
    stream_seed,
    subsystem_updates,
    update,
)
from .analysis import (
    BoundednessReport,
    CovBoundSequence,
    CriticalBounds,
    EmpiricalCritical,
    InapplicableError,
    NormMinima,
    boundedness_test,
    cov_bound_sequence,
    critical_bounds,
    divergence_witness,
    empirical_critical,
    expected_next_cov,
    kron_update_radius,
    masked_norm_minima,
    min_structured_norm,
    one_step_cov,
    residual_gram_floor,
)
from .montecarlo import EecEstimate, SweepResult, estimate_eec, kalman_baseline, sweep
from .config import ConfigError, RunConfig, dump_normalized, parse_config

__version__ = "0.1.0"
