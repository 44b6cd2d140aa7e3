"""Identification of continuous-time nonlinear state-space models from
sampled input/output data, using truncated simulation losses over
overlapping subsections, an encoder for the subsection initial states, and
state-derivative normalization (1/tau)."""

from .data import (
    BatchSampler,
    Dataset,
    NormStats,
    SyntheticConfig,
    TruthTrace,
    fit_normalizer,
    generate_synthetic,
    load_csv,
    normalize_dataset,
    save_csv,
    valid_start_indices,
)
from .errors import (
    ConfigError,
    DegenerateDataError,
    GenerationError,
    InvalidArgumentError,
    NoSolutionError,
    NumericFaultError,
    ObservabilityError,
    ParseError,
    SubnetError,
)
from .evaluation import (
    EvalReport,
    TauNormalizationReport,
    evaluate_model,
    nrmse,
    reconstruct_oracle,
    rmse,
    smoothness_probe,
    tau_sweep,
    verify_theorem2,
)
from .model import (
    EvalTrace,
    SubnetModel,
    SubsectionResult,
    constant_psi,
    dt_step,
    encode,
    encoder_window,
    init_model,
    model_flatten,
    model_with_values,
    simulate_free_run,
    simulate_subsection,
)
from .nnmath import (
    AdamState,
    FlatParams,
    MLPParams,
    adam_init,
    adam_step,
    finite_diff_gradient,
    mlp_backward,
    mlp_forward,
    mlp_init,
)
from .ode import SolverConfig, ode_step
from .serialize import load_model, model_from_dict, model_to_dict, save_model
from .training import (
    TrainConfig,
    TrainHistory,
    full_sim_loss,
    suggest_tau,
    train,
    truncated_loss_and_grad,
)

__version__ = "0.1.0"
