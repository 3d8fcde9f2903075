"""Flexible per-trial false positive control with global ENFP budgets.

A numpy library for populations of confirmatory trials: estimate
the effect-size prior from historical Z statistics by semi-parametric
deconvolution, compute posterior h-probabilities, form frequentist and
Bayesian upper bounds on the expected number of false positives, track
spend against a budget in a persistent ledger, and validate everything
against a ground-truth Monte Carlo oracle.  The ``enfp`` console script
exposes the same capabilities as subcommands.
"""

from enfp.trials import (
    CannotClassifyError,
    DomainError,
    EfficacyMeasure,
    FailureRegionType,
    InvalidScaleError,
    RejectionPolicy,
    TrialRecord,
    classify_rejection,
    p_to_z,
    standardize,
    z_to_p,
)
from enfp.deconv import (
    BootstrapResult,
    FitConfig,
    ObservationSet,
    PriorModel,
    bootstrap,
    fit_g,
    fit_g_path,
    log_likelihood,
    rho_from_g,
)
from enfp.hcurve import (
    HCurve,
    HRangeError,
    h_curve,
    h_probability,
    h_values,
    render_svg,
    z_for_h,
)
from enfp.freq_bounds import (
    FreqBoundInput,
    TrialSpec,
    capacity,
    delta,
    tau_hat_mixed,
    tau_hat_single,
    tau_hat_stratified,
)
from enfp.bayes_bounds import (
    PositiveTrialResult,
    omega_hat,
    omega_hat_stratified,
    positive_result,
    recompute_result,
    trial_contribution,
)
from enfp.ledger import (
    Ledger,
    LedgerCorruptError,
    LedgerError,
    OutcomeRecord,
    ProposeDecision,
    StratumSpec,
)
from enfp.records_io import (
    RecordParseError,
    extract_observations,
    load_records,
    record_from_dict,
    record_to_dict,
    records_from_csv,
    records_from_json,
    records_to_csv,
    records_to_json,
    save_records,
    synthesize_corpus,
)
from enfp.simulate import (
    PolicySpec,
    PopulationDraw,
    ScenarioConfig,
    SimulationReport,
    check_concordance,
    oracle_count_fp,
    simulate_population,
    validate_bounds,
)

__version__ = "0.1.0"

__all__ = [
    # trials
    "EfficacyMeasure",
    "FailureRegionType",
    "RejectionPolicy",
    "TrialRecord",
    "standardize",
    "p_to_z",
    "z_to_p",
    "classify_rejection",
    "InvalidScaleError",
    "DomainError",
    "CannotClassifyError",
    # deconvolution
    "ObservationSet",
    "PriorModel",
    "FitConfig",
    "fit_g",
    "fit_g_path",
    "rho_from_g",
    "log_likelihood",
    "bootstrap",
    "BootstrapResult",
    # h-probabilities
    "HCurve",
    "HRangeError",
    "h_probability",
    "h_values",
    "h_curve",
    "z_for_h",
    "render_svg",
    # frequentist bounds
    "TrialSpec",
    "FreqBoundInput",
    "delta",
    "tau_hat_single",
    "tau_hat_mixed",
    "tau_hat_stratified",
    "capacity",
    # Bayesian bounds
    "PositiveTrialResult",
    "positive_result",
    "recompute_result",
    "trial_contribution",
    "omega_hat",
    "omega_hat_stratified",
    # ledger
    "Ledger",
    "LedgerError",
    "LedgerCorruptError",
    "StratumSpec",
    "ProposeDecision",
    "OutcomeRecord",
    # records I/O
    "RecordParseError",
    "load_records",
    "save_records",
    "records_to_csv",
    "records_from_csv",
    "records_to_json",
    "records_from_json",
    "record_to_dict",
    "record_from_dict",
    "extract_observations",
    "synthesize_corpus",
    # simulation oracle
    "ScenarioConfig",
    "PolicySpec",
    "PopulationDraw",
    "SimulationReport",
    "simulate_population",
    "oracle_count_fp",
    "check_concordance",
    "validate_bounds",
    "__version__",
]
