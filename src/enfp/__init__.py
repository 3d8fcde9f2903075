"""Flexible per-trial false positive control with global ENFP budgets.

A numpy library for populations of confirmatory trials: estimate
the effect-size prior from historical Z statistics by semi-parametric
deconvolution, compute posterior h-probabilities, form frequentist and
Bayesian upper bounds on the expected number of false positives, track
spend against a budget in a persistent ledger, and validate everything
against a ground-truth Monte Carlo oracle.  The ``enfp`` console script
exposes the same capabilities as subcommands.

The public names below load lazily (PEP 562): ``import enfp`` imports no
submodule, and the first access to a name imports the module that owns
it, so a caller pays only for the modules it uses.
"""

import importlib

__version__ = "0.1.0"

# Owning submodule -> the public names it exports, in ``__all__`` order.
_EXPORTS = {
    "trials": (
        "EfficacyMeasure", "FailureRegionType", "RejectionPolicy",
        "TrialRecord", "standardize", "p_to_z", "z_to_p",
        "classify_rejection", "InvalidScaleError", "DomainError",
        "CannotClassifyError",
    ),
    "deconv": (
        "ObservationSet", "PriorModel", "FitConfig", "fit_g", "fit_g_path",
        "rho_from_g", "log_likelihood", "bootstrap", "BootstrapResult",
    ),
    "hcurve": (
        "HCurve", "HRangeError", "h_probability", "h_values", "h_curve",
        "z_for_h", "render_svg",
    ),
    "freq_bounds": (
        "TrialSpec", "FreqBoundInput", "delta", "tau_hat_single",
        "tau_hat_mixed", "tau_hat_stratified", "capacity",
    ),
    "bayes_bounds": (
        "PositiveTrialResult", "positive_result", "trial_contribution",
        "omega_hat", "omega_hat_stratified",
    ),
    "ledger": (
        "Ledger", "LedgerError", "LedgerCorruptError", "StratumSpec",
        "ProposeDecision", "OutcomeRecord",
    ),
    "records_io": (
        "RecordParseError", "load_records", "save_records", "records_to_csv",
        "records_from_csv", "records_to_json", "records_from_json",
        "record_to_dict", "record_from_dict", "extract_observations",
        "synthesize_corpus",
    ),
    "simulate": (
        "ScenarioConfig", "PolicySpec", "PopulationDraw", "SimulationReport",
        "oracle_count_fp", "check_concordance", "validate_bounds",
    ),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_OWNER, "__version__"]


def __getattr__(name):
    module = _OWNER.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
