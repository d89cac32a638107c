"""Quality criteria for continuous-variable quantum teleportation.

The package models a teleportation link as a linearized Gaussian channel
(a joint measurement stage plus a displacement reconstruction stage),
reduces it at unity gain to a four-variance noise budget, and evaluates
the standard quality criteria: equivalent output noises, signal-transfer
coefficients, coherent-state fidelity, and the conditional-variance
entanglement criterion.  A Monte Carlo simulator re-derives every figure
of merit from samples as an independent check.
"""

from .channel import (
    ChannelConfig,
    InputState,
    MeasurementStage,
    NoiseBudget,
    ReconstructionStage,
    budget_to_channel,
    shot_noise_budget,
    to_unity_gain_budget,
    vacuum_input,
)
from .criteria import (
    CriteriaReport,
    InequalityTrace,
    VerificationSummary,
    epr_criterion,
    fidelity_mc_integrand,
    full_report,
    inequality_trace,
    run_chain_verification,
)
from .epr import (
    EprScenario,
    SweepPoint,
    SweepTable,
    closed_form,
    scenario_report,
    sweep,
    to_noise_budget,
)
from .errors import (
    ConfigError,
    CvTeleportError,
    ValidityError,
)
from .gaussian import sample
from .montecarlo import (
    Comparison,
    McReport,
    simulate_protocol,
)

__version__ = "0.1.0"

__all__ = [
    "ChannelConfig",
    "Comparison",
    "ConfigError",
    "CriteriaReport",
    "CvTeleportError",
    "EprScenario",
    "InequalityTrace",
    "InputState",
    "McReport",
    "MeasurementStage",
    "NoiseBudget",
    "ReconstructionStage",
    "SweepPoint",
    "SweepTable",
    "ValidityError",
    "VerificationSummary",
    "budget_to_channel",
    "closed_form",
    "epr_criterion",
    "fidelity_mc_integrand",
    "full_report",
    "inequality_trace",
    "run_chain_verification",
    "sample",
    "scenario_report",
    "shot_noise_budget",
    "simulate_protocol",
    "sweep",
    "to_noise_budget",
    "to_unity_gain_budget",
    "vacuum_input",
]
