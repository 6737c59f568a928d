"""Fair mixing under dichotomous preferences.

A library and command-line tool for probabilistic/fractional collective
choice with approval ballots: five mixing rules (utilitarian, egalitarian,
random priority, conditional utilitarian, Nash max product), executable
checkers for their fairness and incentive properties, worst-case instance
families, and impartial-culture experiments.
"""

from .core import (
    AxiomVerdict,
    Mixture,
    Problem,
    UtilityProfile,
    epsilon_inefficiency,
    format_mixture,
    format_problem,
    is_efficient,
    parse_mixture,
    parse_problem,
    undominated_outcomes,
    utilities,
)
from .rules import (
    CUT,
    EGAL,
    HRULE,
    NMP,
    RP,
    UTIL,
    NmpSolution,
    RuleId,
    cut_rule,
    egal_rule,
    evaluate,
    h_rule,
    kkt_residual,
    nmp_rule,
    rp_exact,
    sigma_priority,
    util_rule,
)

__version__ = "0.1.0"
