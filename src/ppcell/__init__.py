"""Coverage and ergodic-rate analytics for Poisson cellular downlinks.

The library evaluates the interference MGF of a nearest-BS Poisson downlink
(exact and piecewise-approximate forms), turns it into coverage probability
and ergodic rate (fully loaded and idle-mode-thinned), and ships a Monte
Carlo simulator that every analytical expression is validated against.

All internal quantities are linear (no dB) and rates are in nats/s/Hz.
The MGF function itself is ppcell.mgf.mgf; it is not re-exported here,
where its name would shadow the ppcell.mgf module.
"""

from .mgf import (
    NetworkParams,
    NonConvergenceError,
    solve_c,
)
from .analytics import (
    LoadModel,
    RateMethod,
    RateResult,
    load_model,
    pathloss_cdf,
    pcov,
    pcov_general,
    rate_actual,
    rate_closed_general,
    rate_quadrature,
)
from .simulator import (
    Deployment,
    SimConfig,
    SirSampleSet,
    apply_idle_mode,
    estimate_coverage,
    estimate_rates,
    inactive_fraction_interior,
    run_simulation,
    sample_deployment,
    sample_sir,
)

__version__ = "0.1.0"
