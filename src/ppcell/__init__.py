"""Coverage and ergodic-rate analytics for Poisson cellular downlinks.

The library evaluates the interference MGF of a nearest-BS Poisson downlink
(exact and piecewise-approximate forms), turns it into coverage probability
and ergodic rate (fully loaded and idle-mode-thinned), and ships a Monte
Carlo simulator that every analytical expression is validated against.

All internal quantities are linear (no dB) and rates are in nats/s/Hz.
The MGF function itself is ppcell.mgf.mgf; it is not re-exported here,
where its name would shadow the ppcell.mgf module.

`import ppcell` loads mgf and analytics only. The simulator's exports are
served on first access (PEP 562), so an analytic caller never pays for
the simulator's import or for numpy.random.
"""

from .mgf import NetworkParams, NonConvergenceError, SimConfig, solve_c
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

# served by __getattr__ from ppcell.simulator
_SIMULATOR_EXPORTS = ("SirSampleSet", "estimate_coverage", "estimate_rates", "run_simulation")

__all__ = [
    "NetworkParams", "NonConvergenceError", "SimConfig", "solve_c",
    "LoadModel", "RateMethod", "RateResult", "load_model", "pathloss_cdf", "pcov", "pcov_general",
    "rate_actual", "rate_closed_general", "rate_quadrature",
    *_SIMULATOR_EXPORTS,
]

__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _SIMULATOR_EXPORTS:
        from . import simulator

        return getattr(simulator, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
