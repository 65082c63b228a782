"""Pilot power allocation for multi-surface reflected links.

The toolkit models a downlink where the direct path is blocked and all
energy arrives through reconfigurable reflecting surfaces. Training is
one uplink slot per element; the resulting LS estimation errors damp
the achievable coherent combining gain. The package provides the
closed-form ergodic gain, closed-form and numeric pilot power
allocators that maximize it under a total training energy budget, and
a reproducible Monte Carlo harness that validates the closed forms.
"""

from .scenario import (
    Link,
    dbm_to_watts,
    watts_to_dbm,
    path_loss,
    cascaded_large_scale,
)
from .channel import (block_states, link_scales, normal_states, polar_normals, sample_channels,
                      unit_normals)
from .estimation import PerRisPowers, ls_estimate, noise_scales
from .reflection import configure_phases, random_phases, composite_channel
from .analysis import (
    GainBreakdown,
    ModelAssumptionWarning,
    alignment_mean,
    ergodic_gain_closed_form,
    objective_phi,
    stationarity_residual,
)
from .allocation import (
    UniformFallbackWarning,
    NonConvergenceError,
    allocate_average,
    allocate_moderate_snr,
    allocate_large_m,
    ALLOCATOR_IDS,
    resolve_allocator,
    run_allocator,
)
from .montecarlo import (
    TrialConfig,
    GainRow,
    SweepRow,
    SweepResult,
    trial_gains,
    sweep_user,
)

__version__ = "0.1.0"
