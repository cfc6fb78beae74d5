"""Numerical laboratory for the 1+1d relativistic string.

Null-frame geometry kernels, admissible initial-data families, a 4th-order
method-of-lines evolver with blow-up detection, weighted energy/flux
diagnostics, discrete verification of the geometric identities behind the
energy method, and a deterministic experiment CLI (`stringlab`).
"""

from .config import ExperimentConfig, parse_config, serialize_config
from .energy import (DerivativeTower, EnergyReport, EnergyTracker, build_tower,
                     energy_orders, fit_hierarchy, monitor, stress_density, tracked_run,
                     tracked_sweep)
from .errors import (BlowupDetected, DataOutOfRange, FitOverflow, HyperbolicityLoss,
                     InsufficientHistory, ParseError, StringLabError, TimelikeViolation,
                     ValidationError)
from .evolve import (CharacteristicTracer, CharPath, FieldState, Grid1D, Refinement,
                     RunResult, blowup_study, convergence_study, exact_travelling,
                     init_state, richardson_time, run_evolution, stack_states, step,
                     trace_characteristics)
from .initialdata import (CriterionReport, DataFamily, TraceTable, check_kong_tsuji,
                          criterion_for_family, higher_order_traces)
from .nullgeom import (causal_norm, eigenvalues, metric_scalars, multiplier, null_stress,
                       side_weight, weight_a, weight_a_prime)
from .profiles import ProfileSpec, profile_antiderivative, profile_derivative

__version__ = "0.1.0"
