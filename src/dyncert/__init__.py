"""Dynamics-based quantumness certification for one-dimensional systems.

The protocol measures the sign of the position at three equally spaced
times; any classical trajectory theory obeys P3 <= 2/3 when the probing
period sits inside the model's admissible energy window, while quantum
states can exceed the bound.
"""

from .classical import (EnergyWindow, TrappingTimes, classical_score_oracle,
                        energy_window, pos, trapping_times)
from .errors import (ConvergenceError, DomainError, DyncertError,
                     EmptySliceError, EmptyWindowError, LibrationError,
                     NumericalInstabilityError, UnboundedSpectrumError,
                     UnsupportedTauError)
from .models import (ModelSystem, harmonic, infinite_well, kerr, morse,
                     pendulum)
from .phasespace import (WignerGrid, marginal_density, wigner_angular,
                         wigner_cartesian)
from .protocol import (QuantumState, ScoreResult, build_q3, max_score,
                       reference_state, scan_tau, scenario_compare,
                       score_state, truncated_slice)
from .simulate import McEstimate, run_protocol
from .spectra import SpectrumSlice, sgn_matrix, spectrum_slice

__version__ = "0.1.0"
