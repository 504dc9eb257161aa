"""gaplab: spectral gaps of conservative binary-collision dynamics.

Exact diagonalization for integer models, polynomial-sector eigenvalues for
the continuous ones, event-driven simulation as an independent estimate, and
a certified calculus comparing complete-graph and lattice gaps.
"""

from .models import (ConservationLaw, GammaExchangeSpec, InteractionGraph,
                     ModelSpec, RateFunction, RhoSpec, build_graph,
                     model_from_id, G_CONSTANT_ONE, G_IDENTITY)
from .discrete import (GeneratorMatrix, KernelMatrix, Measure, StateSet,
                       build_simple_average_generator, build_zero_range_generator,
                       enumerate_states, exact_gap, kernel_matrix,
                       kernel_spectrum_extremes, spectral_gap, stationary_weights,
                       two_site_spectrum)
from .galerkin import (GalerkinPair, assemble_galerkin, galerkin_eigensystem,
                       k_operator_check, pair_average_action, rho_pair_action,
                       rho_trig_moment, two_site_fourier_gap)
from .bounds import (BoundChain, CanonicalPath, CertificateRefused, canonical_path,
                     caputo_bound, certificate, lemma_audit,
                     local_gap_lower_bound, path_census, sandwich)
from .simulate import (EstimatorResult, autocorr_gap_estimate, initial_config,
                       rayleigh_upper_bound)

__version__ = "0.1.0"
