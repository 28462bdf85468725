"""Numerical laboratory for the harmonic map heat flow on degree-one sphere
maps: geodesic icosphere meshes, discrete Dirichlet energy and tension,
conformal (Mobius) families, center-of-mass balancing, two flow schemes with
displacement certificates, and an end-to-end rigidity pipeline comparing
distance-to-conformal against excess energy."""

from .balance import BalanceResult, balance, center_functional
from .errors import (BalanceFailedError, CertificateError, DegreeUnresolvedError,
                     EnergyMonotonicityError, FileFormatError, FitFailedError,
                     InterpolationDegenerateError, ParameterDomainError,
                     PointLocationError, PreconditionError,
                     PullbackUnderresolvedError, ResourceLimitError,
                     S2FlowError, SolverError, StepDegenerateError,
                     VacuousRegimeError)
from .fields import (FOUR_PI, SphereMap, constant_map, degree, degree_estimate,
                     dirichlet_diff, energy, face_energies, identity_map,
                     l2_dist_sq, l2_norm_sq, load_map, mean, save_map, tension)
from .flow import (FlowConfig, FlowTrace, default_dt, default_stop_tension,
                   detect_concentration, flow_certificates,
                   local_energy_profile, run_flow, step, tension_floor,
                   write_trace_csv)
from .mesh import TriMesh, build_icosphere
from .mobius import (MobiusParams, conformal_factor, dilation_factor,
                     eval_mobius, eval_phi, max_pullback_radius,
                     params_from_line, params_to_line, pullback, sample)
from .rigidity import (RigidityReport, calibrated_excess, constant_sweep,
                       default_excess_limit, default_flow_config,
                       energy_deficit, fit_mobius, fit_objective,
                       sup_gradient, verify_rigidity,
                       w12_identity_check, write_sweep_csv, write_sweep_summary)
from .scenarios import ScenarioSpec, generate, standard_family

__version__ = "0.1.0"
