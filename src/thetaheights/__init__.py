"""Certified theta functions, Siegel reduction, explicit height-comparison
constants, a g=1 theta/Faltings height verifier, and the exact lattice
distance delta.

The theta evaluator itself lives at ``thetaheights.theta.theta`` (the bare
name is kept for the submodule).
"""

from .certified import (CertifiedComplex, CertifiedReal, PrecisionError,
                        Verdict, certified_le)
from .siegel import (SiegelPoint, SymplecticMatrix, ReductionResult,
                     act, fundamental_domain_report, reduce_g1,
                     reduce_heuristic)
from .theta import (CosetSet, ThetaCharacteristic, beta_sigma, coset_set,
                    theta_norm, theta_null_vector,
                    verify_duplication, verify_norm_bounds)
from .heights import (EllipticCurveQ, HeightReport, PeriodLattice,
                      faltings_height_g1, load_corpus, matrix_lemma_check,
                      periods_agm, point_bound_rhs, window_check)
from .lattices import (IntegerLattice, delta, delta_exact, intersect,
                       lattice_sum, quotient_card, scaling_invariance_check)
from .campaign import CampaignConfig, CampaignReport, replay, run_campaign

# submodules last, so the package attributes keep pointing at the modules
from . import (campaign, certified, constants, exactla, heights, lattices,
               sampling, siegel, theta)

__version__ = "0.1.0"
