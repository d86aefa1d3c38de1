"""Exact tools for weighted portraits and rational maps on the projective line."""

from .portraits import (CriticalRelation, Portrait, PortraitError,
                        PortraitMorphism, PreperiodicType, automorphism_group,
                        canonical_form, critically_generated_subportrait,
                        enumerate_primitive_critical_portraits, frame, ge,
                        hom, is_complete_critical, is_critically_generated,
                        is_critically_primitive, is_subportrait, isomorphic,
                        portrait_statistics, realized_relations,
                        relation_determined, relation_holds, sp_relations)
from .projective import PointError, ProjectivePoint
from .maps import (MapError, Model, ModelFailure, RationalMap,
                   extract_portrait, pullback_model, verify_model)
from .reduction import ReductionReport, good_reduction, multiplicity_mod_p
from .moduli import (DimensionReport, ModuliError, MultiplierData,
                     NecessaryConditions, cubic_three_double_fixed_family,
                     dim_end, dim_moduli_space,
                     doubly_critical_three_cycle_surface, expected_dimension,
                     fiber_image_dims, milnor_coordinates,
                     multiplier_polynomial, nu, nu_pre, symmetric_surface_form,
                     ueda_sum, unweighted_nonempty,
                     weighted_necessary_conditions)
from .stability import (StabilityError, StabilityInstance, StabilityVerdict,
                        Subspace, cd_values, subspace_candidates, verdict)
from .search import portrait_cycles, rational_cycles, search_periodic_model

__all__ = [name for name in dir() if not name.startswith("_")]
