"""Finite categories, twisted products of category-valued diagrams, clubs,
operads, and truncated simplicial sets, with exhaustive law checking."""

from .config import Guardrails, SCHEMA_VERSION
from .errors import ClubcatError, GuardrailExceeded, InputError, SchemaError
from .fincat import (FinCategory, Functor, compose_functors,
                     enumerate_functors, enumerate_nat_trans,
                     find_isomorphism, validate_category)
from .diagram import (DiagramInCat, DiagramMorphism, compose_diagram_morphisms,
                      constantify, unit_diagram, validate_diagram)
from .semidirect import (ClubStructure, Products, associator, club_check,
                         fiber_semidirect, semidirect_on_morphisms, unitors)
from .simpset import (MonotoneMap, NormalForm, SimplicialMap, SimplicialSet,
                      apply_operator, boundary, disjoint_union, ez_factor,
                      horn, is_injective, is_kan_fibration, iso_sset,
                      one_point, product, simplex_category, standard_simplex)
from .sset_club import (ClubMorphismSSet, ClubObjectFamily, SimplexFamily,
                        associativity_check, compose, compose_morphism,
                        delta_naturality_check, unit_law_point_base,
                        unit_law_point_values)
from .operads import (Collection, NsOperad, SymOperad, circ, club_to_operad,
                      encode_ns, encode_sym, ns_iso_check, operad_to_club,
                      sym_inclusion, sym_operad_to_club)
from .algebra import (AlgebraMorphism, AlgebraObject, act_category,
                      algebra_associativity_check, colimit_act, i_points,
                      i_points_sset, induced_map, is_fibration,
                      sset_stability_check, two_stage_colimit_check)
from .suites import run_suite

__version__ = "0.1.0"
