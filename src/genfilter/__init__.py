"""Genealogy likelihoods for partially observed population processes.

The package simulates continuous-time integer-lattice population models
whose birth, death, and sampling events carry through to an individual-level
genealogy, reduces that genealogy to the part visible from the samples, and
computes its likelihood four ways: two closed-form routes on a fully
observed trajectory, a deterministic truncated-grid recursion, and a
particle filter that scales past what the grid can hold.
"""

from .exact import (ExactError, event_factor, hidden_birth_factor, loglik_events,
                    loglik_lineages, q_factor)
from .filtering import (Ensemble, EventDiagnostics, FilterConfig,
                        FilterDiagnostics, FilterError, ReplicateResult,
                        SMCResult, WeightGrid, boundary_flux, event_schedule,
                        event_update, init_ensemble, oracle_loglik,
                        propagate_interval, replicate_loglik, smc_loglik)
from .genealogy import (Ball, Genealogy, GenealogyError, Inventory,
                        LineageFunction, LineageRecord, NewickError, Node,
                        apply_birth, apply_death, apply_sample, build_genealogy,
                        embedded_chain, fold_inventory, from_newick,
                        genealogy_from_json, genealogy_to_json, inventory_of,
                        new_genealogy, prune, read_genealogy, to_newick,
                        validate_genealogy, write_genealogy)
from .models import (MODELS, TRUNCATIONS, LBDPParams, PiecewiseConstant,
                     S2IRParams, SIRParams, SIRSParams, build_model, lbdp_spec,
                     lbdp_truncation, model_params, s2ir_spec, s2ir_truncation,
                     sir_spec, sir_truncation, sirs_spec, sirs_truncation)
from .population import (EventType, History, IntegrationError, Jump,
                         JumpSequence, ModelSpec, SimulationError, StateLattice,
                         forward_generator, history_log_density, integrate_linear,
                         jump_log_density, kfe_integrate, read_trajectory,
                         simulate, state_at, to_history, write_trajectory)

__version__ = "0.1.0"
