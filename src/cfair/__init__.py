"""Counterfactual fairness toolkit.

Structural causal models over named variables, three-step counterfactual
inference (abduction, action, prediction), latent-aware fair predictor
training, and audit criteria, plus synthetic scenarios with closed-form
oracles and a batch CLI.
"""

from .counterfactual import (GaussianPosterior, McmcConfig, PosteriorDraws,
                             abduct_exact, abduct_mcmc, abduct_records,
                             counterfactual_sample, exact_available,
                             exogenous_draws, posterior_draw_matrix,
                             validate_evidence)
from .dataset import Dataset
from .errors import (CfairError, ConstraintNotInvertible, DegenerateScale,
                     DimensionMismatch, EmptyGroup, EmptyInputs,
                     EvidenceOnBackground, InterveneOnBackground, InvalidPath,
                     ModelValidationError, NoAcceptedSamples, NonFiniteDensity,
                     NotLinearGaussian, SeparationDetected,
                     SingularConditioning, UnattainableValue, UnknownVariable,
                     UnsupportedScenario, ZeroPosteriorMass)
from .estimators import (DesignMatrix, LatentModelFit, LinearFit,
                         design_matrix, fit_level2_latent, level3_residuals,
                         logistic_fit, ols_fit, poisson_fit)
from .learning import (FairPredictor, InputManifest, additive_fair_fit,
                       baseline_fit, fair_learning, fair_predict,
                       level1_inputs, load_predictor, save_predictor)
from .metrics import (FairnessReport, ace, cf_fairness_test, ftu_check,
                      group_gaps, ks_2sample, path_cf_test, prob_sufficiency,
                      strict_cf_check)
from .scenarios import (SCENARIO_KINDS, OracleBundle, ScenarioParams,
                        build_model, generate, oracle)
from .scm import (BernoulliLogit, CategoricalPrior, CausalModel,
                  DeterministicTable, LinearGaussian, NormalPrior,
                  PoissonLogLink, Role, StructuralEquation, ValidationIssue,
                  ValidationResult, Variable, ancestral_sample, descendants,
                  forward_eval, intervene, load_model, model_from_json,
                  model_to_json, non_descendants, save_model,
                  validate_model)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
