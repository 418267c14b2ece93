"""Exception types shared across the toolkit.

Model validation reports problems as issue lists (see scm.ValidationResult)
using the same code names as the exception classes here; operations that
cannot return partial results raise instead.
"""

from __future__ import annotations


class CfairError(Exception):
    """Base class for all toolkit errors."""


class ModelValidationError(CfairError):
    """Raised when an operation requires a valid model and validation failed.

    Carries the list of ValidationIssue objects produced by validate_model.
    """

    def __init__(self, issues):
        self.issues = list(issues)
        lines = "; ".join(f"{i.code}: {i.message}" for i in self.issues)
        super().__init__(f"invalid model: {lines}")


class UnknownVariable(CfairError):
    """A name does not refer to a variable of the model."""


class InterveneOnBackground(CfairError):
    """Interventions may only target non-background variables."""


class EvidenceOnBackground(CfairError):
    """Evidence may only reference protected/observed/outcome variables."""


class UnattainableValue(CfairError):
    """A supplied value lies outside the variable's declared domain."""


class NotLinearGaussian(CfairError):
    """Exact abduction needs linear-Gaussian structure on every relevant path."""


class SingularConditioning(CfairError):
    """Evidence is jointly impossible under the model's deterministic structure."""


class ZeroPosteriorMass(CfairError):
    """No background configuration is consistent with the evidence."""


class NonFiniteDensity(CfairError):
    """The posterior log-density cannot be evaluated finitely anywhere reachable."""


class DimensionMismatch(CfairError):
    """Array shapes disagree with the declared design."""


class DegenerateScale(CfairError):
    """A fitted scale parameter collapsed below the allowed floor."""


class EmptyInputs(CfairError):
    """A manifest or design selects no input columns."""


class InvalidPath(CfairError):
    """A path does not follow directed edges from a protected variable."""


class EmptyGroup(CfairError):
    """A group selector matches no records."""


class ConstraintNotInvertible(CfairError):
    """A prediction-value constraint cannot be turned into evidence on the backgrounds."""


class UnsupportedScenario(CfairError):
    """The requested scenario kind or option is not available."""


class SeparationDetected(UserWarning):
    """Logistic fitting drifted toward perfect separation (|weight| > 30)."""
