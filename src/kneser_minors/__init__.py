"""Complete-minor and proper-coloring certificates for complements of Kneser
graphs, built constructively and verified independently."""

from .baranyai import (
    AlmostRegularPartition,
    CoveredPartition,
    PartitionPlan,
    almost_regular_partition,
    partition_A,
    partition_C,
)
from .chromatic import ColoringCertificate, build_coloring, chi, chi_of
from .core import Params, binomial, kset_labels, kset_mask, kset_text, params_grid
from .errors import (
    ConstructionError,
    KneserMinorError,
    OutOfScopeError,
    ParameterError,
    ResourceCapError,
)
from .minors import CaseTag, MinorCertificate, TraceEntry, build_minor, replay_trace
from .verify import CheckResult, VerificationReport, verify_coloring, verify_minor, verify_partition

__version__ = "0.1.0"

__all__ = [
    "AlmostRegularPartition",
    "CaseTag",
    "CheckResult",
    "ColoringCertificate",
    "ConstructionError",
    "CoveredPartition",
    "KneserMinorError",
    "MinorCertificate",
    "OutOfScopeError",
    "ParameterError",
    "Params",
    "PartitionPlan",
    "ResourceCapError",
    "TraceEntry",
    "VerificationReport",
    "almost_regular_partition",
    "binomial",
    "build_coloring",
    "build_minor",
    "chi",
    "chi_of",
    "kset_labels",
    "kset_mask",
    "kset_text",
    "params_grid",
    "partition_A",
    "partition_C",
    "replay_trace",
    "verify_coloring",
    "verify_minor",
    "verify_partition",
]
