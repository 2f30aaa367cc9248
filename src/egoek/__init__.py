"""Embedded Gaussian orthogonal ensembles with k-body interactions.

Generates fermionic and bosonic k-body embedded ensembles, fits the smooth
eigenvalue density as a q-normal shape with polynomial corrections, and
quantifies the separation of spectral averages from GOE-type fluctuations.
"""

from .fock import Statistics, basis_rank, dimension, enumerate_basis
from .ensemble import (
    EnsembleSpec,
    MemberMatrix,
    build_member,
    embed,
    member_seed,
    sample_kbody,
    spectral_variance,
)
from .spectra import Spectrum, SpectralMoments, eigenvalues, moments
from .qhermite import (
    fqn_density,
    hermite_table,
    qfactorial,
    qnumber,
    support_halfwidth,
)
from .decomposition import (
    SmoothModel,
    decompose_member,
    fit_smooth_model,
    goe_delta_rms,
    staircase,
)
from .analytic import ensemble_q, mode_width_curve, motion_variance, sn2
from .fluctuations import (
    Delta3Curve,
    SpacingHistogram,
    delta3,
    goe_delta3_exact,
    nnsd,
    poisson_delta3,
    unfold,
    unfolding_order,
)
from .periodogram import PeriodogramResult, lomb_scargle
from .archive import SpectrumArchive, read_archive, write_archive
from .config import RunConfig

__version__ = "0.1.0"

__all__ = [
    "Delta3Curve",
    "EnsembleSpec",
    "MemberMatrix",
    "PeriodogramResult",
    "RunConfig",
    "SpacingHistogram",
    "SpectralMoments",
    "Spectrum",
    "SpectrumArchive",
    "SmoothModel",
    "Statistics",
    "basis_rank",
    "build_member",
    "decompose_member",
    "delta3",
    "dimension",
    "embed",
    "eigenvalues",
    "ensemble_q",
    "enumerate_basis",
    "fit_smooth_model",
    "fqn_density",
    "goe_delta3_exact",
    "goe_delta_rms",
    "hermite_table",
    "lomb_scargle",
    "member_seed",
    "mode_width_curve",
    "moments",
    "motion_variance",
    "nnsd",
    "poisson_delta3",
    "qfactorial",
    "qnumber",
    "read_archive",
    "sample_kbody",
    "sn2",
    "spectral_variance",
    "staircase",
    "support_halfwidth",
    "unfold",
    "unfolding_order",
    "write_archive",
]
