"""Embedded Gaussian orthogonal ensembles with k-body interactions.

Generates fermionic and bosonic k-body embedded ensembles, fits the smooth
eigenvalue density as a q-normal shape with polynomial corrections, and
quantifies the separation of spectral averages from GOE-type fluctuations.
"""

from .fock import (
    KConfig,
    OccupationConfig,
    Statistics,
    dim_boson,
    dim_fermion,
    enumerate_basis,
    enumerate_kconfigs,
    kbme_count,
    transition_amplitude,
)
from .ensemble import (
    EmbeddedHamiltonian,
    EnsembleSpec,
    KBodyMatrix,
    build_member,
    embed,
    member_seed,
    sample_kbody,
    spectral_variance,
)
from .spectra import Spectrum, SpectralMoments, eigenvalues, moments, standardize
from .qhermite import (
    fqn_cdf,
    fqn_density,
    hermite_q,
    qfactorial,
    qnumber,
    support_halfwidth,
)
from .decomposition import (
    LevelMotionSeries,
    SmoothModel,
    decompose_member,
    fit_smooth_model,
    goe_delta_rms,
    level_motion,
    smooth_F,
    staircase,
)
from .analytic import (
    ModeWidthCurve,
    mode_width_curve,
    motion_variance_boson,
    motion_variance_fermion,
    preset_q,
    sn2_boson,
    sn2_fermion,
)
from .fluctuations import (
    Delta3Curve,
    SpacingHistogram,
    UnfoldedSpectrum,
    delta3,
    goe_delta3_exact,
    nnsd,
    poisson_delta3,
    unfold,
    unfolding_order,
)
from .periodogram import PeriodogramResult, lomb_scargle, separation_report
from .archive import SpectrumArchive, read_archive, write_archive
from .config import RunConfig, load_config

__version__ = "0.1.0"

__all__ = [
    "Delta3Curve",
    "EmbeddedHamiltonian",
    "EnsembleSpec",
    "KBodyMatrix",
    "KConfig",
    "LevelMotionSeries",
    "ModeWidthCurve",
    "OccupationConfig",
    "PeriodogramResult",
    "RunConfig",
    "SpacingHistogram",
    "SpectralMoments",
    "Spectrum",
    "SpectrumArchive",
    "SmoothModel",
    "Statistics",
    "UnfoldedSpectrum",
    "build_member",
    "decompose_member",
    "delta3",
    "dim_boson",
    "dim_fermion",
    "embed",
    "eigenvalues",
    "enumerate_basis",
    "enumerate_kconfigs",
    "fit_smooth_model",
    "fqn_cdf",
    "fqn_density",
    "goe_delta3_exact",
    "goe_delta_rms",
    "hermite_q",
    "kbme_count",
    "level_motion",
    "load_config",
    "lomb_scargle",
    "member_seed",
    "mode_width_curve",
    "moments",
    "motion_variance_boson",
    "motion_variance_fermion",
    "nnsd",
    "poisson_delta3",
    "preset_q",
    "qfactorial",
    "qnumber",
    "read_archive",
    "sample_kbody",
    "separation_report",
    "smooth_F",
    "sn2_boson",
    "sn2_fermion",
    "spectral_variance",
    "staircase",
    "standardize",
    "support_halfwidth",
    "transition_amplitude",
    "unfold",
    "unfolding_order",
    "write_archive",
]
