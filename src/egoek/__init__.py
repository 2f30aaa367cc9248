"""Embedded Gaussian orthogonal ensembles with k-body interactions.

Generates fermionic and bosonic k-body embedded ensembles, fits the smooth
eigenvalue density as a q-normal shape with polynomial corrections, and
quantifies the separation of spectral averages from GOE-type fluctuations.
Each public name is imported from its module, e.g. ``egoek.ensemble``.
"""

__version__ = "0.1.0"
