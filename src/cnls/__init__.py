"""Solitary waves of the fractional Schrodinger equation with a
point-concentrated nonlinearity: moment integrals, explicit profiles,
Pohozaev identities, spectral stability classification, a mollified
variational solver, and a split-step simulator."""

__version__ = "0.1.0"

from .moments import PhysParams  # noqa: F401
from .waves import RadialProfile, soliton_profile, sobolev_constant  # noqa: F401
from .spectrum import SpectralReport, classify  # noqa: F401
