"""Solitary waves of the fractional Schrodinger equation with a
point-concentrated nonlinearity: moment integrals, explicit profiles,
Pohozaev identities, spectral stability classification, a mollified
variational solver, and a split-step simulator."""

__version__ = "0.1.0"

from .moments import PhysParams, sobolev_constant  # noqa: F401

# each command imports only the layers it runs, so the names of `spectrum`
# and `waves` load on first access (PEP 562)
_LAZY = {"classify": "spectrum", "SpectralReport": "spectrum",
         "soliton_profile": "waves", "RadialProfile": "waves"}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib
    return getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
