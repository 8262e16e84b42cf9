"""Non-Hermitian Hamiltonians, hybrid Liouvillians, and exceptional points
of the driven dissipative alkali-vapor model."""

__version__ = "0.1.0"

from . import linalg, model, spectra, superop  # noqa: F401
