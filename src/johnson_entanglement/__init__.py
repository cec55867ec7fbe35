"""Entanglement entropy of free fermions on Johnson graphs J(n, k).

Three mutually verifying routes compute the spectrum of the chopped
correlation matrix of a neighborhood bundle in the hopping ground state:

* a dense oracle (explicit eigenprojectors, small graphs only),
* the irreducible-module decomposition with Clebsch-Gordan built blocks,
* a commuting tridiagonal operator whose eigenvectors read the spectrum out.

See the ``je`` command-line tool for energy tables, entropy runs, figure
sweeps and the verification battery.
"""

from .entropy import EntropyReport, report, von_neumann
from .heun import HeunSpec, build_T, heun_spec, spectra_via_heun, spectrum_via_heun
from .scheme import CapacityError, GraphSpec, Vertex, default_base_vertex
from .spectral import (
    CorrelationSpectrum,
    EnergyTable,
    FillingSpec,
    HoppingProfile,
    SubsystemSpec,
    chopped_correlation_oracle,
    energy_exponential,
    energy_table,
    fill_ground_state,
    level_degeneracy,
    spectrum_oracle,
)
from .specfn import clebsch_gordan
from .terwilliger import ModuleLabel, assemble_spectra, assemble_spectrum, enumerate_modules

__version__ = "0.1.0"

__all__ = [
    "CapacityError",
    "CorrelationSpectrum",
    "EnergyTable",
    "EntropyReport",
    "FillingSpec",
    "GraphSpec",
    "HeunSpec",
    "HoppingProfile",
    "ModuleLabel",
    "SubsystemSpec",
    "Vertex",
    "assemble_spectra",
    "assemble_spectrum",
    "build_T",
    "chopped_correlation_oracle",
    "clebsch_gordan",
    "default_base_vertex",
    "energy_exponential",
    "energy_table",
    "enumerate_modules",
    "fill_ground_state",
    "heun_spec",
    "level_degeneracy",
    "report",
    "spectra_via_heun",
    "spectrum_oracle",
    "spectrum_via_heun",
    "von_neumann",
]
