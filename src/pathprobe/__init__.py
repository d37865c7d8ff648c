"""Single-photon two-path interferometer with weak polarization path probes.

The package simulates an interferometer in which each path carries a small
opposite polarization rotation, so that the polarization flip rate of a
photon detected at an output port measures how the photon was distributed
over the two paths.  It provides

* ``qstate``         validated density operators and projectors for the
                     2x2 post-selected path formulas
* ``optics``         parameter specs and sign conventions of the elements
* ``interferometer`` the vectorised amplitude engine: exact probabilities,
                     phase sweeps, analyzer scans, conditional flip rates
* ``montecarlo``     Poisson photon counting with background subtraction
* ``analysis``       fringe/analyzer-curve fits and calibration extraction
* ``datasets``       CSV formats shared by the library and the CLI
* ``cli``            the ``pathprobe`` command line tool
"""

__version__ = "0.1.0"

__all__ = [
    "qstate",
    "optics",
    "interferometer",
    "montecarlo",
    "analysis",
    "datasets",
    "cli",
]
