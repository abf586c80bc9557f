"""Exact geometry of triangle centers on the integer lattice.

Computes circumcenter, centroid, orthocenter and incenter of integer
lattice triangles in exact arithmetic, decides which lattice perimeters
are achievable when a center must itself be a lattice point, and
provides construction families, exclusion certificates, a bounded
search, and a command-line interface.
"""

from .angles import render_table, solve_pi_triples
from .centers import (
    CenterCondition,
    CenterReport,
    RationalPoint,
    center_numerators,
    center_report,
    centroid,
    circumcenter,
    lattice_centers,
    orthic_m_values,
    orthocenter,
)
from .constructions import Witness, WitnessRequest, build_witness, sheared
from .feasibility import (
    ExclusionCertificate,
    ExclusionReport,
    SideMultiset,
    exclusion_report,
    partitions,
    prop1_witness,
    prop2_witness,
)
from .incenter import IncenterReport, incenter_report, lattice_incenter
from .lattice import (
    DegenerateTriangleError,
    LatticePoint,
    LatticeTriangle,
    Parity,
    ShapeClass,
    classify_shape,
    genus,
    lattice_length,
    lattice_perimeter,
    parity,
    side_lengths,
    triangle,
    twice_area,
)
from .search import AchievabilityAtlas, SearchConfig, build_atlas, incenter_scan

__version__ = "0.1.0"

__all__ = [
    "AchievabilityAtlas",
    "CenterCondition",
    "CenterReport",
    "DegenerateTriangleError",
    "ExclusionCertificate",
    "ExclusionReport",
    "IncenterReport",
    "LatticePoint",
    "LatticeTriangle",
    "Parity",
    "RationalPoint",
    "SearchConfig",
    "ShapeClass",
    "SideMultiset",
    "Witness",
    "WitnessRequest",
    "build_atlas",
    "build_witness",
    "center_numerators",
    "center_report",
    "centroid",
    "circumcenter",
    "classify_shape",
    "exclusion_report",
    "genus",
    "incenter_report",
    "incenter_scan",
    "lattice_centers",
    "lattice_incenter",
    "lattice_length",
    "lattice_perimeter",
    "orthic_m_values",
    "orthocenter",
    "parity",
    "partitions",
    "prop1_witness",
    "prop2_witness",
    "render_table",
    "sheared",
    "side_lengths",
    "solve_pi_triples",
    "triangle",
    "twice_area",
]
