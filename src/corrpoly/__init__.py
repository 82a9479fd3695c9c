"""Correlation polytopes: exact hull/vertex enumeration and violation scans.

Build the 0/1 truth-table vertices of an n-particle, m-setting experiment,
convert between generator and constraint descriptions with an exact
incremental kernel, and test quantum probability models against the
resulting inequalities.
"""

from .core import (
    CapacityError,
    Configuration,
    CorrPolyError,
    EventLabel,
    ParseError,
    ProbabilityVector,
    enumerate_events,
    event_count,
)
from .inequalities import Inequality, from_hrep, parse_text, to_text
from .io import read_ext, read_ine, render_svg, write_ext, write_ine
from .polyhedra import (
    DDPair,
    FacetReport,
    HRepresentation,
    contains,
    enumerate_vertices,
    hull,
    verify_facet,
)
from .quantum import (
    AngleAssignment,
    AngleExpression,
    CurveSamples,
    GridSamples,
    ProbabilityModel,
    ViolationReport,
    builtin_model,
    parse_angles,
    probability_vector,
    sample_violation_curve,
    sample_violation_grid,
    scan_probability_vector,
    scan_violations,
)
from .vertices import VRepresentation, truth_table, vertex_for_assignment

__version__ = "0.1.0"

__all__ = [
    "AngleAssignment",
    "AngleExpression",
    "CapacityError",
    "Configuration",
    "CorrPolyError",
    "CurveSamples",
    "DDPair",
    "EventLabel",
    "FacetReport",
    "GridSamples",
    "HRepresentation",
    "Inequality",
    "ParseError",
    "ProbabilityModel",
    "ProbabilityVector",
    "VRepresentation",
    "ViolationReport",
    "builtin_model",
    "contains",
    "enumerate_events",
    "enumerate_vertices",
    "event_count",
    "from_hrep",
    "hull",
    "parse_angles",
    "parse_text",
    "probability_vector",
    "read_ext",
    "read_ine",
    "render_svg",
    "sample_violation_curve",
    "sample_violation_grid",
    "scan_probability_vector",
    "scan_violations",
    "to_text",
    "truth_table",
    "verify_facet",
    "vertex_for_assignment",
    "write_ext",
    "write_ine",
]
