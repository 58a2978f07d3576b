"""Balanced parentheses as exact-integer paths in a 4D lattice.

Reading a balanced word step by step traces a path through the points
(i, j, l, r) = (steps taken, opens minus closes, opens, closes).  This
package parses and validates words, projects their paths onto all eleven
coordinate grids and lifts them back losslessly, counts and samples words,
verifies the exact geometry of the triangle the paths fill (flat,
right-angled, isosceles) inside its enclosing 4D box, and emits
deterministic SVG figures.  A ``dyck4d`` command exposes everything.
"""

from .enumeration import (catalan, draw_uniform_rank, enumerate_words, rank,
                          sample_uniform, unrank)
from .errors import (DyckError, InconsistentProjection, InvalidCharacter,
                     InvalidProjection, MalformedPath, NegativePrefix,
                     NotInLattice, ParityViolation, RankOutOfRange,
                     Unbalanced, WrongArity)
from .geometry import (Cell, DoubleTesseract, FlatnessResult,
                       RightIsoscelesReport, Side, SideFace, TriangleGeometry,
                       TriangleSide, Vec4, dot, double_tesseract, face_of_side,
                       geometry_report, norm_squared, side_length,
                       side_length_squared, sub, triangle, verify_flat,
                       verify_right_isosceles)
from .lattice import (LatticeRegion, complete_node, count_paths_through,
                      enumerate_nodes, is_lattice_node)
from .projections import (AxisSet, ProjectedPath, all_modifications, lift,
                          project, projected_path_as_json,
                          projected_path_from_json)
from .render import (ROLE_COLORS, Scene, edge_list_text, render_grid_2d,
                     render_wireframe)
from .words import (AXES, DOWN_STEP, DyckWord, LatticeNode, ORIGIN,
                    Path4D, UP_STEP, parse_word, path_as_lists,
                    path_from_lists, path_to_word, render_word, word_to_path)

__version__ = "0.1.0"

__all__ = [
    "AXES", "AxisSet", "Cell", "DOWN_STEP", "DoubleTesseract",
    "DyckError", "DyckWord", "FlatnessResult",
    "InconsistentProjection", "InvalidCharacter", "InvalidProjection",
    "LatticeNode", "LatticeRegion", "MalformedPath", "NegativePrefix",
    "NotInLattice", "ORIGIN", "ParityViolation", "Path4D", "ProjectedPath",
    "ROLE_COLORS", "RankOutOfRange", "RightIsoscelesReport", "Scene", "Side",
    "SideFace", "TriangleGeometry", "TriangleSide", "UP_STEP",
    "Unbalanced", "Vec4", "WrongArity", "all_modifications",
    "catalan", "complete_node", "count_paths_through", "dot",
    "double_tesseract", "draw_uniform_rank", "edge_list_text",
    "enumerate_nodes", "enumerate_words", "face_of_side", "geometry_report",
    "is_lattice_node", "lift", "norm_squared", "parse_word", "path_as_lists",
    "path_from_lists", "path_to_word", "project", "projected_path_as_json",
    "projected_path_from_json", "rank", "render_grid_2d", "render_wireframe",
    "render_word", "sample_uniform", "side_length", "side_length_squared",
    "sub", "triangle", "unrank", "verify_flat", "verify_right_isosceles",
    "word_to_path",
]
