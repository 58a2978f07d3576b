"""Balanced parentheses as exact-integer paths in a 4D lattice.

Reading a balanced word step by step traces a path through the points
(i, j, l, r) = (steps taken, opens minus closes, opens, closes).  This
package parses and validates words, projects their paths onto all eleven
coordinate grids and lifts them back losslessly, counts and samples words,
verifies the exact geometry of the triangle the paths fill (flat,
right-angled, isosceles) inside its enclosing 4D box, and emits
deterministic SVG figures.  A ``dyck4d`` command exposes everything.
"""

from importlib import import_module

__version__ = "0.1.0"

#: The names the package exports, by defining module.  A module is imported
#: when one of its names is first used (PEP 562), so ``import dyck4d.cli``
#: leaves geometry, projections and render unloaded until a subcommand needs them.
_EXPORTS = {
    "enumeration": "catalan draw_uniform_rank enumerate_words rank sample_uniform unrank",
    "errors": "DyckError InconsistentProjection InvalidCharacter InvalidProjection "
              "MalformedPath NegativePrefix NotInLattice ParityViolation RankOutOfRange "
              "Unbalanced WrongArity",
    "geometry": "Cell DoubleTesseract FlatnessResult RightIsoscelesReport SIDES SideFace "
                "TriangleGeometry TriangleSide dot double_tesseract face_of_side "
                "geometry_report norm_squared side_length side_length_squared sub triangle "
                "verify_flat verify_right_isosceles",
    "lattice": "complete_node count_paths_through enumerate_nodes is_lattice_node",
    "projections": "AXIS_SETS ProjectedPath axis_set lift project "
                   "projected_path_as_json projected_path_from_json",
    "render": "ROLE_COLORS edge_list_text render_grid_2d render_wireframe",
    "words": "AXES DOWN_STEP DyckWord LatticeNode ORIGIN Path4D UP_STEP parse_word "
             "path_as_lists path_from_lists path_to_word render_word word_to_path",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
