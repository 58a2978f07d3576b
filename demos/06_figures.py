"""Emit every figure type into demos/rendered/ as deterministic SVG.

Colors follow one convention throughout: l yellow, r red, j blue,
i green; the drawn path is near-black.
"""

from pathlib import Path

from dyck4d import (double_tesseract, parse_word, project,
                    render_grid_2d, render_wireframe, word_to_path)

out_dir = Path(__file__).parent / "rendered"
out_dir.mkdir(exist_ok=True)

word = parse_word("((()())(()))")  # 6 pairs, a mix of climbs and valleys
path = word_to_path(word)

for axes, name in [("lr", "staircase"), ("ij", "mountain"), ("jl", "mixed")]:
    svg = render_grid_2d(axes, word.n, project(path, axes))
    (out_dir / f"grid_{axes}_{name}.svg").write_text(svg)

box = double_tesseract(word.n)

svg, edges = render_wireframe(box, "orthographic-3d", include_triangle=True)
(out_dir / "box_oblique.svg").write_text(svg)
(out_dir / "box_edges.txt").write_text(edges)

svg, _ = render_wireframe(box.cell("i", 0), "orthographic-3d")
(out_dir / "cube_cell.svg").write_text(svg)

svg, _ = render_wireframe(box, "schlegel", include_triangle=True)
(out_dir / "nested_cubes.svg").write_text(svg)

for item in sorted(out_dir.iterdir()):
    print(f"wrote {item.relative_to(out_dir.parent)} ({item.stat().st_size} bytes)")
