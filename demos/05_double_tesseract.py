"""The enclosing 4D box: like a tesseract, but one edge is twice as long.

Its census is the tesseract's (16 vertices, 32 edges, 8 cells), yet only
the two cells pinning the doubled i axis are cubes.  Each triangle side
is a diagonal of one cell or of one half of a cell.
"""

from dyck4d import SIDES, double_tesseract, face_of_side

n = 6
box = double_tesseract(n)
print(f"box [0,{2 * n}] x [0,{n}]³ in (i, j, l, r) order")
print(f"vertices: {len(box.vertices)}, edges: {len(box.edges)}, cells: {len(box.cells)}")

for cell in box.cells:
    kind = "cube" if cell.is_cube else "2n x n x n box"
    print(f"  cell {cell.axis} = {cell.value:>2}: {kind}")

print()
for side in SIDES:
    face = face_of_side(side, n)
    where = f"{face.cell.axis} = {face.cell.value} cell"
    if face.half is not None:
        where += f", {face.half} half-cube"
    start, end = face.diagonal
    print(f"{side:>6} side: diagonal {tuple(start)} -> {tuple(end)} of the {where}")
