"""One path, eleven pictures.

Any 2, 3 or all 4 of the axes {i, j, l, r} form a coordinate grid: 6 + 4
+ 1 = 11 in total.  Because any two coordinates determine the other two,
every projection can be lifted back to the exact original path.
"""

from dyck4d import AXIS_SETS, lift, parse_word, project, word_to_path

path = word_to_path(parse_word("(())()"))

for axes in AXIS_SETS:
    image = project(path, axes)
    label = "x".join(axes)
    print(f"{label:>7}: {list(image.points)}")
    assert lift(image) == path

print()
print("the l x r image is the monotonic staircase ('(' goes right, ')' goes up),")
print("the i x j image is the mountain range (upstep/downstep); both lift back")
print("to the same 4D path, as do all the others.")
