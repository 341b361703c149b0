"""Walk through the four divided-difference table layouts on one data set.

Run:  python demos/tables_demo.py
"""

from fractions import Fraction

from divdiff import (SampleSet, build_combined_table, build_integer_table,
                     build_new_table, build_newton_table, divided_difference,
                     zigzag_positions)

nodes = [0.0, 0.4, 1.0, 1.5, 2.3, 3.0, 3.8]
values = [x ** 3 - 2 * x + 1 for x in nodes]
samples = SampleSet(nodes, values)

print("Classical sliding-window table (column i holds f[x_j..x_{j+i}]):\n")
print(build_newton_table(samples).render_text(fmt="%.6g"))

print("\n\nFixed-prefix table with split 3: every column keeps the first")
print("arguments pinned and slides only the last one.\n")
new = build_new_table(samples, 3)
print(new.render_text(fmt="%.6g"))

print("\nEach stored entry is an ordinary divided difference over its own")
print("argument set, e.g. column 2 entry 3 covers indices [0, 1, 5]:")
print("  stored:", new.columns[2][3])
print("  direct:", divided_difference(samples, [0, 1, 5]))

print("\n\nCombined layout, split 3: the predicate j < r - i + 1 routes each")
print("entry to the sliding-window part or the fixed-prefix part.\n")
comb = build_combined_table(samples, 3)
print(comb.render_text(fmt="%.6g"))
print("\nparts of column 1:", [comb.part_of(1, j) for j in range(6)])

print("\n\nInteger-argument table on evenly spaced data: window entries are")
print("plain forward differences, heads normalize to divided differences,")
print("and the fixed-prefix part divides by true integer argument gaps.\n")
evals = [Fraction(i) ** 3 for i in range(7)]
integer = build_integer_table(evals, 4)
print(integer.render_text())
print("\ncolumn heads as divided differences:",
      [str(h) for h in integer.column_heads])

print("\nSigned layout over positions -2..4 uses the zigzag prefix"
      " 0, -1, 1, -2, 2, ...:\n")
pos = zigzag_positions(2, 4)
signed = build_new_table(SampleSet(pos, [Fraction(p) ** 2 for p in pos]), 6)
print(signed.render_text())
