#!/usr/bin/env python3
"""Block and block-cyclic index distribution.

Field elements (the column blocks of H and G) are dealt to assembly
workers in contiguous blocks; a cluster
solve would lay the matrix out block-cyclically, dealing blocks of r
indices over a 2D process grid, independently for rows and columns
(the in-process solve here needs no such layout). Both maps are pure
index arithmetic, so they are printed here entry by entry.
"""

from tribem import (
    BlockCyclicParams,
    BlockMapParams,
    ProcessGrid,
    block_cyclic_map,
    block_map,
    owner_of_entry,
    partition_rows,
)

# block distribution: L = ceil(M/P) consecutive items per process
params = BlockMapParams(10, 4)
print("block map of 10 items over 4 processes (L =", params.l_block, "):")
print("  owners:", [block_map(m, params)[0] for m in range(10)])
print("  note the literal ceiling rule leaves process 3 underfull")
print()

print("assembly field-element partition, 96 field elements over 4 workers:")
for p, elements in enumerate(partition_rows(96, 4)):
    print(f"  worker {p}: field elements [{elements.start}, {elements.stop})")
print()

# block-cyclic: blocks of r dealt like cards with period T = r*P
params = BlockCyclicParams(24, 3, 4)
owners = [block_cyclic_map(m, params)[0] for m in range(24)]
print("block-cyclic map of 24 items, 3 processes, block size 4:")
print("  owners:", owners)
print()

# the 2D version: each matrix entry lands on one process of the grid
grid = ProcessGrid(2, 2)
print("ownership of a 12x12 matrix on a 2x2 grid, block size 3:")
for row in range(12):
    cells = [
        "".join(str(x) for x in owner_of_entry(row, col, grid, 3, 3, (12, 12)))
        for col in range(12)
    ]
    print("  " + " ".join(cells))
counts = {}
for row in range(12):
    for col in range(12):
        key = owner_of_entry(row, col, grid, 3, 3, (12, 12))
        counts[key] = counts.get(key, 0) + 1
print("entries per process:", counts, "(perfectly balanced: 36 each)")
