"""Render number-line charts of built sets and their folds to SVG files.

Output lands next to this script in demos/output/. Each row of a chart
is one interval union; hovering a block in a browser shows its exact
rational endpoints.
"""

from pathlib import Path

from sumset_races import DiffMatrix, build_sets, realize, search_race_sets
from sumset_races.svg import PALETTE, RenderRow, render

out_dir = Path(__file__).parent / "output"
out_dir.mkdir(exist_ok=True)


def chart(path, rows, title):
    doc = render(rows, title=title)
    path.write_text(doc + "\n")
    print("wrote", path)


# Chart one: a built pair and its folds. The second set carves a wider
# gap, which the second fold then refills differently.
result = build_sets(DiffMatrix(((1, 0),)), 1)
rows = []
for i, s in enumerate(result.sets, start=1):
    color = PALETTE[(i - 1) % len(PALETTE)]
    rows.append(RenderRow(label=f"A{i}", union=s, color=color))
    rows.append(RenderRow(label=f"2A{i}", union=s.hfold(2), color=color))
chart(out_dir / "prescribed_pair.svg", rows, "a built pair and its two-fold sums")

# Chart two: the realized lead-flip race. At fold one the dense set
# covers more; at fold two the sparse one overtakes.
witness = search_race_sets([(1, 2), (2, 1)], ground=12, maxsize=5)
sets, width = realize(witness, 2)
rows = []
for i, (b, s) in enumerate(zip(witness, sets), start=1):
    color = PALETTE[(i + 1) % len(PALETTE)]
    rows.append(RenderRow(label=f"B{i}={set(b)}", union=s, color=color))
    rows.append(RenderRow(label=f"2B{i}", union=s.hfold(2), color=color))
chart(out_dir / "lead_flip.svg", rows, f"lead flip, block width {width}")
