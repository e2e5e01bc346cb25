"""A miniature unit-comparison table: every unit, same budget, same seeds.

This is the library API behind `puxp compare`. Budgets here are tiny so the
demo finishes in about a minute; raise steps/points/seeds for a sturdier
ranking.

Run: python demos/06_unit_comparison.py
"""

import tempfile
from pathlib import Path

from puxp.dataio import write_comparison_csv
from puxp.pipeline import BackboneSpec, TrainConfig, compare_units
from puxp.units import UNIT_KINDS, ExpansionSpec

C, K = 16, 8
configs = [
    TrainConfig(
        unit=ExpansionSpec(kind=kind, ratio=4, channels=C, k=K),
        backbone=BackboneSpec("edgeconv_stack", depth=2, width=C),
        k=K,
        steps=150,
        lr=0.001,
        shapes=("sphere", "box_surface"),
        points=64,
    )
    for kind in UNIT_KINDS
]

print("training 7 units x 2 seeds at a matched budget ...")
table = compare_units(configs, seeds=(1, 2))

print(f"\n{'unit':18s} {'cd':>8s} {'hd':>8s} {'p2f':>8s} {'params':>7s}")
for row in sorted(table.rows, key=lambda r: r.cd):
    print(f"{row.unit:18s} {row.cd:8.4f} {row.hd:8.4f} {row.p2f:8.4f} {row.unit_params:7d}")

out = Path(tempfile.mkdtemp(prefix="puxp-demo-")) / "comparison.csv"
write_comparison_csv(out, table)
print(f"\nwrote {out}")
print("lower is better everywhere; the graph units usually lead once the")
print("budget is big enough for the EdgeConv layers to pay off.")
