"""Regenerate data/race_catalogue.json, the race-search target catalogue.

The catalogue lists every rank-pattern target of a few search shapes with
the verdict and witness that a direct ``search_race_sets`` call returns,
plus that call's wall time on the machine that made it. The race-search
workload samples its targets from it by verdict and cost class, and every
race op is checked against the recorded verdict and witness.

Run from the repository root:  python3 perfbench/make_catalogue.py
"""

from __future__ import annotations

import itertools
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from sumset_races import is_rank_tuple, search_race_sets  # noqa: E402

# (sets n, ground, maxsize, horizons) for each catalogued search shape.
SHAPES = [
    (2, 12, 5, (2, 3, 4)),
    (2, 14, 6, (2, 3)),
    (2, 16, 6, (2,)),
    (3, 12, 5, (2,)),
]


def rank_tuples(n: int) -> list[tuple[int, ...]]:
    return [t for t in itertools.product(range(1, n + 1), repeat=n) if is_rank_tuple(t)]


def main() -> int:
    entries = []
    for n, ground, maxsize, horizons in SHAPES:
        for horizon in horizons:
            for targets in itertools.product(rank_tuples(n), repeat=horizon):
                start = time.perf_counter()
                witness = search_race_sets(targets, ground, maxsize)
                seconds = time.perf_counter() - start
                entries.append(
                    {
                        "targets": [list(t) for t in targets],
                        "ground": ground,
                        "maxsize": maxsize,
                        "verdict": "exhausted" if witness is None else "found",
                        "witness": None if witness is None else [list(b) for b in witness],
                        "seconds": round(seconds, 4),
                    }
                )
            print(f"n={n} ground={ground} maxsize={maxsize} horizon={horizon}: done", file=sys.stderr)
    out = Path(__file__).resolve().parent / "data" / "race_catalogue.json"
    out.write_text(json.dumps({"entries": entries}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
