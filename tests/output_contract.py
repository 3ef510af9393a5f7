"""The output contract: which CSV values keep their bytes and which may move by rounding.

README's "Outputs" section states the contract; ``compare_csv`` checks two
CSV texts against it and ``check_column`` checks one column.  A column not
named in ``_CLASSES`` (grid, delay, row, planner-code, count and
reference-symbol columns) must keep its bytes.  Compare two output
directories from the repository root with

    python tests/output_contract.py OLD_DIR NEW_DIR

which prints, per CSV, the columns that moved and by how much, and per
``*_manifest.json`` whether its JSON is equal (``compare_manifest``).  It
exits 1 if any value breaks the contract, if two manifests' JSON differs,
if a CSV or manifest is in only one of the two directories, or if OLD_DIR
holds no CSV.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

# A dB value beyond this magnitude is rounding noise on a null.
DB_LIMIT = 150.0
DB_TOL = 1e-9
EVM_RTOL = 1e-9
CONSTELLATION_ATOL = 1e-9

_DB_COLUMNS = (
    "leak_db_single",
    "rej_db_array",
    "depth_db_ideal",
    "depth_db_quantized",
    "depth_db",
    "gain_db_theory",
    "gain_db_measured",
)
_CLASSES = {
    **dict.fromkeys(_DB_COLUMNS, "db"),
    "evm_percent": "relative",
    **dict.fromkeys(("rx_re", "rx_im"), "absolute"),
}


def _beyond(v: float) -> int:
    """+1 above DB_LIMIT, -1 below -DB_LIMIT, 0 within it (NaN counts as within)."""
    return (v > DB_LIMIT) - (v < -DB_LIMIT)


def _diff(kind: str, old: float, new: float) -> float:
    """How far a value moved: relative to the old value for EVM, absolute otherwise."""
    if kind == "relative":
        return abs(new - old) / abs(old) if old else math.inf
    return abs(new - old)


def _allowed(kind: str, old: float, new: float) -> bool:
    if kind == "db":
        side = _beyond(old)
        if side:
            return _beyond(new) == side
        return not _beyond(new) and _diff(kind, old, new) <= DB_TOL
    tol = EVM_RTOL if kind == "relative" else CONSTELLATION_ATOL
    return _diff(kind, old, new) <= tol


def check_column(name: str, old_cells, new_cells):
    """Check one column's text cells against the contract.

    Returns ``(summary, violations)``: a one-line account of what moved
    and a list of messages, one per cell that breaks the contract.
    """
    kind = _CLASSES.get(name, "bytes")
    moved = [
        (i, a, b) for i, (a, b) in enumerate(zip(old_cells, new_cells, strict=True)) if a != b
    ]
    if not moved:
        return f"{name}: byte-identical", []
    if kind == "bytes":
        bad = [f"{name} row {i}: {a!r} -> {b!r} (must keep its bytes)" for i, a, b in moved]
        return f"{name}: {len(moved)} cells changed bytes", bad
    values = [(i, float(a), float(b)) for i, a, b in moved]
    bad = [
        f"{name} row {i}: {a!r} -> {b!r} breaks the {kind} rule"
        for i, a, b in values
        if not _allowed(kind, a, b)
    ]
    inside = [_diff(kind, a, b) for _, a, b in values if not (kind == "db" and _beyond(a))]
    parts = [f"{name}: {len(moved)} of {len(old_cells)} moved"]
    if inside:
        what = {"db": " under 150 dB", "relative": " relative"}.get(kind, "")
        parts.append(f"max |diff| {max(inside):.2g}{what}")
    if len(inside) < len(values):
        far = [(a, b) for _, a, b in values if _beyond(a)]
        finite = [abs(b - a) for a, b in far if math.isfinite(a) and math.isfinite(b)]
        to_inf = sum(math.isfinite(a) != math.isfinite(b) for a, b in far)
        gap = f"{max(finite):.2g}" if finite else "none finite"
        parts.append(f"{len(far)} beyond 150 dB (max |diff| {gap}, {to_inf} to or from inf)")
    return ", ".join(parts), bad


def compare_csv(old_text: str, new_text: str):
    """Check a CSV's text against the old one; returns ``(summary lines, violations)``."""
    old = [line.split(",") for line in old_text.splitlines()]
    new = [line.split(",") for line in new_text.splitlines()]
    empty = [side for side, rows in (("old", old), ("new", new)) if not rows]
    if empty:
        return [], [f"{' and '.join(empty)} CSV empty"]
    if old[0] != new[0]:
        return [], [f"header {new[0]} != {old[0]}"]
    if len(old) != len(new):
        return [], [f"{len(new) - 1} rows != {len(old) - 1}"]
    summary, violations = [], []
    for name, old_col, new_col in zip(old[0], zip(*old[1:]), zip(*new[1:])):
        line, bad = check_column(name, old_col, new_col)
        summary.append(line)
        violations += bad
    return summary, violations


def compare_manifest(old_text: str, new_text: str) -> list:
    """Check a manifest's JSON against the old one; returns the top-level keys that differ."""
    try:
        old, new = json.loads(old_text), json.loads(new_text)
    except json.JSONDecodeError as err:  # e.g. a run killed while writing it
        return [f"not JSON: {err}"]
    keys = sorted(old.keys() | new.keys())
    return [f"{key} differs" for key in keys if old.get(key) != new.get(key)]


def main(argv) -> int:
    old_dir, new_dir = map(Path, argv)
    old_names, new_names = (
        {p.name for pattern in ("*.csv", "*_manifest.json") for p in d.glob(pattern)}
        for d in (old_dir, new_dir)
    )
    if not any(name.endswith(".csv") for name in old_names):
        print(f"{old_dir}: no CSV to compare against")
        return 1
    failed = False
    for name in sorted(old_names | new_names):
        if name not in old_names or name not in new_names:
            print(f"{name}: only in {old_dir if name in old_names else new_dir}")
            failed = True
            continue
        old_text, new_text = ((d / name).read_text() for d in (old_dir, new_dir))
        if name.endswith(".json"):
            violations = compare_manifest(old_text, new_text)
            moved = ["JSON equal, bytes differ"] if old_text != new_text and not violations else []
        else:
            summary, violations = compare_csv(old_text, new_text)
            moved = [line for line in summary if not line.endswith("byte-identical")]
        print(f"{name}: " + ("; ".join(moved + violations[:5]) or "byte-identical"))
        failed = failed or bool(violations)
    return int(failed)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
