"""Check a pass's outputs against the references recorded at the seed.

Every output is one operation (a scan contributes one per row). An
operation fails when the program raised, a CLI command exited non-zero,
a row carries an error or NaN, or a value lies outside its reference
tolerance. Values are accepted within the acceptance-gate tolerances,
and the outputs that are also bit-identical to the reference are
counted. Monte Carlo estimates must lie within four standard errors of
the exact score, and oracle scores at or below the classical bound 2/3.
"""

import json
import math

TOLERANCE = {"p3": 1e-9, "window": 1e-9, "levels": 1e-9, "rows": 1e-9,
             "file": 1e-9, "tau": 1e-2, "dim": 0}
SEEDED_KINDS = ("mc", "oracle")
CLASSICAL_BOUND = 2.0 / 3.0 + 1e-12
MC_SIGMAS = 4.0


def close(a, b, tol):
    """Equal structure, numbers within tol, everything else equal."""
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(close(x, y, tol) for x, y in zip(a, b))
    numbers = (int, float)
    if (isinstance(a, numbers) and isinstance(b, numbers)
            and not isinstance(a, bool) and not isinstance(b, bool)):
        return abs(a - b) <= tol
    return a == b


def _is_nan(x):
    return x == "nan" or (isinstance(x, float) and math.isnan(x))


def _rows(key, rows, ref_rows):
    ops = []
    for i, (tau, p3, error) in enumerate(rows):
        name = f"{key}/row{i}"
        if error or _is_nan(p3):
            ops.append((name, False, error or "NaN score"))
        elif ref_rows is None or i >= len(ref_rows):
            ops.append((name, False, "no reference row"))
        elif not close([tau, p3], ref_rows[i][:2], TOLERANCE["rows"]):
            ops.append((name, False, f"row {[tau, p3]} differs from "
                                     f"reference {ref_rows[i][:2]}"))
        else:
            ops.append((name, True, ""))
    if ref_rows is not None and len(rows) != len(ref_rows):
        ops.append((key, False, f"{len(rows)} rows, reference has {len(ref_rows)}"))
    return ops


def _check_one(key, out, ref):
    """Operations for one output; ``ref`` is its reference record or None."""
    if out is None:
        return [(key, False, "missing output")]
    if "error" in out:
        return [(key, False, out["error"])]
    kind = out["kind"]
    if kind == "rows":
        return _rows(key, out["value"], ref["value"] if ref else None)
    if kind == "mc":
        gap = abs(out["p3_hat"] - out["exact"])
        return [(key, gap <= MC_SIGMAS * out["stderr"],
                 f"|p3_hat - exact| = {gap:.3g}, stderr {out['stderr']:.3g}")]
    if kind == "oracle":
        return [(key, out["value"] <= CLASSICAL_BOUND,
                 f"classical score {out['value']!r} above 2/3")]
    if kind == "exit":
        return [(key, out["value"] == 0, f"exit code {out['value']}")]
    if kind == "holds":
        return [(key, out["value"] is True, "relation does not hold")]
    if ref is None:
        return [(key, False, "no reference")]
    if kind == "file" and out["leaves"] != ref["leaves"]:
        return [(key, False, f"{out['leaves']} leaves, reference has {ref['leaves']}")]
    return [(key, close(out["value"], ref["value"], TOLERANCE[kind]),
             f"{out['value']!r} differs from reference {ref['value']!r}"[:300])]


def _identical(out, ref):
    if out is None or ref is None:
        return False
    if out.get("kind") == "file":
        return out.get("sha256") == ref.get("sha256")
    return json.dumps(out, sort_keys=True) == json.dumps(ref, sort_keys=True)


def check(outputs, reference, seed):
    """Return ([(operation, ok, why)], bit-identical count, compared count).

    ``reference`` is one workload's entry of reference.json: fixed
    outputs, and per-seed outputs of the seeded kinds for the seeds that
    were recorded. Seeded outputs of other seeds are checked by the
    statistical rules alone.
    """
    fixed = reference["outputs"]
    seeded = reference["seeded"].get(str(seed), {})
    seeded_keys = set().union(*map(set, reference["seeded"].values()))
    ops, identical, compared = [], 0, 0
    for key in sorted(set(outputs) | set(fixed) | seeded_keys):
        out = outputs.get(key)
        ref = seeded.get(key) if key in seeded_keys else fixed.get(key)
        ops.extend(_check_one(key, out, ref))
        if ref is not None:
            compared += 1
            identical += _identical(out, ref)
    return ops, identical, compared
