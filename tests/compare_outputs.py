"""Compare the data files of two output trees, file by file.

    python tests/compare_outputs.py A B        one verdict line per data file
    python tests/compare_outputs.py --write D  write the runs of RUNS into D

An output tree holds one directory per run of ``RUNS``, with the data files
that the run wrote; ``manifest.json`` is not compared, since it holds
timings.  Two files agree when their bytes are equal.  Otherwise they must
have the same lines with the same comma-separated fields, and every field
that is not a float (headers, integers, names) must be equal.  A float of a
text file is compared relative to the max-abs of its column, and a float of
a JSON file relative to its own value; the worst such ratio is the file's
drift.  The last line of a hashed file (``HASH <sha256>``) must be the hash
of the file's own body, so that it may move with the floats it covers.
The verdicts use the tolerance table of ``test_golden.py``.  Run with
``PYTHONPATH=src``; ``--write`` runs whatever kickflow is importable.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from pathlib import Path

# run name -> CLI arguments; "{out}" is the run's output directory
RUNS = {
    "simulate": ["--seed", "7", "simulate", "--u0", "random:3", "--kicks", "20"],
    "linearize": ["--seed", "7", "linearize", "--full"],
    "couple": ["--seed", "7", "couple", "--steps", "5"],
    "couple-pairs": ["--seed", "3", "couple", "--steps", "3", "--pairs", "2"],
    "mix": ["--seed", "7", "mix", "--particles", "64", "--kicks", "3",
            "--checkpoint", "{out}/ck"],
    "noise-check": ["noise-check", "--draws", "1000"],
    "spectrum": ["spectrum"],
}


def write_runs(root) -> None:
    """Run every entry of ``RUNS`` in this process, into ``root/<run name>``."""
    from kickflow import cli

    for name, args in RUNS.items():
        out = Path(root) / name
        code = cli.main(["--out", str(out)] + [a.format(out=out) for a in args])
        if code != 0:
            raise RuntimeError(f"run {name} exited {code}")


def data_files(root) -> list[str]:
    """Paths of the data files under ``root``, relative to it."""
    root = Path(root)
    return sorted(str(p.relative_to(root)) for p in root.rglob("*")
                  if p.is_file() and p.name != "manifest.json")


def _field(tok: str):
    """An int, a float or the string itself."""
    try:
        return int(tok)
    except ValueError:
        pass
    try:
        return float(tok)
    except ValueError:
        return tok


def _body_hash(lines: list[str]) -> str:
    return "HASH " + hashlib.sha256(("\n".join(lines[1:-1]) + "\n").encode()).hexdigest()


def _compare_text(ta: str, tb: str) -> float:
    """Drift of text file b from a; raises ValueError on a mismatch."""
    la, lb = ta.splitlines(), tb.splitlines()
    if len(la) != len(lb):
        raise ValueError(f"{len(la)} lines against {len(lb)}")
    if la and la[-1].startswith("HASH "):
        if lb[-1] != _body_hash(lb):
            raise ValueError("the hash line does not match the body")
        la, lb = la[:-1], lb[:-1]
    rows_a = [[_field(t) for t in ln.split(",")] for ln in la]
    rows_b = [[_field(t) for t in ln.split(",")] for ln in lb]
    colmax = {}
    for row in rows_a:
        for j, v in enumerate(row):
            if isinstance(v, float) and math.isfinite(v):
                colmax[j] = max(colmax.get(j, 0.0), abs(v))
    drift = 0.0
    for i, (ra, rb) in enumerate(zip(rows_a, rows_b)):
        if len(ra) != len(rb):
            raise ValueError(f"line {i + 1}: {len(ra)} fields against {len(rb)}")
        for j, (va, vb) in enumerate(zip(ra, rb)):
            drift = max(drift, _drift(va, vb, colmax.get(j, 0.0), f"line {i + 1}, field {j + 1}"))
    return drift


def _drift(va, vb, scale: float, where: str) -> float:
    """|va - vb| / scale for two finite floats; other values must be equal."""
    if type(va) is not type(vb):
        raise ValueError(f"{where}: {va!r} against {vb!r}")
    if isinstance(va, float) and math.isfinite(va) and math.isfinite(vb):
        if va == vb:
            return 0.0
        if scale == 0.0:
            raise ValueError(f"{where}: {va!r} against {vb!r} on a zero scale")
        return abs(va - vb) / scale
    if not (va == vb or va != va and vb != vb):  # nan equals nan here
        raise ValueError(f"{where}: {va!r} against {vb!r}")
    return 0.0


def _compare_json(a, b, where: str = "") -> float:
    """Drift of JSON value b from a; raises ValueError on a mismatch."""
    if isinstance(a, dict) and isinstance(b, dict):
        if sorted(a) != sorted(b):
            raise ValueError(f"{where or 'top'}: keys {sorted(a)} against {sorted(b)}")
        return max((_compare_json(a[k], b[k], f"{where}.{k}") for k in a), default=0.0)
    if isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            raise ValueError(f"{where}: {len(a)} items against {len(b)}")
        return max((_compare_json(x, y, f"{where}[{i}]") for i, (x, y) in enumerate(zip(a, b))),
                   default=0.0)
    return _drift(a, b, abs(a) if isinstance(a, float) else 0.0, where)


def compare_file(a, b) -> tuple[str, float]:
    """("identical", 0.0), ("drift", worst ratio) or ("mismatch: <why>", nan)."""
    ba, bb = Path(a).read_bytes(), Path(b).read_bytes()
    if ba == bb:
        return "identical", 0.0
    try:
        if Path(a).suffix == ".json":
            return "drift", _compare_json(json.loads(ba), json.loads(bb))
        return "drift", _compare_text(ba.decode(), bb.decode())
    except (ValueError, UnicodeDecodeError) as exc:
        return f"mismatch: {exc}", math.nan


def compare_trees(a, b, tolerances: dict) -> list[tuple[str, str, bool]]:
    """(file, verdict, passed) for every data file under either tree."""
    names_a, names_b = set(data_files(a)), set(data_files(b))
    out = []
    for name in sorted(names_a | names_b):
        if name not in names_a or name not in names_b:
            out.append((name, f"mismatch: only in {a if name in names_a else b}", False))
            continue
        kind, drift = compare_file(Path(a) / name, Path(b) / name)
        tol = tolerances.get(name)
        if kind == "drift":
            ok = tol is not None and drift <= tol
            out.append((name, f"drift {drift:.2g} (tolerance {tol:.0e})" if tol is not None
                        else f"drift {drift:.2g} (no tolerance)", ok))
        else:
            out.append((name, kind, kind == "identical"))
    return out


def main(argv) -> int:
    if len(argv) == 2 and argv[0] == "--write":
        write_runs(argv[1])
        return 0
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    from test_golden import TOLERANCES

    rows = compare_trees(argv[0], argv[1], TOLERANCES)
    width = max(len(name) for name, _, _ in rows)
    for name, verdict, ok in rows:
        print(f"{name:<{width}}  {'ok  ' if ok else 'FAIL'}  {verdict}")
    return 0 if all(ok for _, _, ok in rows) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
