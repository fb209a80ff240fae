"""Output checks: the CLI's CSV against a reference, plus its sidecar.

A reference is the full CSV the seed commit wrote for one workload and
seed, stored xz-compressed under ``refs/`` together with its sha256 in
``refs/index.json``.  A CSV matches a reference when it has the same rows
in the same order and every value agrees within ``RTOL`` relative
tolerance, with an absolute floor of ``ATOL``.  Whether the bytes are
identical is reported separately and does not decide a match.
"""

import hashlib
import json
import lzma
import math
from pathlib import Path

REFS = Path(__file__).resolve().parent / "refs"
RTOL = 1e-9
ATOL = 1e-12
HEADER = "experiment,algorithm,trial,round,value"


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def ref_name(workload: str, seed: int) -> str:
    return f"{workload}.seed{seed}.csv.xz"


def load_ref(workload: str, seed: int):
    """Reference CSV bytes and digest for ``(workload, seed)``, or ``None``."""
    index = json.loads((REFS / "index.json").read_text())
    entry = index.get(ref_name(workload, seed))
    if entry is None:
        return None
    data = lzma.decompress((REFS / ref_name(workload, seed)).read_bytes())
    if digest(data) != entry["sha256"]:
        raise ValueError(f"reference {ref_name(workload, seed)} does not match its digest")
    return data


def parse_csv(data: bytes):
    """``(keys, values)`` of a CSV the CLI wrote; raises ValueError if malformed."""
    lines = data.decode().splitlines()
    if not lines or lines[0] != HEADER:
        raise ValueError("missing or unexpected CSV header")
    keys, values = [], []
    for line in lines[1:]:
        key, _, value = line.rpartition(",")
        keys.append(key)
        values.append(float(value))
    return keys, values


def csv_problems(data: bytes, expected_rows: int, ref: bytes | None) -> list:
    """Reasons ``data`` is not a correct CSV; empty when it is.

    Checks the header, the row count, that every value is finite, and,
    when ``ref`` is given, rows and values against it.
    """
    try:
        keys, values = parse_csv(data)
    except ValueError as exc:
        return [f"unreadable CSV: {exc}"]
    problems = []
    if len(keys) != expected_rows:
        problems.append(f"{len(keys)} rows, expected {expected_rows}")
    bad = sum(1 for v in values if not math.isfinite(v))
    if bad:
        problems.append(f"{bad} non-finite values")
    if ref is not None:
        ref_keys, ref_values = parse_csv(ref)
        if keys != ref_keys:
            problems.append("rows differ from the reference (missing, extra or reordered)")
        else:
            off = sum(
                1
                for a, b in zip(values, ref_values)
                if not abs(a - b) <= max(RTOL * max(abs(a), abs(b)), ATOL)
            )
            if off:
                problems.append(f"{off} values differ from the reference beyond rtol {RTOL}")
    return problems


def sidecar_failures(meta_path: Path) -> int:
    """Number of ``TrialFailure`` entries the CLI wrote to its metadata sidecar."""
    return len(json.loads(meta_path.read_text())["failures"])
