"""Check that two seeds give different inputs with the same structure.

    python3 perfbench/check_seeds.py SEED_A SEED_B

For each workload the two seeds must give the same number of items per
block, the same sequence of (kind, dimension) and, for the corpus, the same
file names and expected exit codes; and they must give different numbers.
Use it to confirm that a held-out seed exercises the same mix.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402

BLOCKS = 3


def plain(value):
    """The input an item closes over, as JSON-able data."""
    if hasattr(value, "to_json"):
        return value.to_json()
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, (list, tuple)):
        return [plain(v) for v in value]
    if isinstance(value, dict):
        return {k: plain(v) for k, v in value.items()}
    return value


def inprocess(make, seed: int) -> tuple[list, str]:
    shape, digest = [], hashlib.sha256()
    for block in range(BLOCKS):
        items = make(seed, block)
        shape.append([(it.kind, it.dim) for it in items])
        for it in items:
            digest.update(json.dumps(plain(it.run.__defaults__), sort_keys=True).encode())
    return shape, digest.hexdigest()


def corpus(seed: int) -> tuple[list, str]:
    with tempfile.TemporaryDirectory(dir=HERE.parent) as tmp:
        expected, malformed = inputs.write_corpus(seed, 0, Path(tmp))
        digest = hashlib.sha256()
        for path in sorted(Path(tmp).rglob("*.json")):
            digest.update(path.read_bytes())
    return [sorted(expected.items()), sorted(malformed.items())], digest.hexdigest()


def main() -> int:
    a, b = int(sys.argv[1]), int(sys.argv[2])
    problems = []
    for name, fn in (
        ("calculus", lambda s: inprocess(inputs.calculus_block, s)),
        ("sampling", lambda s: inprocess(inputs.sampling_block, s)),
        ("corpus", corpus),
    ):
        (shape_a, digest_a), (shape_b, digest_b) = fn(a), fn(b)
        same_shape, same_data = shape_a == shape_b, digest_a == digest_b
        print(f"{name}: same items and mix: {same_shape}; same numbers: {same_data}")
        if not same_shape:
            problems.append(f"{name}: seeds {a} and {b} give different item mixes")
        if same_data:
            problems.append(f"{name}: seeds {a} and {b} give identical inputs")
    for p in problems:
        print(p, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
