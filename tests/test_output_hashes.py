"""Byte-identity pins: the benchmark's exact and sampling outputs, hashed.

Each test runs every item that ``perfbench/inputs.py`` builds for seeds 1-3,
blocks 0-2, and hashes the JSON of each result in order.  The ``calculus``
digest covers every exact claim check and certificate of the benchmark; the
``sampling`` digest is bit-level, as the probe goldens are.  A change that
must move output bytes re-records its digest here and says why.
"""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

INPUTS = Path(__file__).resolve().parent.parent / "perfbench" / "inputs.py"

DIGESTS = {
    "calculus": (531, "e0bee44c7fb756413ae17be4300e6b0f27362aac99565316c90861f78964fe08"),
    "sampling": (720, "e602e4990b8528bab554858409111f93ed013ca6e4ed51a7297a4bbe05a75338"),
}


@pytest.fixture(scope="module")
def inputs():
    spec = importlib.util.spec_from_file_location("perfbench_inputs", INPUTS)
    module = importlib.util.module_from_spec(spec)
    # dataclasses looks the defining module up by name
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


@pytest.mark.parametrize("workload", sorted(DIGESTS))
def test_workload_output_hash_is_pinned(inputs, workload):
    make = getattr(inputs, f"{workload}_block")
    digest, items = hashlib.sha256(), 0
    for seed in (1, 2, 3):
        for block in (0, 1, 2):
            for item in make(seed, block):
                digest.update(json.dumps(item.run().to_json(), sort_keys=True).encode())
                items += 1
    assert (items, digest.hexdigest()) == DIGESTS[workload]
