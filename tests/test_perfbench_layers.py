"""The benchmark's span table still names functions the package has.

`perfbench/spans.py` wraps package functions by (module, attribute). A
name that no longer resolves is recorded as absent and its per-layer
metric silently reads 0, so a rename or deletion in the package must
fail here instead.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"

# deleted from the package before the benchmark was updated; their metrics read 0
KNOWN_STALE = {
    ("nearris.beam_mgmt", "end_to_end_channel"),
    # moved into tests/oracle.py: the package computes no whole-level phase arrays
    ("nearris.codebook", "build_hierarchy"),
}


def _layers():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.LAYERS


def _resolves(module, attr):
    owner = importlib.import_module(module)
    for part in attr.split("."):
        owner = getattr(owner, part, None)
    return callable(owner)


def test_every_traced_layer_resolves_in_the_package():
    layers = _layers()
    assert layers
    missing = {(module, attr) for _, module, attr in layers if not _resolves(module, attr)}
    assert missing <= KNOWN_STALE, f"span layers name missing functions: {sorted(missing)}"
