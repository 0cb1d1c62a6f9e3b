"""Golden Phase-2 search traces: the projected-gradient step, pinned bitwise.

``tests/golden/gradient_trace_golden.json`` freezes every evaluated mapping
and every surrogate objective (``float.hex``) of seeded multi-restart
gradient searches on ResNet_Conv4, BERT_FFN1 and MTTKRP_0, each across
four injections.  The surrogates are seeded and untrained, so the fixture
pins only the search step itself: whitening, the surrogate input
gradient, the update, and decode + projection.  Any rewrite of those paths
must replay every trace exactly — a one-ulp drift in a gradient or a
different tie-break in the rounding changes the mapping sequence.

To regenerate after an intentional change:
``PYTHONPATH=src python tests/golden/generate_gradient_trace_golden.py``.
"""

import importlib.util
import json
from pathlib import Path

import pytest

_GOLDEN_DIR = Path(__file__).parent / "golden"


def _load_generator():
    """The generator owns the case definitions; load it by path so the
    replay cannot drift from how the fixture was produced."""
    spec = importlib.util.spec_from_file_location(
        "generate_gradient_trace_golden",
        _GOLDEN_DIR / "generate_gradient_trace_golden.py",
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


GENERATOR = _load_generator()
GOLDEN = json.loads(GENERATOR.GOLDEN_PATH.read_text())

CASES = [
    (name, seed, restarts)
    for name in GENERATOR.PROBLEMS
    for seed in GENERATOR.SEEDS
    for restarts in GENERATOR.RESTARTS
]


def test_fixture_covers_every_case():
    assert set(GOLDEN) == {GENERATOR.case_key(*case) for case in CASES}


@pytest.mark.parametrize("name,seed,restarts", CASES)
def test_gradient_trace_replays_bitwise(name, seed, restarts):
    frozen = GOLDEN[GENERATOR.case_key(name, seed, restarts)]
    fresh = GENERATOR.run_case(name, seed, restarts)
    # Mappings first: a divergence reports the first differing step.
    for step, (want, got) in enumerate(zip(frozen["mappings"], fresh["mappings"])):
        assert got == want, f"mapping {step} diverged"
    assert len(fresh["mappings"]) == len(frozen["mappings"])
    assert fresh["objective_values"] == frozen["objective_values"]
