"""Golden regression for the configuration search's chosen plan.

Each case runs a fresh ``Harmony.plan()`` and pins the chosen
configuration (microbatch sizes and every pack), ``float.hex`` of the
best estimate, and ``n_feasible``.  The cases are the five plan-zoo
benchmark plans (4 GPUs, minibatch 32) plus the two small zoo models in
both modes.  A change to how the search visits, prunes or evaluates
candidates must leave all of it bit-identical.  If a change legitimately
moves a chosen plan, rewrite the golden with
``PYTHONPATH=src python tests/core/test_golden_search.py`` and commit it
with the change.
"""

import json
from pathlib import Path

import pytest

from repro.core.harmony import Harmony, HarmonyOptions
from repro.experiments.common import server_for

GOLDEN = Path(__file__).resolve().parent / "golden" / "search.json"
#: (model, mode, GPUs, minibatch)
CASES = (
    ("gpt2", "pp", 4, 32),
    ("gpt2", "dp", 4, 32),
    ("bert96", "pp", 4, 32),
    ("resnet1k", "pp", 4, 32),
    ("vgg416", "pp", 4, 32),
    ("toy-transformer", "pp", 4, 16),
    ("toy-transformer", "dp", 4, 16),
    ("tiny-cnn", "pp", 4, 16),
    ("tiny-cnn", "dp", 4, 16),
)


def _key(model: str, mode: str, n_gpus: int, minibatch: int) -> str:
    return f"{model}/{mode}/x{n_gpus}/mb{minibatch}"


def _packs(packs) -> str:
    return " ".join(f"{p.first}-{p.last}" for p in packs)


def record(model: str, mode: str, n_gpus: int, minibatch: int) -> dict:
    harmony = Harmony(model, server_for(n_gpus), minibatch,
                      options=HarmonyOptions(mode=mode))
    search = harmony.plan().search
    config = search.best
    return {
        "u_f": config.u_f,
        "packs_f": _packs(config.packs_f),
        "u_b": config.u_b,
        "packs_b": _packs(config.packs_b),
        "best_estimate": search.best_estimate.hex(),
        "n_feasible": search.n_feasible,
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(_key(*case) for case in CASES)


@pytest.mark.parametrize("model,mode,n_gpus,minibatch", CASES,
                         ids=[_key(*case) for case in CASES])
def test_search_matches_golden(golden, model, mode, n_gpus, minibatch):
    assert record(model, mode, n_gpus, minibatch) == golden[
        _key(model, mode, n_gpus, minibatch)
    ]


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    table = {_key(*case): record(*case) for case in CASES}
    GOLDEN.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(table)} cases to {GOLDEN}")
