"""Seeded 200-step mutation fuzz: live answers vs rebuild, every step.

The seed is printed (and embedded in the assertion context) on any
failure, so a red run reproduces with::

    REPRO_FUZZ_SEED=<seed> python -m pytest tests/write/test_fuzz.py

The model store stays small (figure1) so 200 oracle rebuilds and the
three-surface comparison after every step stay fast; breadth across
datasets/backends/shards lives in test_differential.py.
"""

import os

import pytest

from .harness import (
    MutationFuzzer,
    apply_step,
    assert_equivalent,
    open_live,
    write_source,
)

DEFAULT_SEED = 20260807
FUZZ_STEPS = 200


def _seed():
    return int(os.environ.get("REPRO_FUZZ_SEED", DEFAULT_SEED))


@pytest.mark.parametrize("shards", (None, 2), ids=("monolithic", "sharded"))
def test_200_step_mutation_fuzz(tmp_path, shards):
    seed = _seed()
    source, model = write_source(tmp_path, "figure1")
    db = open_live(source, backend="vector", shards=shards)
    fuzzer = MutationFuzzer(model, "figure1", seed=seed)
    step = None
    try:
        for index in range(FUZZ_STEPS):
            step = fuzzer.step()
            apply_step(db, model, step)
            # Interleave compaction like a real serving process would.
            if index % 37 == 36:
                db.compact()
            assert_equivalent(
                db,
                model,
                "vector",
                "figure1",
                f"fuzz seed={seed} shards={shards} step={index} op={step}",
            )
    except Exception:
        print(
            f"\nmutation fuzz FAILED: seed={seed} shards={shards} "
            f"last step={step!r} — reproduce with "
            f"REPRO_FUZZ_SEED={seed} python -m pytest {__file__}"
        )
        raise
    finally:
        db.close()
