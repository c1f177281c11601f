"""The benchmark's answers at its default seed 1 and its held-out seed
424242, pinned: a refactor must not change them.

Each workload's pool is solved as `bench/run.py` solves it, every answer is
re-checked by the benchmark's independent gate, and the digest of the
canonical answers is compared with the value recorded here.  A change that
alters an answer on purpose re-pins its digest and says why in CHANGES.md.
"""

from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"

SEED_1_DIGESTS = {
    "spanning-nwt": "f9beea6f4942de82",
    "steiner-fkk": "e6fa3adf2640a76e",
    "connector-kriesell": "ef67309d2a7e9ac8",
    "refute-nwt": "7fcba352bc414679",
}

SEED_424242_DIGESTS = {
    "spanning-nwt": "a66ce3149bf5bba4",
    "steiner-fkk": "3ae6c05a59639d5b",
    "connector-kriesell": "ff2b76e5c56b6bc0",
    "refute-nwt": "7fcba352bc414679",
}


def answers_digest(workload: str, seed: int, monkeypatch) -> str:
    monkeypatch.syspath_prepend(str(BENCH))
    import gate
    import workloads
    answers = []
    for inst in workloads.build_pool(workload, seed):
        result = workloads.solve(inst)
        assert gate.check(inst, result) is None, inst.label
        answers.append(gate.canonical(result))
    return gate.digest(answers)


@pytest.mark.parametrize("workload", sorted(SEED_1_DIGESTS))
def test_seed_1_answers_are_unchanged(workload, monkeypatch):
    assert answers_digest(workload, 1, monkeypatch) == SEED_1_DIGESTS[workload]


@pytest.mark.parametrize("workload", sorted(SEED_424242_DIGESTS))
def test_seed_424242_answers_are_unchanged(workload, monkeypatch):
    assert answers_digest(workload, 424242, monkeypatch) == SEED_424242_DIGESTS[workload]
