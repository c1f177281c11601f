"""The benchmark's seed-1 answers, pinned: a refactor must not change them.

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


@pytest.mark.parametrize("workload", sorted(SEED_1_DIGESTS))
def test_seed_1_answers_are_unchanged(workload, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import gate
    import workloads
    answers = []
    for inst in workloads.build_pool(workload, 1):
        result = workloads.solve(inst)
        assert gate.check(inst, result) is None, inst.label
        answers.append(gate.canonical(result))
    assert gate.digest(answers) == SEED_1_DIGESTS[workload]
