"""The seeded generators: the kriesell draw against its build-everything
oracle, how many kriesell draws reach the flows, and the pinned 64-bit
generator against its documented update rule."""

import importlib

import pytest

from treepack import GenerationFailureError, serialize_instance
from treepack.generate import generate_kriesell
from treepack.rng import SplitMix64
from conftest import reference_generate_kriesell


def outcome(generator, *args, **options):
    """The instance a generator returns, field by field, or its error text."""
    try:
        inst = generator(*args, **options)
    except GenerationFailureError as e:
        return str(e)
    return (serialize_instance(inst.graph, inst.terminals), inst.connectivity,
            inst.target, inst.attempts)


def assert_matches_reference(*args, **options):
    assert outcome(generate_kriesell, *args, **options) == \
        outcome(reference_generate_kriesell, *args, **options), (args, options)


class TestKriesellDraw:
    @pytest.mark.parametrize("n", range(3, 15))
    def test_matches_reference(self, n):
        for k in (1, 2):
            for seed in range(30):
                assert_matches_reference(n, k, seed)

    @pytest.mark.parametrize("ks, ns, options", [
        ((1,), (2, 3, 4), {"max_edges": 16}),
        ((2,), (2, 3), {"max_edges": 16}),
        ((1,), (2, 3), {"min_connectivity": 12, "max_edges": 16}),
    ], ids=["k1-max-edges-16", "k2-max-edges-16", "connectivity-12-max-edges-16"])
    def test_acceptance_options_match_reference(self, ks, ns, options):
        # The small, capped instances test_acceptance packs.
        for k in ks:
            for n in ns:
                for seed in range(60):
                    assert_matches_reference(n, k, seed, **options)

    def test_unreachable_target_raises_the_same_text(self):
        # 16 edges give no terminal 99 edge ends, so every draw is refused.
        text = outcome(generate_kriesell, 5, 1, 0, min_connectivity=99, max_edges=16)
        assert text == ("kriesell model failed to reach connectivity 99 after 1000 "
                        "attempts (n=5, k=1, max_edges=16)")
        assert_matches_reference(5, 1, 0, min_connectivity=99, max_edges=16)

    def test_few_draws_reach_the_flows(self, monkeypatch):
        # A draw with a terminal of degree below the target is refused
        # before its graph is built; at n=11, k=1 most draws are.
        # The package attribute `generate` is the function; this is the module.
        module = importlib.import_module("treepack.generate")
        flows = 0
        measure = module.steiner_connectivity

        def counting(g, terminals):
            nonlocal flows
            flows += 1
            return measure(g, terminals)

        monkeypatch.setattr(module, "steiner_connectivity", counting)
        attempts = sum(generate_kriesell(11, 1, seed).attempts for seed in range(100))
        assert flows * 4 < attempts, f"{flows} of {attempts} draws ran the flows"


# -- the pinned generator ------------------------------------------------------


def reference_stream(seed: int):
    """The update rule in rng's docstring, one output per iteration."""
    state = seed % 2**64
    while True:
        state = (state + 0x9E3779B97F4A7C15) % 2**64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) % 2**64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) % 2**64
        yield z ^ (z >> 31)


def reference_shuffle(stream, items: list) -> None:
    for i in range(len(items) - 1, 0, -1):
        j = next(stream) % (i + 1)
        items[i], items[j] = items[j], items[i]


SEEDS = [0, 1, 2**64 - 1, -12345]


class TestSplitMix64:
    def test_first_outputs_of_seed_0(self):
        rng = SplitMix64(0)
        assert [rng.next() for _ in range(3)] == \
            [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]

    @pytest.mark.parametrize("seed", SEEDS)
    def test_next(self, seed):
        rng, stream = SplitMix64(seed), reference_stream(seed)
        assert [rng.next() for _ in range(1000)] == [next(stream) for _ in range(1000)]

    @pytest.mark.parametrize("seed", SEEDS)
    def test_below(self, seed):
        rng, stream = SplitMix64(seed), reference_stream(seed)
        bounds = [1 + i % 97 for i in range(990)] + [2**k + 1 for k in range(54, 64)]
        assert [rng.below(b) for b in bounds] == [next(stream) % b for b in bounds]

    @pytest.mark.parametrize("seed", SEEDS)
    def test_chance(self, seed):
        rng, stream = SplitMix64(seed), reference_stream(seed)
        odds = [(i % 7, 1 + i % 11) for i in range(1000)]
        assert [rng.chance(p, q) for p, q in odds] == \
            [next(stream) % q < p for p, q in odds]

    @pytest.mark.parametrize("seed", SEEDS)
    def test_shuffle_and_sample(self, seed):
        rng, stream = SplitMix64(seed), reference_stream(seed)
        for size in (0, 1, 2, 10, 50):
            got, want = list(range(size)), list(range(size))
            rng.shuffle(got)
            reference_shuffle(stream, want)
            assert got == want
            want = list(range(size))
            reference_shuffle(stream, want)
            assert rng.sample(range(size), size // 2) == want[:size // 2]
