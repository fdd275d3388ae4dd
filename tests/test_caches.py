import gc
import importlib
import os
import pkgutil
import random
import subprocess
import sys
import weakref
from fractions import Fraction

import neutral_sampler
from neutral_sampler.combinatorics import (
    EMPTY,
    IntegerPartition,
    enumerate_partitions,
    enumerate_partitions_min2,
)
from neutral_sampler.moments import (
    STORE_CACHE_SIZE,
    _store,
    generator_children,
    label_numerators,
)
from neutral_sampler.sampling import (
    FrequencyVector,
    _power_sum_table,
    expansion_of_monomial_sampler,
    random_frequency_vector,
    sampling_probability,
)
from neutral_sampler.transient import (
    DECAY_CACHE_SIZE,
    EIGENCOEFF_CACHE_SIZE,
    EVALUATOR_CACHE_SIZE,
    SpectralEvaluator,
    get_evaluator,
)


def _bounds(namespace, prefix, module_name=None):
    return [("%s.%s" % (prefix, name), value.cache_parameters()["maxsize"])
            for name, value in vars(namespace).items()
            if hasattr(value, "cache_parameters")
            and (module_name is None or value.__module__ == module_name)]


#: Every lru_cache defined on a module or a class of the package.
CACHES = {
    "basis.build_basis",
    "combinatorics.enumerate_partitions",
    "combinatorics.enumerate_set_partitions",
    "moments._store",
    "moments.generator_children",
    "moments.power_sum_moment",
    "moments.level",
    "sampling._power_sum_table",
    "sampling.expansion_of_monomial_sampler",
    "transient.get_evaluator",
    "transient.SpectralEvaluator._decay_row",
    "transient.SpectralEvaluator._sampler_terms",
}


def test_every_cache_is_bounded():
    caches = []
    for info in pkgutil.iter_modules(neutral_sampler.__path__):
        module = importlib.import_module("neutral_sampler." + info.name)
        caches += _bounds(module, info.name, module.__name__)
    caches += _bounds(SpectralEvaluator, "transient.SpectralEvaluator")
    assert sorted(name for name, _ in caches) == sorted(CACHES)
    assert [c for c in caches if c[1] is None] == []


def test_eigencoeff_cache_holds_at_most_its_bound():
    ev = SpectralEvaluator(1)
    eta, omega = IntegerPartition.of(2, 1), IntegerPartition.of(2)
    rng = random.Random(7)
    seen = set()
    # Each vector adds one entry to the sampler cache and one store of
    # numerators, so this fills both past their bounds.
    while len(seen) < max(STORE_CACHE_SIZE, EIGENCOEFF_CACHE_SIZE) + 50:
        x = random_frequency_vector(rng, max_atoms=4, with_dust=True)
        seen.add(x)
        ev.sampling_probability(eta, x, 1.0)
        ev.moment(omega, x, 1.0)
    assert _store.cache_info().currsize == STORE_CACHE_SIZE
    assert ev._sampler_terms.cache_info().currsize == EIGENCOEFF_CACHE_SIZE


def test_evaluator_caches_hold_at_most_their_bounds_in_total():
    # 40 evaluators, more than get_evaluator keeps, each add 11 sampler terms
    # and 18 decay rows (top m = 1..6 at 3 times): 440 and 720 entries in
    # all, past both bounds.
    SpectralEvaluator._sampler_terms.cache_clear()
    SpectralEvaluator._decay_row.cache_clear()
    x = FrequencyVector.parse("1/2,1/3,1/6")
    for k in range(40):
        ev = SpectralEvaluator(Fraction(k + 1, 7))
        for eta in enumerate_partitions(6):
            for t in (0.25, 0.5, 1):
                ev.sampling_probability(eta, x, t)
    for cached, bound in ((SpectralEvaluator._sampler_terms, EIGENCOEFF_CACHE_SIZE),
                          (SpectralEvaluator._decay_row, DECAY_CACHE_SIZE)):
        info = cached.cache_info()
        assert info.misses > bound
        assert info.currsize == bound


def test_an_evaluator_is_freed_without_the_cyclic_collector():
    # No evaluator refers to itself, so reference counting frees one that is
    # dropped or that get_evaluator evicts; one that has computed a value is
    # freed with the last cache entry keyed by it.
    class_caches = (SpectralEvaluator._sampler_terms, SpectralEvaluator._decay_row)
    gc.disable()
    try:
        dropped = weakref.ref(SpectralEvaluator(Fraction(5, 3)))
        evicted = weakref.ref(get_evaluator(Fraction(123457, 1000)))
        for k in range(EVALUATOR_CACHE_SIZE + 1):
            get_evaluator(Fraction(k + 1, 1000003))
        assert dropped() is None
        assert evicted() is None
        ev = SpectralEvaluator(Fraction(5, 3))
        ev.sampling_probability(IntegerPartition.of(2, 1), FrequencyVector.parse("1/2"),
                                0.5)
        used = weakref.ref(ev)
        del ev
        assert used() is not None
        for cached in class_caches:
            cached.cache_clear()
        assert used() is None
    finally:
        gc.enable()


def _computed_labels() -> int:
    """Labels the recursion has computed so far: each asks for its children
    once, and nothing else asks."""
    return sum(generator_children.cache_info()[:2])


def test_label_cache_holds_every_label_up_to_size_17_on_one_vector():
    # The recursion from the 66 labels of size 17 visits all 297 labels with
    # parts >= 2 up to size 17, the empty one included; its one store holds
    # them, and the 296 others are computed once each.
    _store.cache_clear()
    table = FrequencyVector.of(Fraction(1, 2), Fraction(1, 3),
                               Fraction(1, 6)).integer_form
    before = _computed_labels()
    for label in enumerate_partitions_min2(17):
        label_numerators(1, 1, label, table)
    assert _computed_labels() - before == 296
    store = _store(1, 1, table)
    assert len(store) == 297 and EMPTY in store
    assert _store.cache_info().misses == 1


def test_a_second_pass_over_size_23_computes_no_label():
    # The 1254 labels with parts >= 2 up to size 23 (1255 with the empty
    # one) stay in their store, so asking again for every label of size 23
    # reads them all; a cache bounded by a count of labels below 1255 would
    # evict children and compute them again.
    table = FrequencyVector.parse("1/2,1/3,1/6").integer_form
    labels = enumerate_partitions_min2(23)
    first = [label_numerators(1, 1, label, table) for label in labels]
    before = _computed_labels()
    assert [label_numerators(1, 1, label, table) for label in labels] == first
    assert _computed_labels() == before


def test_sampler_expansion_computes_each_label_once():
    # Every eta of 20 reaches 1743 labels, each a miss once and kept.
    expansion_of_monomial_sampler.cache_clear()
    for eta in enumerate_partitions(20):
        expansion_of_monomial_sampler(eta)
    info = expansion_of_monomial_sampler.cache_info()
    assert info.misses == info.currsize <= info.maxsize


def test_power_sum_table_cache_holds_at_most_its_bound():
    bound = _power_sum_table.cache_parameters()["maxsize"]
    assert bound == 256
    rng = random.Random(11)
    keys = set()
    while len(keys) < bound + 50:
        x = random_frequency_vector(rng, max_atoms=4, with_dust=True)
        k_max = rng.randint(1, 9)
        keys.add((x, k_max))
        _power_sum_table(x, k_max)
        assert _power_sum_table.cache_info().currsize <= bound
    assert _power_sum_table.cache_info().currsize == bound


def test_power_sum_table_misses_once_per_vector_and_size():
    # Every eta of n <= 9 on four vectors, as in a t0_distribution round:
    # one table per (vector, size), read by every other eta of that size.
    vectors = [FrequencyVector.parse(text)
               for text in ("1/2,1/3,1/6", "1/2,1/4", "", "3/7,2/7")]
    _power_sum_table.cache_clear()
    for x in vectors:
        for n in range(1, 10):
            for eta in enumerate_partitions(n):
                sampling_probability(eta, x)
    info = _power_sum_table.cache_info()
    assert info.misses == 36
    assert info.hits == 4 * sum(len(enumerate_partitions(n)) for n in range(1, 10)) - 36


def test_a_cached_power_sum_table_is_a_pair_of_tuples():
    d_powers, sums = table = _power_sum_table(FrequencyVector.parse("1/2,1/3"), 4)
    assert type(table) is tuple and len(table) == 2
    assert type(d_powers) is tuple and type(sums) is tuple
    assert d_powers == (1, 6, 36, 216, 1296)
    assert sums[1:] == (6, 3**2 + 2**2, 3**3 + 2**3, 3**4 + 2**4)


def test_decay_cache_holds_at_most_its_bound():
    # Two (t, top) rows per call for omega = (2), the row of top m = 2 and
    # the one of m = 1 it extends, so more distinct times than the bound
    # fill the cache exactly to it.
    ev = SpectralEvaluator(1)
    x = random_frequency_vector(random.Random(7), max_atoms=3, with_dust=True)
    for i in range(DECAY_CACHE_SIZE + 50):
        ev.moment(IntegerPartition.of(2), x, i / 64)
        assert ev._decay_row.cache_info().currsize <= DECAY_CACHE_SIZE
    assert ev._decay_row.cache_info().currsize == DECAY_CACHE_SIZE


def _traffic(workload: str) -> dict:
    """{name: (hits, misses)} of one seed-1 round of `workload`, read from
    the A/B tool run on this checkout against itself; both sides agree."""
    tool = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "ab_rounds.py")
    root = os.path.join(os.path.dirname(__file__), os.pardir)
    proc = subprocess.run(
        [sys.executable, tool, root, root, "--workload", workload, "--rounds", "1",
         "--seed", "1"],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    rows = lines[lines.index("cache hits and misses: base -> change") + 1:]
    counts = {}
    for name, base_hits, base_misses, arrow, hits, misses in (row.split() for row in rows):
        assert (arrow, base_hits, base_misses) == ("->", hits, misses), name
        counts[name] = (int(hits), int(misses))
    return counts


def test_cache_traffic_lists_every_cache():
    # One transient_grid round names every cache above; the decay-row cache,
    # which this workload's t grid revisits, hits.
    rows = _traffic("transient_grid")
    assert rows.keys() == CACHES
    assert rows["transient.SpectralEvaluator._decay_row"][0] > 0


def test_cli_mix_traffic_hits_the_moment_cache():
    # cli_mix is the only workload that reaches power_sum_moment, each
    # command in an interpreter of its own.
    rows = _traffic("cli_mix")
    assert rows.keys() == CACHES
    assert rows["moments.power_sum_moment"][0] > 0
