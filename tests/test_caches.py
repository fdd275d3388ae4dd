import importlib
import os
import pkgutil
import random
import subprocess
import sys
from fractions import Fraction

import neutral_sampler
from neutral_sampler.combinatorics import (
    IntegerPartition,
    enumerate_partitions,
    enumerate_partitions_min2,
)
from neutral_sampler.moments import LABEL_CACHE_SIZE, label_numerators
from neutral_sampler.sampling import (
    FrequencyVector,
    _power_sum_table,
    random_frequency_vector,
    sampling_probability,
)
from neutral_sampler.transient import (
    DECAY_CACHE_SIZE,
    EIGENCOEFF_CACHE_SIZE,
    SpectralEvaluator,
)


def _bounds(namespace, prefix, module_name=None):
    return [("%s.%s" % (prefix, name), value.cache_parameters()["maxsize"])
            for name, value in vars(namespace).items()
            if hasattr(value, "cache_parameters")
            and (module_name is None or value.__module__ == module_name)]


#: Every lru_cache of the package and of its evaluators.
CACHES = {
    "basis.build_basis",
    "combinatorics.coarsening_weights",
    "combinatorics.enumerate_partitions",
    "combinatorics.enumerate_set_partitions",
    "moments._moment_polynomial",
    "moments.generator_children",
    "moments.power_sum_moment",
    "moments.label_numerators",
    "moments.level",
    "sampling._power_sum_table",
    "sampling.expansion_of_monomial_sampler",
    "transient.get_evaluator",
    "transient.SpectralEvaluator._decay_row",
    "transient.SpectralEvaluator._rate",
    "transient.SpectralEvaluator._sampler_terms",
}


def test_every_cache_is_bounded():
    caches = []
    for info in pkgutil.iter_modules(neutral_sampler.__path__):
        module = importlib.import_module("neutral_sampler." + info.name)
        caches += _bounds(module, info.name, module.__name__)
    ev = SpectralEvaluator(1)
    caches += _bounds(ev, "transient.SpectralEvaluator")
    assert sorted(name for name, _ in caches) == sorted(CACHES)
    assert [c for c in caches if c[1] is None] == []


def test_eigencoeff_cache_holds_at_most_its_bound():
    ev = SpectralEvaluator(1)
    eta, omega = IntegerPartition.of(2, 1), IntegerPartition.of(2)
    rng = random.Random(7)
    seen = set()
    # Each vector adds one entry to the sampler cache and at least one to the
    # label cache, so this fills both past their bounds.
    while len(seen) < LABEL_CACHE_SIZE + 50:
        x = random_frequency_vector(rng, max_atoms=4, with_dust=True)
        seen.add(x)
        ev.sampling_probability(eta, x, 1.0)
        ev.moment(omega, x, 1.0)
    assert label_numerators.cache_info().currsize == LABEL_CACHE_SIZE
    assert ev._sampler_terms.cache_info().currsize == EIGENCOEFF_CACHE_SIZE


def test_label_cache_holds_every_label_up_to_size_17_on_one_vector():
    # The recursion from the 66 labels of size 17 visits all 297 labels with
    # parts >= 2 up to size 17; a bound below that evicts children it still
    # needs, and each one recomputed is a second miss for the same entry.
    label_numerators.cache_clear()
    table = FrequencyVector.of(Fraction(1, 2), Fraction(1, 3),
                               Fraction(1, 6)).integer_form
    for label in enumerate_partitions_min2(17):
        label_numerators(1, 1, label, table)
    info = label_numerators.cache_info()
    assert info.currsize == 297
    assert info.misses == info.currsize


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


def test_cache_traffic_lists_every_cache():
    # One transient_grid round of the traffic tool names every cache above;
    # the decay-row cache, which this workload's t grid revisits, hits.
    tool = os.path.join(os.path.dirname(__file__), os.pardir, "tools",
                        "cache_traffic.py")
    proc = subprocess.run(
        [sys.executable, tool, "transient_grid", "--seed", "1", "--rounds", "1"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[-1].endswith(", failed 0")
    rows = {name: (int(hits), int(misses))
            for name, hits, misses in (line.split() for line in lines[1:-1])}
    assert rows.keys() == CACHES
    assert rows["transient.SpectralEvaluator._decay_row"][0] > 0
