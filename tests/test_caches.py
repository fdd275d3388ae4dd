import importlib
import pkgutil
import random

import neutral_sampler
from neutral_sampler.combinatorics import IntegerPartition
from neutral_sampler.sampling import random_frequency_vector
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


def test_every_cache_is_bounded():
    caches = []
    for info in pkgutil.iter_modules(neutral_sampler.__path__):
        module = importlib.import_module("neutral_sampler." + info.name)
        caches += _bounds(module, info.name, module.__name__)
    ev = SpectralEvaluator(1)
    caches += _bounds(ev, "transient.SpectralEvaluator")
    caches += _bounds(ev._exact, "transient.ExactLayer")
    assert len(caches) >= 21
    assert [c for c in caches if c[1] is None] == []


def test_eigencoeff_cache_holds_at_most_its_bound():
    ev = SpectralEvaluator(1)
    eta, omega = IntegerPartition.of(2, 1), IntegerPartition.of(2)
    rng = random.Random(7)
    seen = set()
    while len(seen) < EIGENCOEFF_CACHE_SIZE + 50:
        x = random_frequency_vector(rng, max_atoms=4, with_dust=True)
        seen.add(x)
        ev.sampling_probability(eta, x, 1.0)
        ev.moment(omega, x, 1.0)
    for cache in (ev._sampler_eigencoeffs, ev._moment_eigencoeffs,
                  ev._exact.label_numerators, ev._sampler_terms, ev._moment_terms):
        assert cache.cache_info().currsize == EIGENCOEFF_CACHE_SIZE


def test_decay_cache_holds_at_most_its_bound():
    # One (m, t) entry per call for omega = (2), so more distinct times than
    # the bound fill the cache exactly to it.
    ev = SpectralEvaluator(1)
    x = random_frequency_vector(random.Random(7), max_atoms=3, with_dust=True)
    for i in range(DECAY_CACHE_SIZE + 50):
        ev.moment(IntegerPartition.of(2), x, i / 64)
    assert ev._decay.cache_info().currsize == DECAY_CACHE_SIZE
