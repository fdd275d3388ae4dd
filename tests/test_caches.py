import importlib
import pkgutil

import neutral_sampler


def test_every_cache_is_bounded():
    caches = []
    for info in pkgutil.iter_modules(neutral_sampler.__path__):
        module = importlib.import_module("neutral_sampler." + info.name)
        for name, value in vars(module).items():
            if hasattr(value, "cache_parameters") and value.__module__ == module.__name__:
                caches.append(("%s.%s" % (info.name, name),
                               value.cache_parameters()["maxsize"]))
    assert len(caches) >= 8
    assert [c for c in caches if c[1] is None] == []
