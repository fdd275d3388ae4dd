"""Exact sampling probabilities of random partitions under the
infinitely-many-neutral-alleles diffusion: stationary (Ewens), transient
(finite spectral expansion) and asymptotic (weak limits and large-deviation
rate functions with their phase transition).

Importing the package loads no submodule: each public name below is
imported from its module on first access, so the exact layer never pulls
in `mpmath` or the float layer unless something uses them.
"""

from importlib import import_module

#: Each public name and the submodule that defines it.
_MODULE_OF = {
    "EMPTY": "combinatorics",
    "IntegerPartition": "combinatorics",
    "enumerate_partitions": "combinatorics",
    "enumerate_set_partitions": "combinatorics",
    "multinomial_constant": "combinatorics",
    "esf_monomial_moment": "moments",
    "mixed_power_sum_moment": "moments",
    "power_sum_moment": "moments",
    "BasisElement": "basis",
    "build_basis": "basis",
    "inner_product": "basis",
    "FrequencyVector": "sampling",
    "consistency_check": "sampling",
    "monomial_sampler_bruteforce": "sampling",
    "monomial_sampler_expansion": "sampling",
    "sampling_probability": "sampling",
    "STATIONARY": "transient",
    "SpectralEvaluator": "transient",
    "TimePoint": "transient",
    "transient_sampling_probability": "transient",
    "RateFunctionResult": "rates",
    "rate_function": "rates",
    "RegimeSpec": "asymptotics",
    "ldp_slope_scan": "asymptotics",
    "lemma41_leading_term": "asymptotics",
    "lemma41_order_scan": "asymptotics",
    "moment_limit_scan": "asymptotics",
}

__all__ = sorted(_MODULE_OF)

__version__ = "0.1.0"


def __getattr__(name: str):
    try:
        module = _MODULE_OF[name]
    except KeyError:
        raise AttributeError("module %r has no attribute %r" % (__name__, name)) from None
    value = getattr(import_module("." + module, __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
