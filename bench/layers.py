"""Per-layer metrics of the traced run, and the end-to-end metric each one
should move, written down before any optimisation is measured.

Layers are the program's modules.  Names ending in `.self_s` are the summed
self time of the spans of that name (a span's duration minus the time its
child spans cover); `.calls` count those spans; `.hit_ratio` is hits / (hits +
misses) from the lru_cache's own `cache_info()`, 0 when never called.  There
is one thread and no queue, so no layer waits.

| metric | should move | on |
| --- | --- | --- |
| combinatorics.set_partitions.count / .self_s / .hit_ratio | throughput_rps, latency_tail_ms, peak_rss_mb, max_n_in_budget | t0_distribution |
| sampling.expansion.self_s / .calls / .hit_ratio / .terms | latency_tail_ms, throughput_rps | t0_distribution |
| sampling.evaluate.self_s, sampling.power_sum_product.calls | latency_p50_ms | t0_distribution |
| sampling.bruteforce.self_s / .calls | throughput_rps (the oracle suite sits beyond the p75 tail) | cli_mix |
| moments.power_sum_moment.self_s / .calls / .hit_ratio, moments.esf.calls | throughput_rps; peak_rss_mb on ldp_theta_scan | ldp_theta_scan, transient_grid |
| basis.build_basis.self_s / .calls / .hit_ratio, basis.elements, basis.inner_product.calls / .self_s | latency_p50_ms, throughput_rps; latency_tail_ms on transient_grid | ldp_theta_scan, transient_grid |
| transient.evaluator.count, transient.eigen_coefficients.self_s / .calls | throughput_rps, latency_tail_ms, max_n_in_budget | transient_grid |
| transient.eigen_reuse_ratio | (reuse: 1 - eigen_coefficients calls / finite-t requests) | transient_grid |
| transient.combine.self_s / .calls (finite-t sampling_probability and moment) | latency_p50_ms | transient_grid |
| asymptotics.scan.self_s, asymptotics.points, asymptotics.uncertified_rows | latency_p50_ms | ldp_theta_scan |
| verify.checks / .failures / .self_s, cli.main.self_s, cli.nonzero_exits | latency_p50_ms, latency_tail_ms | cli_mix |
| cli.interpreter_s, cli.import_s | setup_s | every workload |
| trace.overhead_ratio | traced wall / untraced wall - 1 | every workload |
"""

from __future__ import annotations

PER_LAYER = (
    ("combinatorics.set_partitions.count", "count"),
    ("combinatorics.set_partitions.self_s", "s"),
    ("combinatorics.set_partitions.hit_ratio", "ratio"),
    ("sampling.expansion.self_s", "s"),
    ("sampling.expansion.calls", "count"),
    ("sampling.expansion.hit_ratio", "ratio"),
    ("sampling.expansion.terms", "count"),
    ("sampling.evaluate.self_s", "s"),
    ("sampling.power_sum_product.calls", "count"),
    ("sampling.bruteforce.self_s", "s"),
    ("sampling.bruteforce.calls", "count"),
    ("moments.power_sum_moment.self_s", "s"),
    ("moments.power_sum_moment.calls", "count"),
    ("moments.power_sum_moment.hit_ratio", "ratio"),
    ("moments.esf.calls", "count"),
    ("basis.build_basis.self_s", "s"),
    ("basis.build_basis.calls", "count"),
    ("basis.build_basis.hit_ratio", "ratio"),
    ("basis.elements", "count"),
    ("basis.inner_product.calls", "count"),
    ("basis.inner_product.self_s", "s"),
    ("transient.evaluator.count", "count"),
    ("transient.eigen_coefficients.self_s", "s"),
    ("transient.eigen_coefficients.calls", "count"),
    ("transient.eigen_reuse_ratio", "ratio"),
    ("transient.combine.self_s", "s"),
    ("transient.combine.calls", "count"),
    ("asymptotics.scan.self_s", "s"),
    ("asymptotics.points", "count"),
    ("asymptotics.uncertified_rows", "count"),
    ("verify.checks", "count"),
    ("verify.failures", "count"),
    ("verify.self_s", "s"),
    ("cli.main.self_s", "s"),
    ("cli.nonzero_exits", "count"),
    ("cli.interpreter_s", "s"),
    ("cli.import_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)


def per_layer_values(named: dict, counts: dict, caches: dict, extra: dict) -> dict:
    """Every PER_LAYER value from span totals (`named`: name -> [calls,
    self_s]), counters, cache [hits, misses] and the values measured outside
    the trace (`extra`)."""
    combine_calls = named.get("transient.combine", [0, 0.0])[0]
    eigen_calls = named.get("transient.eigen_coefficients", [0, 0.0])[0]
    values = dict(extra)
    values["transient.eigen_reuse_ratio"] = (
        1 - eigen_calls / combine_calls if combine_calls else 0.0)
    for metric, _ in PER_LAYER:
        if metric in values:
            continue
        prefix, _, kind = metric.rpartition(".")
        if metric in counts:
            values[metric] = counts[metric]
        elif kind == "self_s":
            values[metric] = named.get(prefix, [0, 0.0])[1]
        elif kind == "calls":
            values[metric] = named.get(prefix, [0, 0.0])[0]
        elif kind == "hit_ratio":
            hits, misses = caches.get(prefix, (0, 0))
            values[metric] = hits / (hits + misses) if hits + misses else 0.0
        else:
            values[metric] = 0
    return values
