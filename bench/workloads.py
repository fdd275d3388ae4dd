"""Seeded inputs for the benchmark workloads.

Nothing here imports `neutral_sampler`: the program receives only the
requests built below.  A run is a sequence of rounds; round `r` of workload
`w` at seed `s` is drawn from its own `random.Random("w/s/r")`, so the same
seed always gives the same requests and each round is independent of how
many rounds ran before it.

Why each workload exists (the end-to-end metric each layer should move is
listed in `layers.py`):

- t0_distribution: every eta of n = 1..9 on four vectors, one of them with
  dust and one pure dust.  The first request for an eta pays the Bell-sum
  expansion (combinatorics, sampling); the others only evaluate power sums.
  No basis, moments or float work runs, so it bypasses those layers.
- transient_grid: at one seeded theta per round, every eta of n = 6 and 7 on
  two vectors over a t grid holding 0 and inf.  The first request per
  (theta, n) builds a basis, the first per (theta, eta, x) projects onto it,
  and every other t only runs the mpmath combine.
- ldp_theta_scan: slope-scan and weak-limit points along one seeded 20-point
  log grid from 1e2 to 1e8 per n; several etas of one n share the grid, so
  each basis is built once and hit once or twice.  k lies on both sides of
  the phase transition.
- cli_mix: the README's command shapes, one fresh interpreter per request;
  the only workload where cli, config and verify run.
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("t0_distribution", "transient_grid", "ldp_theta_scan", "cli_mix")

T0_MAX_N = 9
TRANSIENT_NS = (6, 7)
LDP_GRID_POINTS = 20
#: n -> (operation, eta or omega, k); k is chosen on both sides of the
#: phase transition (kinked branch for the first ldp triple, flat for the
#: second).
LDP_TRIPLES = {
    5: (("ldp", "2,2,1", "1/2"), ("ldp", "3,1,1", "3/2"), ("mls", "3,2", "1/2")),
    6: (("ldp", "3,3", "1"), ("ldp", "2,2,1,1", "3/2")),
    7: (("ldp", "3,2,1,1", "1/4"), ("ldp", "4,3", "3/2")),
}
LIGHT_SUITES = ("orthogonality", "normalization", "consistency", "rate-function")
HEAVY_SUITES = ("oracle", "all")
#: Pairs whose inner product <phi_eta, psi_xi> does not vanish, so
#: lemma41-scan has a slope to report.
LEMMA41_PAIRS = (("3", "2"), ("2,2", "2"), ("4", "2"), ("4", "3"),
                 ("3,2", "2"), ("2", None), ("3,3", None), ("4,2", None))


def partitions(n: int, cap: int | None = None):
    """Partitions of n as nonincreasing tuples, largest leading part first."""
    cap = n if cap is None else cap
    if n == 0:
        yield ()
        return
    for first in range(min(n, cap), 0, -1):
        for rest in partitions(n - first, first):
            yield (first,) + rest


def fmt_parts(parts) -> str:
    return ",".join(str(p) for p in parts)


def round_rng(workload: str, seed: int, index: int) -> random.Random:
    return random.Random("%s/%d/%d" % (workload, seed, index))


def vector(rng: random.Random, atoms: int, dust: bool) -> str:
    """A frequency vector with `atoms` atoms and, optionally, dust mass."""
    weights = [rng.randint(1, 20) for _ in range(atoms)]
    denom = sum(weights) + (rng.randint(1, 20) if dust else 0)
    return ",".join("%d/%d" % (w, denom) for w in weights)


def t_grid(rng: random.Random, inner: int = 6) -> list[str]:
    ts = sorted(10 ** rng.uniform(-3, 1) for _ in range(inner))
    return ["0"] + ["%.4g" % t for t in ts] + ["inf"]


def theta_pool() -> list[str]:
    return ["%d/4" % a for a in range(2, 202) if math.gcd(a, 4) < 4]


def t0_round(rng: random.Random, seed: int, index: int) -> list[dict]:
    xs = [vector(rng, 3, False), vector(rng, 5, False), vector(rng, 4, True), ""]
    return [{"op": "t0", "eta": fmt_parts(eta), "x": x}
            for n in range(1, T0_MAX_N + 1)
            for eta in partitions(n)
            for x in xs]


def transient_theta(seed: int, index: int) -> str:
    """Distinct thetas for the rounds of one seed: a seeded walk through a
    fixed pool, so that no two rounds of a run share a basis."""
    pool = theta_pool()
    random.Random("transient_grid/%d" % seed).shuffle(pool)
    return pool[index % len(pool)]


def transient_round(rng: random.Random, seed: int, index: int) -> list[dict]:
    theta = transient_theta(seed, index)
    xs = [vector(rng, 3, False), vector(rng, 3, True)]
    ts = t_grid(rng)
    return [{"op": "transient", "eta": fmt_parts(eta), "x": x,
             "theta": theta, "t": t}
            for n in TRANSIENT_NS
            for eta in partitions(n)
            for x in xs
            for t in ts]


def log_grid(rng: random.Random, points: int = LDP_GRID_POINTS,
             lo: float = 2.0, hi: float = 8.0) -> list[str]:
    """One jittered point per equal slice of [10^lo, 10^hi], as integers."""
    width = (hi - lo) / points
    return [str(round(10 ** (lo + width * (i + rng.random()))))
            for i in range(points)]


def ldp_round(rng: random.Random, seed: int, index: int) -> list[dict]:
    x = vector(rng, 3, False)
    out = []
    for n, triples in LDP_TRIPLES.items():
        for theta in log_grid(rng):
            for op, eta, k in triples:
                out.append({"op": op, "n": n, "eta": eta, "k": k,
                            "theta": theta, "x": x})
    return out


def random_rational(rng: random.Random) -> str:
    return "%d/%d" % (rng.randint(1, 30), rng.randint(1, 6))


def min2_partition(rng: random.Random, size: int) -> str:
    return fmt_parts(rng.choice([p for p in partitions(size) if p[-1] >= 2]))


def any_partition(rng: random.Random, size: int) -> str:
    return fmt_parts(rng.choice(list(partitions(size))))


def cli_round(rng: random.Random, seed: int, index: int) -> list[dict]:
    """Twenty commands: eighteen light shapes, one light and one heavy
    verify suite.  Heavy suites alternate so every round costs about the
    same, and two rounds leave ten requests beyond the p75 tail."""
    def x():
        return vector(rng, rng.randint(2, 5), rng.random() < 0.3)

    def sample_prob():
        return ["sample-prob", "--eta", any_partition(rng, rng.randint(2, 8)),
                "--x", x()]

    def moment():
        argv = ["moment", "--eta", min2_partition(rng, rng.randint(2, 5)),
                "--theta", random_rational(rng)]
        if rng.random() < 0.5:
            argv += ["--xi", min2_partition(rng, rng.randint(2, 3))]
        return argv

    def transient():
        t = "inf" if rng.random() < 0.25 else "%.4g" % 10 ** rng.uniform(-2, 1)
        return ["transient", "--eta", any_partition(rng, rng.randint(2, 6)),
                "--x", x(), "--theta", random_rational(rng), "--t", t]

    def rate_function():
        n = rng.randint(2, 8)
        return ["rate-function", "--n", str(n), "--eta", any_partition(rng, n),
                "--k", rng.choice(("0", "1/4", "1/2", "1", "3/2", "2", "inf"))]

    def basis():
        return ["basis", "--max-size", str(rng.randint(3, 5)),
                "--theta", random_rational(rng)]

    def weak_limit():
        return ["weak-limit-scan", "--omega", min2_partition(rng, rng.randint(2, 4)),
                "--x", x(), "--regime",
                rng.choice(("proportional:1", "proportional:3/2", "logarithmic:1/2",
                            "sublog")),
                "--theta-grid", "1e3:1e6:log"]

    def lemma41():
        eta, xi = rng.choice(LEMMA41_PAIRS)
        argv = ["lemma41-scan", "--eta", eta,
                "--theta-grid", rng.choice(("1e6", "1e5,1e6", "1e4:1e6:log"))]
        return argv + (["--xi", xi] if xi is not None else [])

    def ldp_scan():
        n = rng.randint(2, 5)
        return ["ldp-scan", "--n", str(n), "--eta", any_partition(rng, n),
                "--k", rng.choice(("1/4", "1/2", "1", "3/2")),
                "--theta-grid", "1e5:1e8:log", "--x", x()]

    shapes = ((sample_prob, 3), (moment, 2), (basis, 2), (transient, 3),
              (weak_limit, 2), (lemma41, 2), (rate_function, 2), (ldp_scan, 2))
    commands = [make() for make, count in shapes for _ in range(count)]
    commands += [
        ["verify", "--suite", rng.choice(LIGHT_SUITES)],
        ["verify", "--suite", HEAVY_SUITES[(seed + index) % len(HEAVY_SUITES)]],
    ]
    rng.shuffle(commands)
    return [{"op": "cli", "argv": argv} for argv in commands]


_ROUNDS = {
    "t0_distribution": t0_round,
    "transient_grid": transient_round,
    "ldp_theta_scan": ldp_round,
    "cli_mix": cli_round,
}


def round_requests(workload: str, seed: int, index: int) -> list[dict]:
    """The requests of round `index` of `workload` at `seed`."""
    return _ROUNDS[workload](round_rng(workload, seed, index), seed, index)


#: max_n_in_budget probe per workload: the route it times, the wall budget
#: in seconds, and the ladder of n (inclusive) so a faster program still
#: keeps the probe bounded.  Budgets sit between neighbouring rungs of the
#: current code, so the value is far from flipping.
PROBES = {
    "t0_distribution": {"route": "t0", "budget_s": 1.5, "ladder": (6, 16)},
    "transient_grid": {"route": "transient", "budget_s": 0.75, "ladder": (5, 14)},
    "ldp_theta_scan": {"route": "ldp", "budget_s": 0.75, "ladder": (5, 14)},
    "cli_mix": {"route": "cli", "budget_s": 1.8, "ladder": (6, 16)},
}


def probe_inputs(seed: int) -> dict:
    """The fresh vector, theta, t and k every probe rung of a seed uses."""
    rng = random.Random("probe/%d" % seed)
    return {"x": vector(rng, 3, False), "theta": rng.choice(theta_pool()),
            "t": "%.4g" % 10 ** rng.uniform(-1, 0),
            "ldp_theta": str(round(10 ** rng.uniform(3, 7))), "k": "1/2"}
