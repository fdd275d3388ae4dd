"""Run configuration: precision, size cap and output format."""

from __future__ import annotations

import os

from .records import Record

PRECISION_ENV_VAR = "NEUTRAL_SAMPLER_PRECISION"

#: Working precision of every float command and scan unless a run configures
#: another.
DEFAULT_PRECISION_BITS = 256

#: Largest size a sized command takes unless a run configures another.
DEFAULT_MAX_N = 8

#: Most precision bits a run may ask for: mpf work grows with the precision,
#: and at this ceiling a 64-point `ldp-scan --n 8` still takes seconds.
MAX_PRECISION_BITS = 8192


def check_precision(bits: int) -> int:
    if not 64 <= bits <= MAX_PRECISION_BITS:
        raise ValueError("precision_bits must be in [64, %d], got %d"
                         % (MAX_PRECISION_BITS, bits))
    return bits


class RunConfig(Record):
    _fields = ("precision_bits", "max_n", "output_format")

    def __init__(self, precision_bits: int = DEFAULT_PRECISION_BITS,
                 max_n: int = DEFAULT_MAX_N, output_format: str = "json"):
        self.precision_bits = precision_bits
        self.max_n = max_n
        self.output_format = output_format
        check_precision(self.precision_bits)
        if self.max_n < 1:
            raise ValueError("max_n must be positive")
        if self.output_format not in ("json", "csv"):
            raise ValueError("output_format must be json or csv")


_INT_KEYS = ("precision_bits", "max_n")


def load_config(path: str | None = None, overrides: dict | None = None) -> RunConfig:
    """Build a RunConfig from env, an optional key=value file and explicit
    overrides (in increasing priority) over RunConfig's defaults."""
    values: dict = {}
    env_prec = os.environ.get(PRECISION_ENV_VAR)
    if env_prec:
        values["precision_bits"] = int(env_prec)
    if path:
        with open(path) as fh:
            for line in fh:
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ValueError("bad config line: %r" % line)
                key, _, val = line.partition("=")
                key, val = key.strip(), val.strip().strip('"')
                if key in _INT_KEYS:
                    values[key] = int(val)
                elif key == "output_format":
                    values[key] = val
                else:
                    raise ValueError("unknown config key: %r" % key)
    if overrides:
        values.update({k: v for k, v in overrides.items() if v is not None})
    return RunConfig(**values)
