"""What the benchmark process and the gateway process both need.

Workload definitions, seeded inputs on the fixed-point grid, the
plaintext oracle, and the pinned simulated cycle counts.  Both
processes import this module, so the model a gateway serves and the
model the oracle checks against come from the same function.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
#: spans, run records and the wire-count ledger go here (gitignored)
OUT = REPO / ".perfbench"

#: ``gc_pooled`` runs a closed loop over one connection to a gateway
#: subprocess serving with its default config; ``he_local`` drives a
#: CloudServer in process.
WORKLOADS = {
    "gc_pooled": dict(kind="gateway", fmt=(8, 4), rows=4, cols=8),
    "he_local": dict(kind="he", fmt=(8, 4), rows=4, cols=8, pool=0),
}

#: ``MAXelerator.schedule(rounds).total_cycles`` for each served
#: circuit, keyed by (bit width, rounds).  Simulated FPGA cycles, not
#: host time: they must repeat exactly, whatever the host code does.
SIM_TOTAL_CYCLES = {(8, 8): 203}


def use_source_tree() -> None:
    """Import ``repro`` from this checkout's ``src`` or exit non-zero."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no repro package under {SRC}\n")
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def drop_repro_overrides() -> None:
    """Remove every ``REPRO_*`` variable from this process's environment
    (and so from the gateway's), so both run the serving defaults the
    source tree ships."""
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]


def fixed_format(spec):
    from repro.fixedpoint import FixedPointFormat

    return FixedPointFormat(*spec)


def _grid_values(rng, fmt, shape) -> np.ndarray:
    """Uniform raw integers over the format's whole range, as floats
    that lie exactly on the grid (so encoding is lossless)."""
    lo = -(1 << (fmt.total_bits - 1))
    hi = (1 << (fmt.total_bits - 1)) - 1
    return rng.integers(lo, hi + 1, size=shape) / fmt.scale


def make_model(seed: int, fmt, rows: int, cols: int) -> np.ndarray:
    return _grid_values(np.random.default_rng([seed, 1]), fmt, (rows, cols))


def query_inputs(seed: int, stream: int, fmt, rows: int, cols: int):
    """Endless (row, x) pairs for one connection, drawn from ``seed``."""
    rng = np.random.default_rng([seed, 2, stream])
    while True:
        yield int(rng.integers(rows)), _grid_values(rng, fmt, cols)


def expected_mac(model: np.ndarray, fmt, row: int, x) -> float:
    """The quantised plaintext oracle: the exact integer MAC of the
    encoded operands, decoded at product scale."""
    w = [int(v) for v in fmt.encode_array(model[row])]
    xs = [int(v) for v in fmt.encode_array(x)]
    return fmt.decode_product(sum(a * b for a, b in zip(w, xs)))


def peak_rss_mb() -> float:
    """VmHWM of the calling process, in MiB."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM not found in /proc/self/status")
