"""Benchmark-regression gate: freshly measured vs committed ``BENCH_*.json``.

CI measures every benchmark on the pull request's code and then calls this
script, which compares the throughput/speedup fields of the fresh records
against the values committed at ``HEAD`` (read through ``git show``, so the
fresh files can overwrite the working tree copies first):

* a fresh value below ``committed / warn_factor`` (default 2x) prints a
  warning — shared CI runners are noisy, so a modest slide only surfaces;
* a fresh value below ``committed / fail_factor`` (default 5x) **fails the
  build** — a collapse of that size is a lost fast path (a vectorized
  kernel silently degraded to a Python loop),
  not machine noise;
* a deterministic field that misses its exact value (a mapping
  verification error other than 0.0, see :func:`exact_failures`) **fails
  the build**, whatever the committed record says.

Usage::

    python benchmarks/check_regression.py [--names sweep,cycle,...]
        [--warn-factor 2.0] [--fail-factor 5.0]
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

#: repo root (this file lives in benchmarks/)
REPO_ROOT = Path(__file__).resolve().parent.parent

#: benchmark name -> higher-is-better fields guarded against regression.
#: Only same-machine ratios belong here: a raw wall-clock field compared
#: against a baseline committed from a different machine would fail CI for
#: the runner's speed, not for the code.
WATCHED_FIELDS: Dict[str, List[str]] = {
    "sweep": ["batch_points_per_s", "speedup_vs_scalar"],
    "cycle": ["speedup_vs_scalar"],
    "functional": ["speedup_vs_scalar", "vectorized_windows_per_s"],
    "mapping": ["candidates_per_second"],
    # both fields are deterministic model outputs (no wall clock): the
    # modeled multiply reduction of the worst eligible VGG-16 layer and the
    # modeled cycle speedup the algorithm axis buys on VGG-16 throughput
    "winograd": ["vgg16_min_mac_reduction", "vgg16_throughput_cycle_speedup"],
    # overhead percentages and per-op nanosecond costs are wall-clock
    # measurements on a shared runner — machine noise between machines; the
    # benchmark asserts its own bit-identity and (in timing mode) the
    # 1%/5% overhead budgets, so the record is tracked but not ratio-gated
    "obs": [],
    # points/s and queue waits are wall-clock throughput on a shared
    # runner — machine noise between machines; the benchmark asserts its
    # own floor in timing mode (>=5x coalesce speedup), so the record is
    # tracked but not ratio-gated
    "serve": [],
}


def exact_failures(name: str, fresh: Dict[str, Any]) -> List[str]:
    """Deterministic fields of a fresh record that miss their exact value.

    The fixed-point datapath is exact, so every searched mapping must
    reproduce the im2col golden reference bit for bit: each network's
    ``verification.max_abs_error`` in the mapping record is exactly 0.0.
    """
    if name != "mapping":
        return []
    networks = fresh.get("networks") or {}
    failures = [] if networks else ["mapping: the fresh record has no networks"]
    for network in sorted(networks):
        error = networks[network].get("verification", {}).get("max_abs_error")
        verdict = "ok" if error == 0.0 else "FAIL"
        print(f"[mapping] {network} verification.max_abs_error: {error!r} "
              f"(required exactly 0.0) {verdict}")
        if verdict == "FAIL":
            failures.append(f"mapping.networks.{network}.verification.max_abs_error: "
                            f"{error!r}, required exactly 0.0")
    return failures


def committed_record(name: str) -> Optional[Dict[str, Any]]:
    """The ``BENCH_<name>.json`` committed at HEAD (``None`` when absent)."""
    result = subprocess.run(
        ["git", "show", f"HEAD:BENCH_{name}.json"],
        capture_output=True, text=True, cwd=REPO_ROOT,
    )
    if result.returncode != 0:
        return None
    try:
        return json.loads(result.stdout)
    except ValueError:
        return None


def fresh_record(name: str) -> Optional[Dict[str, Any]]:
    """The freshly measured ``BENCH_<name>.json`` in the working tree."""
    path = REPO_ROOT / f"BENCH_{name}.json"
    if not path.is_file():
        return None
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except ValueError:
        return None


def compare(name: str, warn_factor: float, fail_factor: float) -> List[str]:
    """Failures for one benchmark (warnings print as a side effect)."""
    fresh = fresh_record(name)
    committed = committed_record(name)
    if fresh is None:
        print(f"[{name}] no fresh record — benchmark did not run, skipping")
        return []
    failures = exact_failures(name, fresh)
    if committed is None:
        print(f"[{name}] no committed baseline — first measurement, "
              "skipping the ratio checks")
        return failures
    for field in WATCHED_FIELDS.get(name, []):
        was, now = committed.get(field), fresh.get(field)
        if not isinstance(was, (int, float)) or not isinstance(now, (int, float)):
            continue
        if was <= 0:
            continue
        ratio = now / was
        verdict = "ok"
        if now * fail_factor < was:
            verdict = "FAIL"
            failures.append(
                f"{name}.{field}: {now:.4g} vs committed {was:.4g} "
                f"({ratio:.2f}x, below the 1/{fail_factor:g} collapse floor)"
            )
        elif now * warn_factor < was:
            verdict = "WARN (shared-runner noise or a real slide)"
        print(f"[{name}] {field}: committed {was:.4g} -> fresh {now:.4g} "
              f"({ratio:.2f}x) {verdict}")
    return failures


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--names", default=",".join(sorted(WATCHED_FIELDS)),
                        help="comma-separated benchmark names to check")
    parser.add_argument("--warn-factor", type=float, default=2.0,
                        help="warn when fresh < committed / this (default 2)")
    parser.add_argument("--fail-factor", type=float, default=5.0,
                        help="fail when fresh < committed / this (default 5)")
    args = parser.parse_args(argv)
    if args.fail_factor < args.warn_factor:
        parser.error("--fail-factor must be >= --warn-factor")

    failures: List[str] = []
    for name in args.names.split(","):
        name = name.strip()
        if not name:
            continue
        if name not in WATCHED_FIELDS:
            parser.error(f"unknown benchmark {name!r}; "
                         f"known: {', '.join(sorted(WATCHED_FIELDS))}")
        failures += compare(name, args.warn_factor, args.fail_factor)
    if failures:
        print("\nbenchmark regression gate FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print("\nbenchmark regression gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
