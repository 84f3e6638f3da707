#!/usr/bin/env python3
"""Compare a fresh micro bench record against a committed baseline.

Both files are single-object JSON records as emitted by
``micro_sim --bench-json=...`` (schema aaws-bench-sim/v1) or
``micro_runtime --bench-json=...`` (schema aaws-bench-runtime/v1);
baseline and current must carry the same schema, and the same
``topology`` and ``threads`` where both records have them.  The
comparison is *warn-only* by default: shared CI runners are far too
noisy to gate merges on throughput, so the job prints the delta,
annotates the log, and exits 0 unless ``--fail-below`` is given (for
local, quiet-machine use).

Usage:
    tools/bench_compare.py BASELINE CURRENT [--metric NAME]
        [--warn-below PCT] [--fail-below PCT]

Exit status: 0 on success or warning; 1 on malformed input; 2 when
--fail-below is set and the regression exceeds it.
"""

import argparse
import json
import sys

KNOWN_SCHEMAS = ("aaws-bench-sim/v1", "aaws-bench-runtime/v1")


def load_record(path):
    """Load one bench record, tolerating a trailing-newline JSONL file."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            text = f.read().strip()
    except OSError as e:
        raise SystemExit(f"bench_compare: cannot read {path}: {e}")
    if not text:
        raise SystemExit(f"bench_compare: {path} is empty")
    # Accept either a single object or the first line of a JSONL file.
    first = text.splitlines()[0]
    try:
        record = json.loads(first)
    except json.JSONDecodeError as e:
        raise SystemExit(f"bench_compare: {path} is not JSON: {e}")
    if not isinstance(record, dict):
        raise SystemExit(f"bench_compare: {path} is not a JSON object")
    schema = record.get("schema")
    if schema not in KNOWN_SCHEMAS:
        raise SystemExit(
            f"bench_compare: {path}: schema {schema!r}, "
            f"expected one of {KNOWN_SCHEMAS!r}")
    return record


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    parser.add_argument("baseline", help="committed baseline JSON record")
    parser.add_argument("current", help="freshly measured JSON record")
    parser.add_argument(
        "--metric", default="events_per_second",
        help="higher-is-better metric key to compare")
    parser.add_argument(
        "--warn-below", type=float, default=-10.0, metavar="PCT",
        help="emit a warning when delta %% falls below this")
    parser.add_argument(
        "--fail-below", type=float, default=None, metavar="PCT",
        help="exit 2 when delta %% falls below this (off by default)")
    args = parser.parse_args(argv)

    base = load_record(args.baseline)
    curr = load_record(args.current)
    if base.get("schema") != curr.get("schema"):
        raise SystemExit(
            f"bench_compare: schema mismatch: baseline is "
            f"{base.get('schema')!r}, current is {curr.get('schema')!r}")

    # Records carry the shape they measured: simulator records run
    # under a --topology restriction carry a topology tag, runtime
    # records the worker count.  A field on only one side is tolerated
    # (older baselines predate it; an untagged simulator record is the
    # default full sweep), but two different values mean the runs
    # measured different machine shapes and the delta would be
    # meaningless.
    for field in ("topology", "threads"):
        base_shape = base.get(field)
        curr_shape = curr.get(field)
        if base_shape == curr_shape:
            continue
        if base_shape is not None and curr_shape is not None:
            raise SystemExit(
                f"bench_compare: {field} mismatch: baseline measured "
                f"{base_shape!r}, current measured {curr_shape!r}")
        side = "baseline" if base_shape is not None else "current"
        shape = base_shape if base_shape is not None else curr_shape
        print(f"bench_compare: note: {field} only on {side} "
              f"({shape!r}); comparing anyway")

    for name, record, path in (("baseline", base, args.baseline),
                               ("current", curr, args.current)):
        if args.metric not in record:
            raise SystemExit(
                f"bench_compare: {name} {path} has no "
                f"{args.metric!r} field")

    base_v = float(base[args.metric])
    curr_v = float(curr[args.metric])
    if base_v <= 0:
        raise SystemExit(
            f"bench_compare: baseline {args.metric} is {base_v}, "
            "cannot compute a delta")
    delta_pct = 100.0 * (curr_v - base_v) / base_v

    print(f"bench_compare: {curr.get('bench', '?')} / {args.metric}")
    print(f"  baseline: {base_v:18,.2f}")
    print(f"  current:  {curr_v:18,.2f}")
    print(f"  delta:    {delta_pct:+17.2f}%")

    if delta_pct < args.warn_below:
        # ::warning:: renders as an annotation in GitHub Actions logs
        # and is harmless noise everywhere else.
        print(f"::warning title={curr.get('bench', '?')} "
              f"regression::{args.metric} "
              f"{delta_pct:+.2f}% vs committed baseline "
              f"(warn threshold {args.warn_below:+.1f}%)")
    else:
        print(f"  within warn threshold ({args.warn_below:+.1f}%)")

    if args.fail_below is not None and delta_pct < args.fail_below:
        print(f"bench_compare: FAIL — delta {delta_pct:+.2f}% below "
              f"--fail-below {args.fail_below:+.1f}%", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
