#!/usr/bin/env python3
"""Compare end-to-end records of a parent commit and a change.

    python3 bench/e2e/compare.py PARENT.jsonl CHANGE.jsonl [--benchmark BENCHMARK.json]

Each file holds records appended by `run.py --record FILE`, one JSON
object per line.  Run the two sides in alternating order (parent,
change, parent, ...) with the same seeds; the i-th parent record of a
workload is paired with the i-th change record.  Traced and --smoke
records are ignored: only plain runs measure end-to-end metrics.

For every workload x end-to-end metric the verdict is one of:

  gain          the change wins at least 9 of every 10 pairs (ties count
                for neither side), there are at least 10 pairs, and the
                medians differ by more than the parent's interquartile
                range;
  unresolved    the parent's own spread (IQR / median) is wider than the
                metric's bound, unless every change run beats every
                parent run;
  regression    the change's median is worse than the parent's by more
                than the bound;
  ok            none of the above.

The share of failed operations is compared too: a change that fails
more operations than its parent is reported, and no gain counts then.
Records with different host fingerprints or schemas are refused.

Exit status: 0 when nothing regressed and no more operations failed,
1 otherwise, 2 when the records cannot be compared.  Standard library
only.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

MIN_PAIRS = 10
WIN_SHARE = 0.9


class Refused(Exception):
    """The records cannot be compared."""


def load_records(path):
    """Plain (untraced, full-size) records of one file, in file order."""
    records = []
    for number, line in enumerate(Path(path).read_text().splitlines(), 1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as err:
            raise Refused(f"{path}:{number}: not JSON ({err})")
        if record.get("layers") is None and not record.get("smoke"):
            records.append(record)
    return records


def check_fingerprints(records):
    """Refuse unless every record was measured the same way (schema) on
    the same host and build."""
    if not records:
        raise Refused("no records to compare")
    schemas = sorted({str(record.get("schema")) for record in records})
    if len(schemas) > 1:
        raise Refused("records of different schemas: " + ", ".join(schemas))
    first = records[0]["fingerprint"]
    for record in records[1:]:
        if record["fingerprint"] != first:
            fields = sorted(k for k in set(first) | set(record["fingerprint"])
                            if first.get(k) != record["fingerprint"].get(k))
            raise Refused("fingerprints differ in " + ", ".join(fields) +
                          f": {first} vs {record['fingerprint']}")


def compare_metric(parent, change, bound, better):
    """Verdict for one metric; `parent` and `change` are paired lists."""
    sign = 1.0 if better == "higher" else -1.0
    p_med = statistics.median(parent)
    c_med = statistics.median(change)
    q1, _, q3 = statistics.quantiles(parent, n=4)
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    worse = -sign * (c_med - p_med) / p_med
    row = {
        "parent_median": p_med,
        "change_median": c_med,
        "parent_spread": (q3 - q1) / p_med,
        "change_vs_parent": sign * (c_med - p_med) / p_med,
        "wins": wins,
        "pairs": len(pairs),
    }
    if (len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs)
            and sign * (c_med - p_med) > q3 - q1):
        row["verdict"] = "gain"
    elif row["parent_spread"] > bound and not all_better:
        row["verdict"] = "unresolved"
    elif worse > bound:
        row["verdict"] = "regression"
    else:
        row["verdict"] = "ok"
    return row


def failed_share(records):
    attempted = sum(r["attempted"] for r in records)
    return sum(r["failed"] for r in records) / attempted if attempted else 0.0


def compare(parent_records, change_records, spec):
    """Rows for every workload x end-to-end metric, plus failure shares."""
    check_fingerprints(parent_records + change_records)
    result = {"rows": [], "failures": []}
    for workload in [w["name"] for w in spec["workloads"]]:
        parent = [r for r in parent_records if r["workload"] == workload]
        change = [r for r in change_records if r["workload"] == workload]
        if not parent or not change:
            continue
        n = min(len(parent), len(change))
        parent, change = parent[:n], change[:n]
        for metric in spec["end_to_end"]:
            name = metric["name"]
            row = compare_metric([r["metrics"][name]["value"] for r in parent],
                                 [r["metrics"][name]["value"] for r in change],
                                 metric["bound"], metric["better"])
            row.update(workload=workload, metric=name, bound=metric["bound"])
            result["rows"].append(row)
        p_fail, c_fail = failed_share(parent), failed_share(change)
        result["failures"].append({"workload": workload, "parent": p_fail,
                                   "change": c_fail,
                                   "more_failures": c_fail > p_fail})
    if not result["rows"]:
        raise Refused("no workload has records on both sides")
    more_failures = {f["workload"] for f in result["failures"]
                     if f["more_failures"]}
    for row in result["rows"]:
        if row["verdict"] == "gain" and row["workload"] in more_failures:
            row["verdict"] = "ok"
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--benchmark", default="BENCHMARK.json")
    args = parser.parse_args(argv)
    try:
        spec = json.loads(Path(args.benchmark).read_text())
        result = compare(load_records(args.parent),
                         load_records(args.change), spec)
    except (Refused, OSError, KeyError) as err:
        print(f"compare.py: refused: {err}", file=sys.stderr)
        return 2

    print(f"{'workload':16} {'metric':18} {'parent':>14} {'change':>14} "
          f"{'delta':>8} {'spread':>7} {'bound':>6} {'wins':>6}  verdict")
    for row in result["rows"]:
        print(f"{row['workload']:16} {row['metric']:18} "
              f"{row['parent_median']:14.6g} {row['change_median']:14.6g} "
              f"{row['change_vs_parent']:+8.2%} {row['parent_spread']:7.2%} "
              f"{row['bound']:6.0%} {row['wins']:>2}/{row['pairs']:<3}  "
              f"{row['verdict']}")
    for f in result["failures"]:
        note = "  MORE FAILURES" if f["more_failures"] else ""
        print(f"{f['workload']:16} failed share: parent {f['parent']:.4%}, "
              f"change {f['change']:.4%}{note}")
    bad = any(r["verdict"] == "regression" for r in result["rows"]) or any(
        f["more_failures"] for f in result["failures"])
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
