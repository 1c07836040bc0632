#!/usr/bin/env python3
"""CI perf-smoke gate for the DES hot path.

Compares a fresh `bench_sim_scale --quick` run against the committed
perf-trajectory baseline (BENCH_sim_throughput.json) and fails if
events/sec regressed by more than the allowed fraction, or if the run is
not the committed simulation: its `fingerprint` and `events_executed`
must equal the committed "quick" row's (the DES is bit-deterministic, so
any difference is a behaviour change, not noise).

It also gates a counted cost: heap allocations per completed op
(`allocs_per_op`, counted by the bench's own operator new). Unlike a
rate, the count is the same on every host, so the only slack is
ALLOC_SLACK (2%) for allocation differences between standard-library
builds. A run more than that above the committed value fails; one more
than that below it is reported so the committed value can be lowered.

The quick config (8 servers x 64 tenants) is not part of the full sweep,
so the baseline file carries its own "quick" row, measured with the same
`--quick` command. The gate compares like with like: it fails if that
row is missing or was measured on a different config.

It also holds one benchmark workload's peak RSS under a committed
ceiling (--rss): the baseline's "rss_ceiling" row names the workload and
seed, the value measured when the ceiling was set, and the ceiling (that
value + 10%). Resident memory is counted, not timed, so it holds on a
loaded host; the slack covers allocator differences between C libraries.

Every malformed input fails with a one-line FAIL message, never a
traceback: a missing or truncated baseline is a repo bug CI should
report crisply, not a Python stack to dig through.

Usage:
  check_perf_smoke.py <quick.json> <committed_baseline.json> [max_regress]
      CI gate mode (exit 1 on regression or malformed input).
  check_perf_smoke.py --rss <workload> <result.json> <baseline.json>
      Fail when <result.json>, the last stdout line of
      `perfbench/run.py --workload <workload> --seed <row's seed>
      --seconds 0 --trace 0`, is incorrect or reports a peak_rss_mib above
      the baseline's "rss_ceiling" row for that workload.
  check_perf_smoke.py --append-trajectory <full.json> <baseline.json> <label>
      Record a PR's fresh `bench_sim_scale --out=full.json` sweep as one
      trajectory point in the baseline's "trajectory" history (the "rows"
      the CI gate compares against are left untouched).
"""
import json
import sys

ALLOC_SLACK = 0.02


def fail(msg):
    print(f"FAIL: {msg}")
    sys.exit(1)


def load_json(path, what):
    """Parse `path` or exit with a clear one-line message."""
    try:
        with open(path) as f:
            return json.load(f)
    except FileNotFoundError:
        fail(f"{what} {path} is missing")
    except IsADirectoryError:
        fail(f"{what} {path} is a directory, not a JSON file")
    except json.JSONDecodeError as e:
        fail(f"{what} {path} is not valid JSON ({e})")


def checked_rows(doc, path, what):
    """The document's "rows", validated just enough to use downstream."""
    if not isinstance(doc, dict) or not isinstance(doc.get("rows"), list):
        fail(f'{what} {path} is malformed: expected an object with a '
             f'"rows" list')
    rows = doc["rows"]
    for i, row in enumerate(rows):
        if not isinstance(row, dict) or not all(
                isinstance(row.get(k), (int, float))
                for k in ("servers", "tenants", "events_per_sec")):
            fail(f"{what} {path} is malformed: rows[{i}] lacks numeric "
                 f"servers/tenants/events_per_sec")
    return rows


def dump_baseline(doc):
    """Serialize in the bench's own style: one compact row per line."""
    out = ["{"]
    items = list(doc.items())
    for i, (key, value) in enumerate(items):
        comma = "," if i + 1 < len(items) else ""
        if isinstance(value, list):
            out.append(f'  "{key}": [')
            for j, row in enumerate(value):
                out.append("    " + json.dumps(row) +
                           ("," if j + 1 < len(value) else ""))
            out.append("  ]" + comma)
        else:
            out.append(f'  "{key}": {json.dumps(value)}{comma}')
    out.append("}")
    return "\n".join(out) + "\n"


def append_trajectory(full_path, base_path, label):
    full = load_json(full_path, "fresh full-sweep run")
    base = load_json(base_path, "committed baseline")
    rows = checked_rows(full, full_path, "fresh full-sweep run")
    checked_rows(base, base_path, "committed baseline")
    point = {
        "label": label,
        "events_per_sec": {
            f"{r['servers']}x{r['tenants']}": r["events_per_sec"]
            for r in rows
        },
    }
    base.setdefault("trajectory", []).append(point)
    with open(base_path, "w") as f:
        f.write(dump_baseline(base))
    print(f"trajectory: appended '{label}' "
          f"({len(point['events_per_sec'])} configs) to {base_path}")
    return 0


def gate(quick_path, base_path, max_regress):
    quick = load_json(quick_path, "quick run")
    base = load_json(base_path, "committed baseline")
    quick_rows = checked_rows(quick, quick_path, "quick run")
    checked_rows(base, base_path, "committed baseline")

    if quick.get("mode") != "quick" or len(quick_rows) != 1:
        fail(f"{quick_path} is not a --quick run")
    row = quick_rows[0]

    ref = base.get("quick")
    if ref is None:
        fail(f'{base_path} has no committed "quick" row')
    checked_rows({"rows": [ref]}, base_path, 'committed baseline "quick"')
    config = f"{row['servers']}x{row['tenants']}"
    if (ref["servers"], ref["tenants"]) != (row["servers"], row["tenants"]):
        fail(f"quick run is {config} but the committed quick row is "
             f"{ref['servers']}x{ref['tenants']}")

    for key in ("fingerprint", "events_executed"):
        if key not in row or key not in ref:
            fail(f'{key} missing from the quick run or the committed '
                 f'"quick" row')
        if row[key] != ref[key]:
            fail(f"determinism: quick {config} {key} = {row[key]} but the "
                 f'committed "quick" row has {ref[key]}')
    print(f"perf-smoke: quick {config} fingerprint={row['fingerprint']} "
          f"events={row['events_executed']} [deterministic]")

    allocs_ok = check_allocs(row, ref, config)

    got = row["events_per_sec"]
    want = ref["events_per_sec"]
    floor = want * (1.0 - max_regress)
    verdict = "ok" if got >= floor else "REGRESSION"
    print(f"perf-smoke: quick {config} = {got:.3e} ev/s; "
          f"committed quick {config} = {want:.3e} ev/s; "
          f"floor (-{max_regress:.0%}) = {floor:.3e} [{verdict}]")
    return 0 if got >= floor and allocs_ok else 1


def check_allocs(row, ref, config):
    """Heap allocations per op must not exceed the committed value by more
    than ALLOC_SLACK."""
    for doc, what in ((row, "quick run"), (ref, 'committed "quick" row')):
        if not isinstance(doc.get("allocs_per_op"), (int, float)):
            fail(f"allocs_per_op missing from the {what}")
    got = row["allocs_per_op"]
    want = ref["allocs_per_op"]
    ceiling = want * (1.0 + ALLOC_SLACK)
    if got > ceiling:
        verdict = "REGRESSION"
    elif got < want * (1.0 - ALLOC_SLACK):
        verdict = "ok, below the committed value: lower it"
    else:
        verdict = "ok"
    print(f"perf-smoke: quick {config} heap allocations = {got:.3f}/op; "
          f"committed = {want:.3f}/op; ceiling (+{ALLOC_SLACK:.0%}) = "
          f"{ceiling:.3f} [{verdict}]")
    return got <= ceiling


def check_rss(workload, result_path, base_path):
    """The workload's peak RSS must not exceed the committed ceiling."""
    result = load_json(result_path, "benchmark result")
    base = load_json(base_path, "committed baseline")
    row = base.get("rss_ceiling") if isinstance(base, dict) else None
    if not isinstance(row, dict) or not isinstance(
            row.get("ceiling_mib"), (int, float)):
        fail(f'{base_path} has no "rss_ceiling" row with a numeric '
             f'ceiling_mib')
    if row.get("workload") != workload:
        fail(f'the committed "rss_ceiling" row is for '
             f'{row.get("workload")!r}, not {workload!r}')
    if not isinstance(result, dict) or result.get("correct") is not True:
        fail(f"{result_path}: the {workload} run was not correct")
    try:
        got = float(result["metrics"]["peak_rss_mib"]["value"])
    except (KeyError, TypeError, ValueError):
        fail(f"{result_path} has no metrics.peak_rss_mib.value")
    ceiling = row["ceiling_mib"]
    verdict = "ok" if got <= ceiling else "REGRESSION"
    print(f"perf-smoke: {workload} seed {row.get('seed')} peak RSS = "
          f"{got:.1f} MiB; committed {row.get('measured_mib')} MiB, "
          f"ceiling {ceiling} MiB [{verdict}]")
    return 0 if got <= ceiling else 1


def main() -> int:
    if len(sys.argv) >= 2 and sys.argv[1] == "--rss":
        if len(sys.argv) != 5:
            print(__doc__)
            return 2
        return check_rss(sys.argv[2], sys.argv[3], sys.argv[4])
    if len(sys.argv) >= 2 and sys.argv[1] == "--append-trajectory":
        if len(sys.argv) != 5:
            print(__doc__)
            return 2
        return append_trajectory(sys.argv[2], sys.argv[3], sys.argv[4])
    if len(sys.argv) < 3:
        print(__doc__)
        return 2
    try:
        max_regress = float(sys.argv[3]) if len(sys.argv) > 3 else 0.20
    except ValueError:
        fail(f"max_regress must be a number, got {sys.argv[3]!r}")
    return gate(sys.argv[1], sys.argv[2], max_regress)


if __name__ == "__main__":
    sys.exit(main())
