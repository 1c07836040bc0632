#!/usr/bin/env python3
"""A/B the benchmark between two trees in alternating pairs.

    python3 scripts/perf_ab.py --workload stream_parity --pairs 10 --seconds 30 \
        [--base HEAD] [--change worktree] [--seed 1] [--claim host_ops_per_s] \
        [--scratch /tmp/perf_ab]

Run from anywhere inside the repository. The defaults compare the
uncommitted working tree with HEAD; for a committed change pass
--base HEAD~1 --change HEAD. Each side is exported into its own
directory under --scratch, a revision with `git archive` and `worktree` (the
default change) as the checked-out files, tracked and untracked but not
ignored, as they stand. Each export's perfbench/ is built there into its own
build directory, the way perfbench/run.py builds it, so nothing outside
--scratch is written and no network is used.

Then --pairs pairs of runs of `csar_perfbench --workload W --seed S
--seconds T --trace 0` follow, alternating which side runs first (pair 0 runs
the base first). Every run must report correct with no failed op. For each
end-to-end metric in BENCHMARK.json the script prints each side's median and
quartiles, the pairs the change won and lost (ties count for neither), the
median of the per-pair ratios change/base, and a verdict on the metric's
bound: "within" when the change's median is within the bound of the
base's, "WORSE than" when it is not, and "unresolved" when the base's
interquartile range is wider than the bound allows, so the runs cannot
tell a change of that size from noise, unless every change run beats every
base run. For --claim it also prints whether the gain rule holds: the change
wins at least nine tenths of the pairs, and the medians differ, in the
better direction, by more than the distance between the base's quartiles.
The simulated results (the sim_* metrics, storage_ratio and the `sim:`
fingerprint and event lines) are deterministic, so the script checks that
every run of one side reports the same ones, and prints each sim_* or
storage_ratio metric whose value differs between the sides. The exit status
is 0 when every run was correct, 1 otherwise.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile


def git(root, *args, stdout=subprocess.PIPE):
    return subprocess.run(["git", "-C", root, *args], check=True,
                          stdout=stdout)


def export(root, rev, dest):
    """The files of `rev` (or of the working tree, rev == 'worktree')."""
    if os.path.exists(dest):
        shutil.rmtree(dest)
    os.makedirs(dest)
    if rev == "worktree":
        names = git(root, "ls-files", "-co", "--exclude-standard",
                    "-z").stdout.decode().split("\0")
        for name in filter(None, names):
            src = os.path.join(root, name)
            if not os.path.isfile(src):
                continue  # listed but deleted in the working tree
            os.makedirs(os.path.dirname(os.path.join(dest, name)),
                        exist_ok=True)
            shutil.copy2(src, os.path.join(dest, name))
        return
    proc = subprocess.Popen(["git", "-C", root, "archive", "--format=tar",
                             rev], stdout=subprocess.PIPE)
    with tarfile.open(fileobj=proc.stdout, mode="r|") as tar:
        if hasattr(tarfile, "data_filter"):
            tar.extractall(dest, filter="data")
        else:
            tar.extractall(dest)
    if proc.wait() != 0:
        sys.exit(f"perf_ab: git archive {rev} failed")


def build(src, build_dir, jobs):
    """Build perfbench of the exported tree `src`; returns the binary."""
    subprocess.run(["cmake", "-S", os.path.join(src, "perfbench"), "-B",
                    build_dir, "-DCMAKE_BUILD_TYPE=Release"], check=True,
                   stdout=subprocess.DEVNULL)
    subprocess.run(["cmake", "--build", build_dir, "-j", str(jobs)],
                   check=True, stdout=subprocess.DEVNULL)
    return os.path.join(build_dir, "csar_perfbench")


def run(binary, args):
    """One untraced run: the result object of its last line, and its
    `sim:` report lines (the simulation's fingerprint and event count)."""
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", "0"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    sim = [line for line in lines if line.startswith("sim:")]
    try:
        return json.loads(lines[-1]), sim
    except (IndexError, ValueError):
        return {"correct": False, "failed": -1, "metrics": {}}, sim


def quartiles(xs):
    """(q1, median, q3), statistics.quantiles with n=4."""
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--base", default="HEAD",
                    help="revision of the parent side (default HEAD)")
    ap.add_argument("--change", default="worktree",
                    help="revision of the change side, or 'worktree' "
                         "(the default) for the checked-out files")
    ap.add_argument("--claim", default="host_ops_per_s",
                    help="end-to-end metric the change claims to improve")
    ap.add_argument("--scratch", default=os.path.join(
        os.environ.get("TMPDIR", "/tmp"), "perf_ab"))
    ap.add_argument("--jobs", type=int, default=min(4, os.cpu_count() or 1))
    args = ap.parse_args()
    if args.pairs < 1 or args.seconds < 0 or args.seed < 0:
        ap.error("--pairs must be positive, --seconds and --seed "
                 "non-negative")

    root = git(os.getcwd(), "rev-parse",
               "--show-toplevel").stdout.decode().strip()
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = {m["name"]: m for m in json.load(f)["end_to_end"]}
    if args.claim not in spec:
        ap.error(f"--claim {args.claim} is not an end-to-end metric")

    binaries = {}
    for side, rev in (("base", args.base), ("change", args.change)):
        src = os.path.join(args.scratch, side)
        export(root, rev, src)
        binaries[side] = build(src, os.path.join(args.scratch,
                                                 side + "-build"), args.jobs)
        print(f"{side}: {rev} built", flush=True)

    runs = {"base": [], "change": []}
    sim_lines = {"base": set(), "change": set()}
    all_correct = True
    for i in range(args.pairs):
        order = ("base", "change") if i % 2 == 0 else ("change", "base")
        for side in order:
            r, sim = run(binaries[side], args)
            sim_lines[side].add("\n".join(sim))
            ok = r.get("correct") is True and r.get("failed") == 0
            all_correct = all_correct and ok
            runs[side].append(r["metrics"])
            value = r["metrics"].get(args.claim, {}).get("value")
            print(f"pair {i} {side:6} {args.claim}={value} "
                  f"{'ok' if ok else 'INCORRECT'}", flush=True)

    print(f"\nworkload {args.workload} seed {args.seed} seconds "
          f"{args.seconds}: {args.pairs} pairs, base {args.base}, change "
          f"{args.change}")
    print(f"{'metric':22} {'base median [q1, q3]':34} "
          f"{'change median [q1, q3]':34} {'ratio':>7} {'won':>4} "
          f"{'lost':>4}  bound")
    for name, m in spec.items():
        b = [r[name]["value"] for r in runs["base"] if name in r]
        c = [r[name]["value"] for r in runs["change"] if name in r]
        if len(b) != args.pairs or len(c) != args.pairs:
            print(f"{name:22} missing from some runs")
            continue
        higher = m["better"] == "higher"
        bq, cq = quartiles(b), quartiles(c)
        won = sum((y > x) if higher else (y < x) for x, y in zip(b, c))
        lost = sum((y < x) if higher else (y > x) for x, y in zip(b, c))
        ratio = statistics.median(y / x if x else 1.0 for x, y in zip(b, c))
        worse = (bq[1] - cq[1]) if higher else (cq[1] - bq[1])
        bound = m["bound"] * abs(bq[1])
        beats_all = (min(c) > max(b)) if higher else (max(c) < min(b))
        if bq[2] - bq[0] > bound and not beats_all:
            verdict = "unresolved at"
        else:
            verdict = "within" if worse <= bound else "WORSE than"
        print(f"{name:22} {bq[1]:12.6g} [{bq[0]:.6g}, {bq[2]:.6g}]".ljust(57)
              + f" {cq[1]:12.6g} [{cq[0]:.6g}, {cq[2]:.6g}]".ljust(35)
              + f" {ratio:7.4f} {won:4} {lost:4}  "
              + verdict + f" {m['bound']:g}")
        if name == args.claim:
            gain = -worse
            holds = won >= 0.9 * args.pairs and gain > bq[2] - bq[0]
            print(f"  claim {name}: won {won}/{args.pairs}, median gain "
                  f"{gain:.6g} vs base IQR {bq[2] - bq[0]:.6g}: rule "
                  + ("holds" if holds else "does not hold"))

    sim = sorted(n for n in spec if n.startswith("sim_")
                 or n == "storage_ratio")
    for side in ("base", "change"):
        values = {json.dumps([r.get(n, {}).get("value") for n in sim])
                  for r in runs[side]}
        print(f"{side}: simulated metrics and sim: lines identical across "
              "its runs: " + ("yes" if len(values) == 1
                              and len(sim_lines[side]) == 1 else "NO"))
    differ = False
    for n in sim:
        b = runs["base"][0].get(n, {}).get("value")
        c = runs["change"][0].get(n, {}).get("value")
        if b != c:
            differ = True
            print(f"  {n} differs: base {b}, change {c}")
    if sim_lines["base"] != sim_lines["change"]:
        differ = True
        print("  sim: lines differ between the sides")
    if not differ:
        print("simulated metrics and sim: lines identical across the sides")
    print("every run correct with 0 failed ops: "
          + ("yes" if all_correct else "NO"))
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
