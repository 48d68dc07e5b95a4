#!/usr/bin/env python3
"""Run the rooftune benchmark suite (see bench/suite/README.md).

  run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--record FILE]
      Build the harness if needed, run one workload, print every metric with
      its unit, write the full result to <build>/results/, and print the
      result summary as the last line of standard output.

  run.py compare PARENT.jsonl CHANGE.jsonl
      Judge a change against its parent from runs recorded with --record.

  run.py test
      Build the suite with its tests and run them through ctest.

The build lives in $CARGO_TARGET_DIR (default .bench_build) under the
checkout root.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parent.parent
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def build_root():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return target if target.is_absolute() else ROOT / target


def cmake_build(build_dir, target, tests):
    """Configure (once) and build `target`; build output goes to stderr."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no rooftune sources at {ROOT / 'src'}; run from a full checkout")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(SUITE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release",
                      f"-DROOFTUNE_SUITE_TESTS={'ON' if tests else 'OFF'}"])
    steps.append(["cmake", "--build", str(build_dir), "-j", jobs]
                 + (["--target", target] if target else []))
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(step))


def load_benchmark():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def print_metrics(result):
    for name, m in result["metrics"].items():
        extra = f"n={m['n']}"
        if m.get("p_hi") is not None:
            extra += f", p{m['p_hi_pct']:.0f}={m['p_hi']:.6g}"
        print(f"  {name:<44} {m['value']:>16.6g} {m['unit']:<8} ({extra})")
    for name, value in sorted(result.get("details", {}).items()):
        print(f"  detail {name:<37} {value:>16.6g}")
    for failure in result["failures"]:
        print(f"  FAILED {failure}")


def run(args):
    build = build_root()
    suite_build = build / "suite"
    cmake_build(suite_build, "rooftune_bench", tests=False)
    binary = suite_build / "rooftune_bench"

    results = build / "results"
    results.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = build / "work" / f"{tag}-{os.getpid()}"
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", str(workdir)]
    if args.trace:
        cmd += ["--spans", str(results / f"{tag}.trace.json")]
    env = dict(os.environ, OMP_NUM_THREADS=str(os.cpu_count() or 1))
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"rooftune_bench exceeded {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"rooftune_bench exited with {proc.returncode}")
    result = json.loads(lines[-1])
    declared = {m["name"]: m["unit"]
                for m in load_benchmark()["per_layer" if args.trace else "end_to_end"]}
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    if emitted != declared:
        fail("the harness's metrics differ from BENCHMARK.json's: "
             f"{sorted(set(emitted.items()) ^ set(declared.items()))}")

    print(f"{args.workload} seed {args.seed} trace {args.trace}: "
          f"{result['passes']} passes, {result['attempted']} checks, "
          f"{result['failed']} failed")
    print_metrics(result)
    (results / f"{tag}.json").write_text(json.dumps(result, indent=1) + "\n")
    if args.record:
        with open(args.record, "a") as record:
            record.write(json.dumps(result) + "\n")

    summary = {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in result["metrics"].items()},
    }
    print(json.dumps(summary))


def read_runs(path):
    runs = {}
    for line in Path(path).read_text().splitlines():
        if line.strip():
            r = json.loads(line)
            if not r["trace"]:
                runs.setdefault(r["workload"], []).append(r)
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def verdict(metric, parent, change):
    """One metric on one workload, by the rules in README.md, "Comparing a change"."""
    lower = metric["better"] == "lower"
    bound = metric["bound"]
    p = [r["metrics"][metric["name"]]["value"] for r in parent]
    c = [r["metrics"][metric["name"]]["value"] for r in change]
    p_med, c_med = statistics.median(p), statistics.median(c)
    q1, q3 = quartiles(p)
    iqr = q3 - q1
    # Exact: the metric repeated bit for bit across the passes of every run.
    exact = all(r["metrics"][metric["name"]]["repeat"] and r["metrics"][metric["name"]]["n"] > 1
                for r in parent + change)

    def better(a, b):
        return a < b if lower else a > b

    wins = sum(better(cv, pv) for pv, cv in zip(p, c))
    worse_by = (c_med - p_med) / p_med if lower else (p_med - c_med) / p_med
    row = {"parent": p_med, "change": c_med, "parent_q1": q1, "parent_q3": q3,
           "wins": wins, "pairs": len(p)}
    if exact:
        row["verdict"] = ("identical" if p == c else
                          "gain" if better(c_med, p_med) else "changed")
    elif len(p) < 10:
        row["verdict"] = "too few pairs"
    elif wins >= 0.9 * len(p) and abs(c_med - p_med) > iqr:
        row["verdict"] = "gain"
    elif iqr / p_med > bound:
        everyone_better = all(better(cv, pv) for cv in c for pv in p)
        row["verdict"] = "better" if everyone_better else "unresolved"
    elif worse_by > bound:
        row["verdict"] = "regressed"
    else:
        row["verdict"] = "within bound"
    return row


def compare(args):
    bench = load_benchmark()
    parent, change = read_runs(args.parent), read_runs(args.change)
    bad = False
    for workload in [w["name"] for w in bench["workloads"]]:
        ps, cs = parent.get(workload, []), change.get(workload, [])
        if not ps or not cs:
            continue
        # Pair runs by seed, in recorded order within a seed.
        by_seed = {}
        for r in cs:
            by_seed.setdefault(r["seed"], []).append(r)
        pairs = [(p, by_seed[p["seed"]].pop(0)) for p in ps if by_seed.get(p["seed"])]
        p_runs, c_runs = [a for a, _ in pairs], [b for _, b in pairs]
        print(f"{workload}: {len(pairs)} pairs")
        for metric in bench["end_to_end"]:
            row = verdict(metric, p_runs, c_runs)
            bad |= row["verdict"] in ("regressed", "changed")
            print(f"  {metric['name']:<22} parent {row['parent']:.6g} "
                  f"[{row['parent_q1']:.6g}, {row['parent_q3']:.6g}]  "
                  f"change {row['change']:.6g}  wins {row['wins']}/{row['pairs']}  "
                  f"{row['verdict']}")
        rate = [sum(r["failed"] for r in runs) / max(1, sum(r["attempted"] for r in runs))
                for runs in (p_runs, c_runs)]
        bad |= rate[1] > rate[0]
        print(f"  {'fail_rate':<22} parent {rate[0]:.6g}  change {rate[1]:.6g}  "
              f"delta {rate[1] - rate[0]:+.6g}")
    return 1 if bad else 0


def test(_args):
    build = build_root() / "suite-tests"
    cmake_build(build, None, tests=True)
    env = dict(os.environ, OMP_NUM_THREADS=str(os.cpu_count() or 1))
    return subprocess.run(["ctest", "--test-dir", str(build), "--output-on-failure",
                           "-j", str(os.cpu_count() or 1)], env=env).returncode


def main():
    if len(sys.argv) > 1 and sys.argv[1] == "compare":
        parser = argparse.ArgumentParser(prog="run.py compare")
        parser.add_argument("parent")
        parser.add_argument("change")
        return compare(parser.parse_args(sys.argv[2:]))
    if len(sys.argv) > 1 and sys.argv[1] == "test":
        return test(None)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=2021)
    parser.add_argument("--seconds", type=float, default=16)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", help="append the full result to this JSONL file")
    run(parser.parse_args())
    return 0


if __name__ == "__main__":
    sys.exit(main())
