#!/usr/bin/env python3
"""bench_pairs: alternating parent/change bpbench runs, summarized.

The host's speed drifts by tens of percent for minutes at a time, so a
performance claim compares two checkouts in alternating pairs of
bpbench runs rather than in two series. This runs the pairs, keeps
every run's output, and prints, for each end-to-end metric of
BENCHMARK.json, both sides' medians and quartiles, their ratio and in
how many pairs the change measured lower.

Usage:
  bench_pairs.py --parent DIR --change DIR --workload W
                 [--pairs N] [--seconds S] [--seed N] [--out DIR]
  bench_pairs.py --summarize DIR
  bench_pairs.py --self-test

Each run is `python3 bpbench/run.py --workload W --seed N --seconds S`
with the checkout as working directory. Pair i runs the parent first
when i is odd and the change first when i is even. Run i's standard
output is saved as OUT/pair-II-parent.txt or OUT/pair-II-change.txt
(standard error beside it, as .err); --summarize re-reads such a
directory. The default OUT is bench_pairs_out/W-seedN.

Exit codes: 0 when every run printed a result and all runs' `item`
lines (bpbench's per-Estimate lines) are identical; 1 when a run failed
or the `item` lines differ between any two runs; 2 on bad invocation.
`--self-test` drives the whole tool over canned outputs and a stub
bpbench.
"""

import argparse
import json
import os
import pathlib
import re
import statistics
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
RUN_NAME = re.compile(r"^pair-(\d+)-(parent|change)\.txt$")


def end_to_end_metrics(benchmark_json):
    """The end_to_end metric entries ({name, better, ...}) of a
    BENCHMARK.json."""
    with open(benchmark_json, encoding="utf-8") as handle:
        return json.load(handle)["end_to_end"]


def parse_run(text):
    """(item lines, metric values or None) of one run's standard
    output; the values are None when its last line is no result."""
    lines = text.rstrip("\n").split("\n")
    items = [line for line in lines if line.startswith("item")]
    try:
        result = json.loads(lines[-1])
        values = {name: float(entry["value"])
                  for name, entry in result["metrics"].items()}
    except (ValueError, KeyError, TypeError, AttributeError):
        values = None
    return items, values


def load_runs(directory):
    """{pair number: {side: run text}} of the runs saved in
    @p directory."""
    runs = {}
    for path in sorted(pathlib.Path(directory).iterdir()):
        match = RUN_NAME.match(path.name)
        if match:
            runs.setdefault(int(match.group(1)), {})[match.group(2)] = (
                path.read_text(encoding="utf-8"))
    return runs


def spread(values):
    """(median, first quartile, third quartile) of @p values."""
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return median, q1, q3


def summarize(runs, metrics, out=sys.stdout):
    """Print the comparison of @p runs ({pair: {side: text}}) over
    @p metrics; return the exit code."""
    status = 0
    parsed = {}
    for pair in sorted(runs):
        for side in SIDES:
            name = f"pair-{pair:02d}-{side}"
            if side not in runs[pair]:
                print(f"{name}: missing", file=out)
                status = 1
                continue
            items, values = parse_run(runs[pair][side])
            if values is None:
                print(f"{name}: no result", file=out)
                status = 1
            parsed[(pair, side)] = (items, values)

    complete = [pair for pair in sorted(runs)
                if all(parsed.get((pair, side), (None, None))[1] is not None
                       for side in SIDES)]
    print(f"{len(complete)} complete pairs", file=out)
    if complete:
        print(f"{'metric':<18} {'better':<7} {'parent median [q1, q3]':<28} "
              f"{'change median [q1, q3]':<28} {'ratio':>6}  change lower",
              file=out)
    for metric in metrics if complete else []:
        name = metric["name"]
        pairs = [(parsed[(p, "parent")][1].get(name),
                  parsed[(p, "change")][1].get(name)) for p in complete]
        pairs = [(a, b) for a, b in pairs if a is not None and b is not None]
        if not pairs:
            print(f"{name:<18} not reported", file=out)
            continue
        cells = []
        for side in (0, 1):
            median, q1, q3 = spread([pair[side] for pair in pairs])
            cells.append((median, f"{median:.4g} [{q1:.4g}, {q3:.4g}]"))
        ratio = cells[1][0] / cells[0][0] if cells[0][0] else float("nan")
        lower = sum(1 for a, b in pairs if b < a)
        print(f"{name:<18} {metric.get('better', '?'):<7} {cells[0][1]:<28} "
              f"{cells[1][1]:<28} {ratio:>6.3f}  {lower}/{len(pairs)}",
              file=out)

    first = None
    for key in sorted(parsed):
        items = parsed[key][0]
        if first is None:
            first = (key, items)
        elif items != first[1]:
            print(f"item lines differ: pair-{key[0]:02d}-{key[1]} against "
                  f"pair-{first[0][0]:02d}-{first[0][1]}", file=out)
            status = 1
    if first is not None and status == 0:
        print(f"item lines identical in all {len(parsed)} runs", file=out)
    return status


def run_pairs(args):
    """Run the pairs of @p args, saving every output; return the
    runs as load_runs() does."""
    out = pathlib.Path(args.out or
                       f"bench_pairs_out/{args.workload}-seed{args.seed}")
    out.mkdir(parents=True, exist_ok=True)
    command = [sys.executable, "bpbench/run.py", "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds)]
    checkouts = {"parent": args.parent, "change": args.change}
    for pair in range(1, args.pairs + 1):
        order = SIDES if pair % 2 == 1 else tuple(reversed(SIDES))
        for side in order:
            base = out / f"pair-{pair:02d}-{side}"
            with open(f"{base}.txt", "w", encoding="utf-8") as stdout, \
                    open(f"{base}.err", "w", encoding="utf-8") as stderr:
                done = subprocess.run(command, cwd=checkouts[side],
                                      stdout=stdout, stderr=stderr,
                                      check=False)
            print(f"pair {pair}/{args.pairs} {side}: exit {done.returncode}",
                  file=sys.stderr, flush=True)
    print(f"runs saved in {out}", file=sys.stderr)
    return load_runs(out)


# ---------------------------------------------------------------- self-test

CANNED_METRICS = [{"name": "bp_wall_s", "better": "lower"},
                  {"name": "items_ok_pct", "better": "higher"}]


def canned_run(bp_wall_s, item="item npb-is cycles=100"):
    """Standard output of one bpbench run, reduced to what is read."""
    result = {"correct": True, "attempted": 1, "failed": 0,
              "metrics": {"bp_wall_s": {"value": bp_wall_s, "unit": "s"},
                          "items_ok_pct": {"value": 100.0, "unit": "%"}}}
    return f"env nproc=4\n{item}\npass 1\n{json.dumps(result)}\n"


STUB_RUN_PY = """import pathlib, sys
with open(pathlib.Path.cwd().parent / "order.log", "a") as log:
    log.write(pathlib.Path.cwd().name + "\\n")
sys.stdout.write(pathlib.Path("canned.txt").read_text())
"""


def self_test():
    def check(condition, what):
        if not condition:
            raise AssertionError(what)

    # Three pairs; the change is lower in two of them.
    runs = {1: {"parent": canned_run(2.0), "change": canned_run(1.5)},
            2: {"parent": canned_run(1.8), "change": canned_run(1.9)},
            3: {"parent": canned_run(2.2), "change": canned_run(1.6)}}
    with tempfile.TemporaryDirectory() as tmp:
        report = pathlib.Path(tmp) / "report.txt"
        with open(report, "w", encoding="utf-8") as out:
            status = summarize(runs, CANNED_METRICS, out)
        text = report.read_text(encoding="utf-8")
    check(status == 0, "identical items must exit 0")
    row = next(line for line in text.splitlines()
               if line.startswith("bp_wall_s"))
    check("2 [1.9, 2.1]" in row, f"parent spread in {row!r}")
    check("1.6 [1.55, 1.75]" in row, f"change spread in {row!r}")
    check("0.800" in row and row.endswith("2/3"), f"ratio, count: {row!r}")
    check("item lines identical in all 6 runs" in text, text)

    # One run with a different Estimate, one without a result.
    for broken, what in ((canned_run(1.5, "item npb-is cycles=101"),
                          "item lines differ"),
                         ("item npb-is cycles=100\nkilled\n", "no result")):
        runs[2]["change"] = broken
        with tempfile.TemporaryDirectory() as tmp:
            report = pathlib.Path(tmp) / "report.txt"
            with open(report, "w", encoding="utf-8") as out:
                status = summarize(runs, CANNED_METRICS, out)
            text = report.read_text(encoding="utf-8")
        check(status == 1, f"{what} must exit 1")
        check(what in text, f"{what!r} missing from {text!r}")

    # The whole path: two stub checkouts, alternating order, saved runs
    # that --summarize reads back.
    with tempfile.TemporaryDirectory() as tmp:
        tmp = pathlib.Path(tmp)
        for side, wall in zip(SIDES, (2.0, 1.5)):
            (tmp / side / "bpbench").mkdir(parents=True)
            (tmp / side / "bpbench" / "run.py").write_text(
                STUB_RUN_PY, encoding="utf-8")
            (tmp / side / "canned.txt").write_text(canned_run(wall),
                                                   encoding="utf-8")
        args = argparse.Namespace(parent=str(tmp / "parent"),
                                  change=str(tmp / "change"),
                                  workload="paper-8c", pairs=3, seconds=1,
                                  seed=1, out=str(tmp / "out"))
        runs = run_pairs(args)
        order = (tmp / "order.log").read_text(encoding="utf-8").split()
        check(order == ["parent", "change", "change", "parent",
                        "parent", "change"], f"run order {order}")
        check(sorted(runs) == [1, 2, 3], f"saved pairs {sorted(runs)}")
        report = tmp / "report.txt"
        with open(report, "w", encoding="utf-8") as out:
            status = summarize(load_runs(tmp / "out"), CANNED_METRICS, out)
        text = report.read_text(encoding="utf-8")
        check(status == 0, text)
        check("0.750" in text and "3/3" in text, text)
    print("bench_pairs self-test: ok")
    return 0


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent")
    parser.add_argument("--change")
    parser.add_argument("--workload")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--seed", type=int, default=12345)
    parser.add_argument("--out")
    parser.add_argument("--summarize", metavar="DIR")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)

    if args.self_test:
        return self_test()
    metrics = end_to_end_metrics(ROOT / "BENCHMARK.json")
    if args.summarize:
        if not os.path.isdir(args.summarize):
            parser.error(f"{args.summarize} is not a directory")
        return summarize(load_runs(args.summarize), metrics)
    if not (args.parent and args.change and args.workload):
        parser.error("--parent, --change and --workload are required "
                     "unless --summarize or --self-test is given")
    if args.pairs < 1 or args.seconds < 1:
        parser.error("--pairs and --seconds must be at least 1")
    for checkout in (args.parent, args.change):
        if not os.path.isfile(os.path.join(checkout, "bpbench", "run.py")):
            parser.error(f"{checkout} has no bpbench/run.py")
    return summarize(run_pairs(args), metrics)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
