#!/usr/bin/env python3
"""Interleaved parent/change comparison on the repository benchmark.

    python3 tools/perf_pairs.py --base REV [--head REV|worktree] \
        --workload adhoc|analytic|serve_rw --seed N [--pairs 10] \
        [--traced N] [--workdir DIR]
    python3 tools/perf_pairs.py --selftest

Builds each side from `git archive REV` (or uses the working tree as it is
for `--head worktree`, the default), each into its own absolute
CARGO_TARGET_DIR under --workdir (the working tree's is named after its
checkout path, so checkouts can share a --workdir), and then runs
perfbench/run.py on both sides in pairs, alternating which side runs
first: the host drifts by tens of percent over minutes, so back-to-back
blocks of one side mislead. Every run lasts BENCHMARK.json's run_seconds,
which fixes each workload's op count.

For every end-to-end metric BENCHMARK.json declares, it prints both sides'
median and quartiles, the change in the median, and the pairs the head side
won or tied, plus `failed` and `correct` per side. Per query template it
prints both sides' median of the runs' median latencies (perfbench's stderr
line per template), so a change can be attributed to queries. The verdict
follows the benchmark's bounds (each a fraction of the base median):

  * regression  - the head median is worse than the base median by more
                  than the bound;
  * unresolved  - the base runs' own spread (interquartile range over the
                  median) exceeds the bound, so the bound cannot be judged,
                  unless every head run reads better than every base run;
  * gain        - the head side won at least 9 of 10 pairs (ties count for
                  neither) and the medians differ by more than the base
                  quartile distance;
  * within bound otherwise.

More failed operations on the head side, or any run with correct false,
make the overall verdict a regression. --workdir keeps the sources and
builds, so later calls for other workloads rebuild nothing.

--traced N (default 0) attributes the comparison to layers: after the
pairs it makes N `--trace 1` runs per side, alternating which side runs
first, and prints every per-layer metric BENCHMARK.json declares that
either side reports non-zero, with both sides' median and the change.
Traced runs report only per-layer metrics and take no part in the verdict.
"""
import argparse
import hashlib
import json
import math
import os
import re
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


# ---- statistics and verdicts (covered by --selftest) ----------------------

def quantile(values, q):
    """Linear interpolation between closest ranks (numpy's default)."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def summary(values):
    return {"median": quantile(values, 0.5), "q1": quantile(values, 0.25),
            "q3": quantile(values, 0.75)}


def worse_by(base, head, better):
    """How much worse head is than base, as a fraction of base (<0: better)."""
    delta = head - base if better == "lower" else base - head
    if base == 0:
        return 0.0 if delta == 0 else math.copysign(math.inf, delta)
    return delta / abs(base)


def judge(base_runs, head_runs, better, bound):
    """Verdict for one metric; base_runs[i] and head_runs[i] form pair i."""
    b, h = summary(base_runs), summary(head_runs)
    improves = (lambda x, y: y < x) if better == "lower" else (
        lambda x, y: y > x)
    wins = sum(improves(x, y) for x, y in zip(base_runs, head_runs))
    ties = sum(x == y for x, y in zip(base_runs, head_runs))
    worse = worse_by(b["median"], h["median"], better)
    spread = (b["q3"] - b["q1"]) / abs(b["median"]) if b["median"] else 0.0
    all_better = all(improves(x, y) for x in base_runs for y in head_runs)
    if (wins >= 0.9 * len(base_runs) and worse < 0 and
            abs(h["median"] - b["median"]) > b["q3"] - b["q1"]):
        verdict = "gain"
    elif spread > bound and not all_better:
        verdict = "unresolved"
    elif worse > bound:
        verdict = "regression"
    else:
        verdict = "within bound"
    return {"base": b, "head": h, "worse_by": worse, "spread": spread,
            "wins": wins, "ties": ties, "verdict": verdict}


# perfbench's per-template stderr line:
#   "  name  N ops, p25 X, median X, p75 X, max X ms"
TEMPLATE_LINE = re.compile(r"^\s+(\S+)\s+\d+ ops, p25\s+\S+, median\s+(\S+), "
                           r"p75\s+\S+, max\s+\S+ ms$")


def template_medians(stderr):
    """{template: median latency in ms} from one run's standard error."""
    out = {}
    for line in stderr.splitlines():
        m = TEMPLATE_LINE.match(line)
        if m:
            out[m.group(1)] = float(m.group(2))
    return out


def template_table(base_runs, head_runs):
    """Per template (in the base's order): both sides' median of the runs'
    medians, the change, and the pairs in which the head's was lower."""
    names = []
    for run in base_runs + head_runs:
        names += [n for n in run if n not in names]
    rows = []
    for n in names:
        pairs = [(b[n], h[n]) for b, h in zip(base_runs, head_runs)
                 if n in b and n in h]
        if not pairs:
            continue
        bm = quantile([b for b, _ in pairs], 0.5)
        hm = quantile([h for _, h in pairs], 0.5)
        rows.append({"template": n, "base": bm, "head": hm,
                     "change": (hm - bm) / bm if bm else 0.0,
                     "wins": sum(h < b for b, h in pairs),
                     "pairs": len(pairs)})
    return rows


def layer_table(declared, base_runs, head_runs):
    """Per-layer metrics, in declaration order, that either side reports
    non-zero in some traced run (each run a {metric: value} dict): both
    sides' median and the change (None where a side has no value or the
    base median is 0)."""
    rows = []
    for m in declared:
        name = m["name"]
        b = [r[name] for r in base_runs if name in r]
        h = [r[name] for r in head_runs if name in r]
        if not any(b + h):
            continue
        bm = quantile(b, 0.5) if b else None
        hm = quantile(h, 0.5) if h else None
        change = (hm - bm) / abs(bm) if bm and hm is not None else None
        rows.append({"metric": name, "unit": m["unit"], "base": bm,
                     "head": hm, "change": change})
    return rows


def overall(verdicts, base_failed, head_failed, all_correct):
    if not all_correct or head_failed > base_failed or "regression" in verdicts:
        return "regression"
    return "unresolved" if "unresolved" in verdicts else "no regression"


def selftest():
    assert quantile([4, 1, 3, 2], 0.5) == 2.5
    assert quantile([1, 2, 3, 4, 5], 0.25) == 2
    assert quantile([7], 0.75) == 7
    assert abs(worse_by(100, 110, "lower") - 0.10) < 1e-12
    assert abs(worse_by(100, 110, "higher") + 0.10) < 1e-12
    assert worse_by(0, 0, "lower") == 0.0
    tight = [100, 101, 99, 100, 100, 101, 99, 100, 100, 100]
    # 30% slower on a lower-is-better metric with a tight base: regression.
    r = judge(tight, [x * 1.3 for x in tight], "lower", 0.25)
    assert r["verdict"] == "regression" and r["wins"] == 0, r
    # 10% slower: within the bound.
    assert judge(tight, [x * 1.1 for x in tight], "lower",
                 0.25)["verdict"] == "within bound"
    # 3x ops_per_s, every pair won: gain.
    r = judge(tight, [x * 3 for x in tight], "higher", 0.25)
    assert r["verdict"] == "gain" and r["wins"] == 10, r
    # Wins in 8 of 10 pairs is not a gain.
    head = [x * 3 for x in tight[:8]] + [50, 50]
    assert judge(tight, head, "higher", 0.25)["verdict"] != "gain"
    # Ties count for neither side.
    r = judge(tight, list(tight), "lower", 0.25)
    assert r["ties"] == 10 and r["wins"] == 0 and r["verdict"] == "within bound"
    # A base spread wider than the bound cannot be judged ...
    noisy = [60, 140, 70, 130, 80, 120, 90, 110, 100, 100]
    assert judge(noisy, list(noisy), "lower", 0.25)["verdict"] == "unresolved"
    # ... unless every head run reads better than every base run.
    assert judge(noisy, [10] * 10, "lower", 0.25)["verdict"] == "gain"
    # Winning every pair by a shift inside the base spread is no gain.
    r = judge(noisy, [x - 5 for x in noisy], "lower", 0.25)
    assert r["wins"] == 10 and r["verdict"] == "unresolved", r
    # ok_share 0.86 -> 1.00 (higher is better) is a gain; 1.00 -> 0.90 with
    # a 0.05 bound is a regression.
    assert judge([0.86] * 10, [1.0] * 10, "higher", 0.05)["verdict"] == "gain"
    assert judge([1.0] * 10, [0.9] * 10, "higher",
                 0.05)["verdict"] == "regression"
    assert overall(["within bound", "gain"], 0, 0, True) == "no regression"
    assert overall(["within bound", "unresolved"], 0, 0, True) == "unresolved"
    assert overall(["regression", "unresolved"], 0, 0, True) == "regression"
    assert overall(["within bound"], 0, 1, True) == "regression"
    assert overall(["within bound"], 0, 0, False) == "regression"
    err = ("[100%] Built target tqp_perfbench\n"
           "op sequence: 133 ops, digest dbc8e2580936780e\n"
           "  select_sort                      19 ops, p25    30.228, "
           "median    31.316, p75    34.692, max    42.851 ms\n"
           "  write                             3 ops, p25     1.000, "
           "median     2.500, p75     3.000, max     4.000 ms\n"
           "analytic: 133 ops, 133 ok, 0 failed, 7.502 s timed\n")
    assert template_medians(err) == {"select_sort": 31.316, "write": 2.5}
    assert template_medians("no template lines\n") == {}
    rows = template_table([{"q": 10.0, "r": 4.0}, {"q": 12.0, "r": 4.0},
                           {"q": 14.0}],
                          [{"q": 5.0, "r": 5.0}, {"q": 13.0, "r": 3.0},
                           {"q": 7.0}])
    assert [r["template"] for r in rows] == ["q", "r"], rows
    assert rows[0]["base"] == 12.0 and rows[0]["head"] == 7.0, rows
    assert rows[0]["wins"] == 2 and rows[0]["pairs"] == 3, rows
    assert rows[1]["base"] == 4.0 and rows[1]["head"] == 4.0, rows
    assert rows[1]["wins"] == 1 and rows[1]["pairs"] == 2, rows
    decl = [{"name": "a.ms", "unit": "ms"}, {"name": "b.count", "unit": "n"},
            {"name": "c.ms", "unit": "ms"}, {"name": "d.ms", "unit": "ms"}]
    rows = layer_table(decl,
                       [{"a.ms": 4.0, "b.count": 0.0, "c.ms": 0.0},
                        {"a.ms": 6.0, "b.count": 0.0, "c.ms": 0.0}],
                       [{"a.ms": 2.0, "b.count": 0.0, "c.ms": 1.0},
                        {"a.ms": 3.0, "b.count": 0.0}])
    # All-zero and unreported metrics are left out; the order is declared.
    assert [r["metric"] for r in rows] == ["a.ms", "c.ms"], rows
    assert rows[0]["base"] == 5.0 and rows[0]["head"] == 2.5, rows
    assert rows[0]["change"] == -0.5 and rows[0]["unit"] == "ms", rows
    # A zero base median has no relative change.
    assert rows[1]["base"] == 0.0 and rows[1]["head"] == 1.0, rows
    assert rows[1]["change"] is None, rows
    assert layer_table(decl, [], []) == []
    label = worktree_label("/src/one")
    assert re.fullmatch(r"worktree-[0-9a-f]{8}", label), label
    assert label == worktree_label("/src/one/")
    assert label != worktree_label("/src/two")
    print("perf_pairs selftest: OK")


# ---- building and running -------------------------------------------------

def git(*args):
    return subprocess.run(["git", "-C", ROOT] + list(args), check=True,
                          capture_output=True, text=True).stdout.strip()


def worktree_label(root):
    """The build label of the checkout at `root`. It names the checkout, so
    two checkouts paired against one --workdir keep separate builds (CMake
    refuses a build directory configured from another source)."""
    digest = hashlib.sha256(os.path.realpath(root).encode()).hexdigest()
    return "worktree-" + digest[:8]


class Side:
    def __init__(self, rev, workdir):
        self.rev = rev
        if rev == "worktree":
            self.label = worktree_label(ROOT)
            self.src = ROOT
        else:
            self.label = git("rev-parse", "--short=12", rev + "^{commit}")
            self.src = os.path.join(workdir, self.label + "-src")
            if not os.path.isdir(self.src):
                os.makedirs(self.src)
                archive = subprocess.Popen(
                    ["git", "-C", ROOT, "archive", self.label],
                    stdout=subprocess.PIPE)
                subprocess.run(["tar", "-x", "-C", self.src],
                               stdin=archive.stdout, check=True)
                if archive.wait() != 0:
                    sys.exit(f"perf_pairs: git archive {rev} failed")
        self.target = os.path.join(workdir, self.label + "-target")

    def run(self, workload, seed, seconds, trace=0):
        env = dict(os.environ, CARGO_TARGET_DIR=self.target)
        p = subprocess.run(
            [sys.executable, os.path.join(self.src, "perfbench", "run.py"),
             "--workload", workload, "--seed", str(seed), "--seconds",
             str(seconds), "--trace", str(trace)],
            cwd=self.src, env=env, capture_output=True, text=True)
        lines = p.stdout.strip().splitlines()
        if p.returncode != 0 or not lines:
            sys.exit(f"perf_pairs: {self.label} {workload} exited "
                     f"{p.returncode}\n{p.stderr[-3000:]}")
        result = json.loads(lines[-1])
        result["templates"] = template_medians(p.stderr)
        return result


def value(result, metric):
    """One metric of a run.py result line: {"metrics": {name: {"value"}}}."""
    return result["metrics"][metric]["value"]


def compare(args):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    declared = bench["end_to_end"]
    seconds = bench["run_seconds"]
    workdir = os.path.abspath(args.workdir or tempfile.mkdtemp(
        prefix="perf_pairs-"))
    os.makedirs(workdir, exist_ok=True)
    base, head = Side(args.base, workdir), Side(args.head, workdir)
    print(f"# {args.workload} seed {args.seed}, {args.pairs} pairs: base "
          f"{base.label}, head {head.label} (workdir {workdir})", flush=True)
    # The first run of each side builds it; its numbers are discarded.
    for side in (base, head):
        side.run(args.workload, args.seed, seconds)
    runs = {"base": [], "head": []}
    for i in range(args.pairs):
        order = [("base", base), ("head", head)]
        if i % 2 == 1:
            order.reverse()
        for name, side in order:
            runs[name].append(side.run(args.workload, args.seed, seconds))
        print(f"pair {i + 1}: " + ", ".join(
            f"{n} ops_per_s {value(runs[n][-1], 'ops_per_s'):.4g}"
            for n in ("base", "head")), flush=True)

    print(f"\n{'metric':<15}{'bound':>6}  {'base median [q1, q3]':<30}"
          f"{'head median [q1, q3]':<30}{'change':>8}  {'wins/ties':<10}"
          f"verdict")
    verdicts = []
    for m in declared:
        b = [value(r, m["name"]) for r in runs["base"]]
        h = [value(r, m["name"]) for r in runs["head"]]
        r = judge(b, h, m["better"], m["bound"])
        verdicts.append(r["verdict"])
        fmt = lambda s: f"{s['median']:.4g} [{s['q1']:.4g}, {s['q3']:.4g}]"
        bm, hm = r["base"]["median"], r["head"]["median"]
        change = (hm - bm) / abs(bm) if bm else 0.0
        print(f"{m['name']:<15}{m['bound']:>6}  {fmt(r['base']):<30}"
              f"{fmt(r['head']):<30}{change:>+8.1%}  "
              f"{r['wins']}/{r['ties']:<8}{r['verdict']}"
              + (f" (base spread {r['spread']:.2f})"
                 if r["verdict"] == "unresolved" else ""))
    print(f"\n{'query template':<32}{'base median':>12}{'head median':>12}"
          f"{'change':>9}  wins")
    for r in template_table([x["templates"] for x in runs["base"]],
                            [x["templates"] for x in runs["head"]]):
        print(f"{r['template']:<32}{r['base']:>12.4g}{r['head']:>12.4g}"
              f"{r['change']:>+9.1%}  {r['wins']}/{r['pairs']}")
    traced = {"base": [], "head": []}
    for i in range(args.traced):
        order = [("base", base), ("head", head)]
        if i % 2 == 1:
            order.reverse()
        for name, side in order:
            traced[name].append(side.run(args.workload, args.seed, seconds,
                                         trace=1))
    if args.traced:
        print(f"\n{'per-layer metric (traced)':<34}{'unit':>6}"
              f"{'base median':>13}{'head median':>13}{'change':>9}")
        fmt = lambda v: "-" if v is None else f"{v:.4g}"
        values = {n: [{m: v["value"] for m, v in x["metrics"].items()}
                      for x in traced[n]] for n in traced}
        for r in layer_table(bench["per_layer"], values["base"],
                             values["head"]):
            change = "-" if r["change"] is None else f"{r['change']:+.1%}"
            print(f"{r['metric']:<34}{r['unit']:>6}{fmt(r['base']):>13}"
                  f"{fmt(r['head']):>13}{change:>9}")
        print("traced: " + ", ".join(
            f"{n} failed {sum(r['failed'] for r in traced[n])}, correct "
            f"{all(r['correct'] for r in traced[n])}" for n in traced))
    failed = {n: sum(r["failed"] for r in runs[n]) for n in runs}
    correct = {n: all(r["correct"] for r in runs[n]) for n in runs}
    print(f"failed: base {failed['base']}, head {failed['head']}; correct: "
          f"base {correct['base']}, head {correct['head']}")
    print("runs: " + json.dumps({n: [{m: v["value"] for m, v in
                                      r["metrics"].items()} for r in runs[n]]
                                 for n in runs}))
    print("verdict: " + overall(verdicts, failed["base"], failed["head"],
                                correct["base"] and correct["head"]))


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--base")
    p.add_argument("--head", default="worktree")
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--traced", type=int, default=0)
    p.add_argument("--workdir")
    p.add_argument("--selftest", action="store_true")
    args = p.parse_args()
    if args.selftest:
        selftest()
        return
    if not args.base or not args.workload:
        p.error("--base and --workload are required")
    compare(args)


if __name__ == "__main__":
    main()
