#!/usr/bin/env python3
"""Baseline writer and smoke gate behind scripts/bench.sh.

  bench_gate.py update BUILD_DIR BASELINE   write the current runs to BASELINE
  bench_gate.py smoke BUILD_DIR BASELINE    check the current runs against RULES

The current document has the baseline's shape: the event-cycle fields of
BUILD_DIR/BENCH_sim.json at top level, plus one object per driver read from
BUILD_DIR/BENCH_<object>.json. Drivers run three times (BEST_OF_3) keep the
run with the highest sim_ops_per_sec: their sim results are identical from
run to run, only that wall-derived rate is scheduler noise.
"""
import json
import sys

OBJECTS = ["sweep", "multitenant", "trace_replay", "overload"]
BEST_OF_3 = {"multitenant", "overload"}


def hw_below(n):
    """Skip condition: wall-clock sweep scaling needs parallel hardware."""
    return (f"fewer than {n} hw threads", lambda d: d["sweep"]["hw_threads"] < n)


# One rule per gated metric: (object, metric, check, value, skip). Object ""
# is the top-level event-cycle document. Checks:
#   rel      metric >= value x the committed baseline's metric; skipped when
#            the baseline has no such object
#   min/max  metric >= value / metric <= value
#   below    metric < value
#   between  value[0] < metric < value[1]
#   true     metric is true
# skip is None or (reason, predicate over the current document).
RULES = [
    ("", "events_per_sec", "rel", 0.8, None),
    ("", "allocs_per_event", "below", 0.01, None),
    ("sweep", "speedup", "rel", 0.8, hw_below(2)),
    ("sweep", "speedup", "min", 3.0, hw_below(8)),
    ("multitenant", "fairness_max_dev", "max", 0.05, None),
    ("multitenant", "sim_ops_per_sec", "rel", 0.8, None),
    ("trace_replay", "fidelity_identical", "true", None, None),
    ("trace_replay", "replay_ops_per_sec", "min", 5e6, None),
    ("trace_replay", "replay_ops_per_sec", "rel", 0.8, None),
    ("overload", "slo_held", "true", None, None),
    ("overload", "shed_rate_at_2x", "between", (0.0, 0.8), None),
    ("overload", "sim_ops_per_sec", "rel", 0.8, None),
]


def load(path):
    with open(path) as f:
        return json.load(f)


def current(build):
    doc = load(f"{build}/BENCH_sim.json")
    for obj in OBJECTS:
        path = f"{build}/BENCH_{obj}.json"
        if obj in BEST_OF_3:
            runs = [load(f"{path}.{i}") for i in (1, 2, 3)]
            doc[obj] = max(runs, key=lambda d: d["sim_ops_per_sec"])
        else:
            doc[obj] = load(path)
    return doc


def check(kind, x, value, base):
    """(passed, what was required) for one rule's measured value x."""
    if kind == "rel":
        return x >= value * base, f">= {value}x baseline {base:.6g}"
    if kind == "min":
        return x >= value, f">= {value:g}"
    if kind == "max":
        return x <= value, f"<= {value:g}"
    if kind == "below":
        return x < value, f"< {value:g}"
    if kind == "between":
        return value[0] < x < value[1], f"in ({value[0]:g}, {value[1]:g})"
    return bool(x), "true"


def main(mode, build, baseline):
    cur = current(build)
    if mode == "update":
        with open(baseline, "w") as f:
            json.dump(cur, f, indent=2)
            f.write("\n")
        print(f"bench: baseline {baseline} updated")
        return
    try:
        base = load(baseline)
    except FileNotFoundError:
        sys.exit(f"bench: no committed {baseline}; run scripts/bench.sh --update")
    failed = 0
    for obj, metric, kind, value, skip in RULES:
        name = f"{obj}.{metric}" if obj else metric
        x = (cur[obj] if obj else cur)[metric]
        base_obj = base.get(obj) if obj else base
        if skip and skip[1](cur):
            print(f"bench smoke: skip {name} ({skip[0]})")
            continue
        if kind == "rel" and base_obj is None:
            print(f"bench smoke: skip {name} (no committed {obj} baseline "
                  "-- run scripts/bench.sh --update)")
            continue
        b = base_obj[metric] if kind == "rel" else None
        ok, want = check(kind, x, value, b)
        print(f"bench smoke: {'ok  ' if ok else 'FAIL'} {name} = {x:.6g} "
              f"(want {want})")
        failed += not ok
    if failed:
        sys.exit(f"bench smoke FAILED: {failed} rule(s) broken -- if a "
                 "regression is intentional, rerun scripts/bench.sh --update")
    print("bench smoke passed")


if __name__ == "__main__":
    main(*sys.argv[1:4])
