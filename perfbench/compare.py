#!/usr/bin/env python3
"""Compare two benchmark reports of one workload, metric by metric.

Usage:

    python3 perfbench/compare.py BASE-report.json NEW-report.json

Reports are the .bench_out/<workload>-s<seed>-t<trace>-report.json files
that run.py leaves. Two reports are compared only when they come from the
same workload and trace mode and carry the same host fingerprint (nproc,
CPU model, build type, SAISIM_TRACING, SAISIM_TELEMETRY); otherwise the
script refuses with exit code 2, because host times from different hosts
or builds are not comparable.
"""
import json
import sys


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    with open(argv[1]) as f:
        base = json.load(f)
    with open(argv[2]) as f:
        new = json.load(f)
    for key in ("fingerprint", "workload", "trace"):
        if base[key] != new[key]:
            print(f"refusing to compare: {key} differs\n"
                  f"  {argv[1]}: {json.dumps(base[key])}\n"
                  f"  {argv[2]}: {json.dumps(new[key])}", file=sys.stderr)
            return 2
    print(f"workload {base['workload']}, trace {base['trace']}")
    same = base["sim_digest"] == new["sim_digest"]
    print(f"sim_digest {base['sim_digest']} -> {new['sim_digest']}"
          f" ({'unchanged' if same else 'CHANGED: simulated output differs'})")
    print(f"{'metric':34} {'base':>16} {'new':>16} {'change':>9}  unit")
    for section in ("metrics", "extra"):
        for name, b in base[section].items():
            n = new[section].get(name)
            if n is None:
                continue
            bv, nv = b["value"], n["value"]
            change = f"{(nv - bv) / bv * 100:+.1f}%" if bv else "n/a"
            print(f"{name:34} {bv:16.6g} {nv:16.6g} {change:>9}  {b['unit']}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
