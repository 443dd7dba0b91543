#!/usr/bin/env python3
"""Checks the paper's claims against the committed experiment outputs.

Usage: check_claims.py [RESULTS_DIR]    (default: results)

Parses the quick-scale `results/*.txt` tables and asserts the claims
EXPERIMENTS.md reports as holding, each with a stated tolerance:

  fig7    packet stretch NoCache 9.41 and SwitchV2P 5.06, each within
          +-0.10 (paper: 9.4 and 5.1)
  fig6    SwitchV2P hit rate strictly above GwCache and LocalLearning at
          every cache size
  fig9    SwitchV2P avg FCT within 3% of its 40-gateway value at every
          gateway count down to 4, while NoCache's FCT at 4 gateways is
          at least 2x its 40-gateway value
  fig10   LocalLearning hit rate falls as pods grow: no step up by more
          than 0.5 points, and at least 10 points lower at 32 pods than at 1
  table4  the timestamp vector cuts invalidation packets at least 10x, at
          equal repair latency (last misdelivery within 10%)
  table5  ToR-dominated hits: ToR takes at least 80% of all hits for
          Hadoop and WebSearch

Every check prints one line; the script exits 1 if any fails. The outputs
are deterministic for a seed, so a failure means the simulator's behaviour
changed, not the host.
"""

import os
import re
import sys

STRETCH = {"NoCache": 9.41, "SwitchV2P": 5.06}
STRETCH_TOL = 0.10
FIG9_FLAT = 0.03
FIG9_NOCACHE_DEGRADE = 2.0
FIG10_STEP_TOL = 0.5
FIG10_MIN_DROP = 10.0
TABLE4_INVAL_CUT = 10.0
TABLE4_REPAIR_TOL = 0.10
TABLE5_TOR_MIN = 80.0

failures = []


def check(name, ok, detail):
    print(f"{'ok' if ok else 'FAIL':4} {name}: {detail}")
    if not ok:
        failures.append(name)


def read(results, name):
    with open(os.path.join(results, name)) as f:
        return f.read()


def section(text, title):
    """Lines of the table whose heading contains `title`, up to a blank line."""
    lines = text.splitlines()
    for i, line in enumerate(lines):
        if title in line:
            out = []
            for row in lines[i + 1 :]:
                if not row.strip():
                    break
                out.append(row)
            return out
    raise SystemExit(f"table {title!r} not found")


def fig7(results):
    text = read(results, "fig7_fig8.txt")
    for system, want in STRETCH.items():
        m = re.search(rf"^\s*{system}\s+total switch bytes.*avg stretch ([\d.]+)", text, re.M)
        got = float(m.group(1))
        check(
            f"fig7 stretch {system}",
            abs(got - want) <= STRETCH_TOL,
            f"{got:.2f} (want {want:.2f} +- {STRETCH_TOL:.2f})",
        )


def fig6(results):
    rows = section(read(results, "fig6_alibaba.txt"), "hit rate")
    table = {r.split()[0]: [float(x) for x in r.split()[1:]] for r in rows[1:]}
    ours = table["SwitchV2P"]
    for other in ("GwCache", "LocalLearning"):
        theirs = table[other]
        ok = len(ours) == len(theirs) and all(a > b for a, b in zip(ours, theirs))
        check(
            f"fig6 SwitchV2P hit rate above {other}",
            ok,
            f"{ours} vs {theirs}",
        )


def gateway_rows(text):
    """fig9 rows as {system: [(gateways, avg FCT us)]} in file order."""
    out = {}
    for line in text.splitlines():
        m = re.match(r"^(\w+)\s+(\d+)\s+([\d.]+)\s+([\d.]+)\s+([\d.]+)%", line)
        if m:
            out.setdefault(m.group(1), []).append((int(m.group(2)), float(m.group(3))))
    return out


def fig9(results):
    rows = gateway_rows(read(results, "fig9.txt"))
    sv2p = dict(rows["SwitchV2P"])
    base = sv2p[40]
    worst = max(abs(fct - base) / base for fct in sv2p.values())
    check(
        "fig9 SwitchV2P FCT flat from 40 to 4 gateways",
        4 in sv2p and worst <= FIG9_FLAT,
        f"{sorted(sv2p.items(), reverse=True)}, worst {worst:.1%} of the 40-gw "
        f"{base} us (limit {FIG9_FLAT:.0%})",
    )
    nocache = dict(rows["NoCache"])
    ratio = nocache[4] / nocache[40]
    check(
        "fig9 NoCache degrades with fewer gateways",
        ratio >= FIG9_NOCACHE_DEGRADE,
        f"FCT {nocache[40]} -> {nocache[4]} us ({ratio:.2f}x, want >= "
        f"{FIG9_NOCACHE_DEGRADE:.1f}x)",
    )


def fig10(results):
    hits = []
    for line in read(results, "fig10.txt").splitlines():
        m = re.match(r"^LocalLearning\s+(\d+)\s+\d+\s+[\d.]+\s+[\d.]+\s+([\d.]+)%", line)
        if m:
            hits.append((int(m.group(1)), float(m.group(2))))
    hits.sort()
    steps_ok = all(b[1] <= a[1] + FIG10_STEP_TOL for a, b in zip(hits, hits[1:]))
    drop = hits[0][1] - hits[-1][1]
    check(
        "fig10 LocalLearning hit rate decreases with pods",
        len(hits) >= 2 and steps_ok and drop >= FIG10_MIN_DROP,
        f"{hits}, drop {drop:.1f} points (want >= {FIG10_MIN_DROP:.0f}, no step "
        f"up > {FIG10_STEP_TOL} points)",
    )


def table4(results):
    rows = {}
    for line in read(results, "table4.txt").splitlines():
        m = re.match(
            r"^(SwitchV2P w/o timestamp vector|SwitchV2P w/ timestamp vector)\s+"
            r"[\d.]+%\s+[\d.]+x\s+(\d+) us\s+[\d.]+x\s+(\d+)$",
            line,
        )
        if m:
            rows[m.group(1)] = (int(m.group(2)), int(m.group(3)))
    (lat_wo, inv_wo) = rows["SwitchV2P w/o timestamp vector"]
    (lat_w, inv_w) = rows["SwitchV2P w/ timestamp vector"]
    cut = inv_wo / max(inv_w, 1)
    check(
        "table4 timestamp vector cuts invalidations",
        cut >= TABLE4_INVAL_CUT,
        f"{inv_wo} -> {inv_w} ({cut:.1f}x, want >= {TABLE4_INVAL_CUT:.0f}x)",
    )
    gap = abs(lat_wo - lat_w) / max(lat_wo, lat_w)
    check(
        "table4 equal repair latency",
        gap <= TABLE4_REPAIR_TOL,
        f"last misdelivery {lat_wo} vs {lat_w} us ({gap:.1%}, limit "
        f"{TABLE4_REPAIR_TOL:.0%})",
    )


def table5(results):
    text = read(results, "table5.txt")
    for dataset in ("Hadoop", "WebSearch"):
        m = re.search(rf"^{dataset}\s+\|\s+([\d.]+)%\s+([\d.]+)%\s+([\d.]+)%", text, re.M)
        core, spine, tor = (float(x) for x in m.groups())
        check(
            f"table5 {dataset} hits ToR-dominated",
            tor >= TABLE5_TOR_MIN,
            f"core {core}% spine {spine}% ToR {tor}% (want ToR >= {TABLE5_TOR_MIN:.0f}%)",
        )


def main():
    if len(sys.argv) > 2 or (len(sys.argv) == 2 and sys.argv[1].startswith("-")):
        sys.exit(__doc__)
    results = sys.argv[1] if len(sys.argv) == 2 else "results"
    for claim in (fig7, fig6, fig9, fig10, table4, table5):
        claim(results)
    if failures:
        print(f"\n{len(failures)} claim(s) failed: {', '.join(failures)}", file=sys.stderr)
        sys.exit(1)
    print("\nall paper claims hold")


if __name__ == "__main__":
    main()
