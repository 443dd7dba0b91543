#!/usr/bin/env python3
"""Perf-regression gate for the CI perf-smoke and ctl-smoke jobs.

Usage: check_perf.py COMMITTED.json FRESH.json [MIN_RATIO]
       check_perf.py --ctl REPORT.json [MIN_LOOKUPS_PER_SEC]

The `--ctl` form validates a `sv2p-ctlbench/v1` report (see EXPERIMENTS.md):
schema, internal counter consistency (the client's tallies must equal the
server's own counters — a codec or accounting bug shows up here), steady
table size, and a lookups/sec floor (default 500000).

Both files are `sv2p-perfbench/v6` baselines (see EXPERIMENTS.md for the
schema). For every (workload, strategy, shards) cell present in both, the
fresh run's `wall_clock_s` must stay within 1/MIN_RATIO (default 0.5, so
2x) of the committed one; otherwise the script prints the offending cells
and exits 1. Committed cells absent from the fresh run are skipped (a
`--shards 1` CI leg measures only the single-threaded rows of a baseline
that also carries sharded rows, and a quick run lacks the `--huge` cell),
but at least one cell must be comparable.

The gate is on time, not events/sec: every cell simulates the same
workload, so wall-clock is the cost, while events/sec moves whenever the
link model spends a different number of events per hop. The 0.5 floor is
deliberately loose: CI runners are noisy and shared, so the gate only
catches order-of-magnitude regressions (an accidental debug build, a
hot-path data structure going quadratic), not few-percent drift.

Both baselines additionally face column checks:

- profiler columns: every fraction in [0, 1] and the sharding-overhead
  fractions summing to at most 1.05 (slack for clock skew between the
  outer run timer and the phase timers);
- `hops` positive and `hops_per_sec` equal to `hops / wall_clock_s`;
- sane memory columns (`placed_vms` / `bytes_per_vm` / `mapping_bytes`,
  consistent with `peak_rss_bytes`), with any `ft32-1m` cell at or below
  the hard 512 bytes-per-VM ceiling.

The fresh baseline also faces three gates: `peak_rss_bytes` may not be
the same duplicated watermark across 3+ cells (a monotone process-lifetime
VmHWM masquerading as a per-cell measurement); every sharded cell must
reach speedup >= 1.0 over its single-threaded row whenever the host has at
least as many cores as the cell has shards (an oversubscribed host gets a
WARNING instead — there the number measures OS scheduling, not the
engine); and no cell's `bytes_per_vm` may exceed its committed counterpart
by more than 25%.
"""

import json
import sys

SCHEMA = "sv2p-perfbench/v6"
# imbalance_cv is a coefficient of variation, not a fraction of the run:
# it is >= 0 but not bounded by 1 and never enters the phase-sum check.
FRAC_KEYS = ("barrier_frac", "merge_frac", "cut_exchange_frac", "imbalance_cv")
SUM_KEYS = ("barrier_frac", "merge_frac", "cut_exchange_frac")
COUNT_KEYS = ("window_count", "cut_events")
FRAC_SUM_CEILING = 1.05
# Memory gates: the million-VM tier must hold the whole-process peak RSS
# at or below 512 B per placed VM (the committed cell measures ~108
# B/VM), and no cell may regress its bytes-per-VM footprint by more than
# 25% against the committed baseline.
HUGE_TOPOLOGY = "ft32-1m"
BYTES_PER_VM_CEILING = 512.0
BYTES_PER_VM_MAX_GROWTH = 1.25
MEM_KEYS = ("placed_vms", "bytes_per_vm", "mapping_bytes")


def load(path):
    with open(path) as f:
        doc = json.load(f)
    if doc.get("schema") != SCHEMA:
        sys.exit(f"{path}: unexpected schema {doc.get('schema')!r} (want {SCHEMA!r})")
    return doc


def cells(doc):
    return {(c["workload"], c["strategy"], c.get("shards", 1)): c for c in doc["cells"]}


def check_profile_columns(doc, path):
    """Sanity assertions on the profiler and hop columns."""
    failures = []
    for key, c in sorted(cells(doc).items()):
        required = FRAC_KEYS + COUNT_KEYS + ("peak_rss_bytes", "hops", "hops_per_sec")
        missing = [k for k in required if k not in c]
        if missing:
            failures.append(f"{key}: missing column(s) {missing}")
            continue
        if c["hops"] <= 0:
            failures.append(f"{key}: hops={c['hops']} is not positive")
        derived = c["hops"] / max(c["wall_clock_s"], 1e-9)
        if abs(derived - c["hops_per_sec"]) > 0.01 * derived:
            failures.append(
                f"{key}: hops_per_sec={c['hops_per_sec']:.0f} disagrees with "
                f"hops/wall_clock_s={derived:.0f}"
            )
        for k in FRAC_KEYS:
            lo, hi = (0.0, 1.0) if k != "imbalance_cv" else (0.0, float("inf"))
            if not (lo <= c[k] <= hi):
                failures.append(f"{key}: {k}={c[k]} outside [{lo}, {hi}]")
        total = sum(c[k] for k in SUM_KEYS)
        if total > FRAC_SUM_CEILING:
            failures.append(
                f"{key}: phase fractions sum to {total:.3f} "
                f"(> {FRAC_SUM_CEILING}) — phase timers overlap the run"
            )
    if failures:
        print(f"\nprofiler-column check failed for {path}:", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        sys.exit(1)
    n = len(doc["cells"])
    print(f"profiler columns ok: {n} cell(s) carry sane phase fractions and hop counts")


def check_rss_watermarks(doc, path):
    """peak_rss_bytes must be per-cell, not a duplicated process-lifetime
    watermark. Three or more cells sharing one exact nonzero value is the
    signature of an unreset monotone VmHWM (distinct cells allocate distinct
    working sets; an exact byte-for-byte tie across 3+ is not plausible)."""
    counts = {}
    for c in doc["cells"]:
        rss = c.get("peak_rss_bytes", 0)
        if rss:
            counts[rss] = counts.get(rss, 0) + 1
    dups = {rss: n for rss, n in counts.items() if n >= 3}
    if dups:
        print(f"\nrss-watermark check failed for {path}:", file=sys.stderr)
        for rss, n in sorted(dups.items()):
            print(
                f"  peak_rss_bytes={rss} duplicated across {n} cells — "
                "watermark not reset between cells",
                file=sys.stderr,
            )
        sys.exit(1)
    print(f"rss watermarks ok: {len(doc['cells'])} cell(s), no duplicated VmHWM")


def check_speedups(doc, path):
    """On a host with enough cores, the conservative-PDES engine must
    beat its own single-threaded baseline (speedup >= 1.0). Oversubscribed
    hosts (cores < shards) are skipped with a WARNING — there the number
    measures OS scheduling, not the engine."""
    host_cores = doc.get("host_cores", 0)
    failures = []
    checked = skipped = 0
    for key, c in sorted(cells(doc).items()):
        shards = key[2]
        if shards <= 1:
            continue
        if not host_cores or host_cores < shards:
            skipped += 1
            continue
        checked += 1
        if c["speedup"] < 1.0:
            failures.append(
                f"{key}: speedup {c['speedup']:.2f}x < 1.0x over the "
                f"single-threaded row on a {host_cores}-core host"
            )
    if skipped:
        print(
            f"WARNING: speedup gate skipped for {skipped} sharded cell(s): "
            f"host has {host_cores} core(s), fewer than the cell's shards"
        )
    if failures:
        print(f"\nspeedup check failed for {path}:", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        sys.exit(1)
    if checked:
        print(f"speedups ok: {checked} sharded cell(s) at >= 1.0x")


def check_memory_columns(doc, path):
    """Every cell must carry sane memory columns, and any cell on the
    million-VM topology must hold whole-process peak RSS at or below the
    hard 512 bytes-per-VM ceiling. `bytes_per_vm` is recomputed from
    `peak_rss_bytes / placed_vms` and must agree with the recorded value —
    a mismatch means the columns were measured at different instants and
    the regression surface is not trustworthy."""
    failures = []
    huge_cells = 0
    for key, c in sorted(cells(doc).items()):
        missing = [k for k in MEM_KEYS if k not in c]
        if missing:
            failures.append(f"{key}: missing memory column(s) {missing}")
            continue
        if c["placed_vms"] <= 0:
            failures.append(f"{key}: placed_vms={c['placed_vms']} is not positive")
            continue
        if c["bytes_per_vm"] <= 0 or c["mapping_bytes"] <= 0:
            failures.append(
                f"{key}: bytes_per_vm={c['bytes_per_vm']} "
                f"mapping_bytes={c['mapping_bytes']} must be positive"
            )
            continue
        derived = c.get("peak_rss_bytes", 0) / c["placed_vms"]
        if derived and abs(derived - c["bytes_per_vm"]) > max(1.0, 0.01 * derived):
            failures.append(
                f"{key}: bytes_per_vm={c['bytes_per_vm']:.1f} disagrees with "
                f"peak_rss_bytes/placed_vms={derived:.1f}"
            )
        if c["mapping_bytes"] > c.get("peak_rss_bytes", float("inf")):
            failures.append(
                f"{key}: mapping_bytes={c['mapping_bytes']} exceeds the "
                f"whole-process peak_rss_bytes={c.get('peak_rss_bytes')}"
            )
        if c.get("topology") == HUGE_TOPOLOGY:
            huge_cells += 1
            if c["bytes_per_vm"] > BYTES_PER_VM_CEILING:
                failures.append(
                    f"{key}: {c['bytes_per_vm']:.1f} bytes/VM on {HUGE_TOPOLOGY} "
                    f"exceeds the hard {BYTES_PER_VM_CEILING:.0f} B/VM ceiling"
                )
    if failures:
        print(f"\nmemory-column check failed for {path}:", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        sys.exit(1)
    n = len(doc["cells"])
    huge = (
        f", {huge_cells} {HUGE_TOPOLOGY} cell(s) under {BYTES_PER_VM_CEILING:.0f} B/VM"
        if huge_cells
        else ""
    )
    print(f"memory columns ok: {n} cell(s) carry sane bytes-per-VM{huge}")


def check_bytes_per_vm_regression(committed, fresh):
    """A fresh cell may not exceed its committed bytes-per-VM by
    more than BYTES_PER_VM_MAX_GROWTH. Returns a list of failure strings;
    cells missing from either side are simply not compared (the
    wall-clock loop already reports skips)."""
    failures = []
    for key, base in sorted(committed.items()):
        now = fresh.get(key)
        if now is None or "bytes_per_vm" not in base or "bytes_per_vm" not in now:
            continue
        ratio = now["bytes_per_vm"] / max(base["bytes_per_vm"], 1e-9)
        status = "ok" if ratio <= BYTES_PER_VM_MAX_GROWTH else "FAIL"
        print(
            f"{status:4} {key[0]:<14} {key[1]:<10} x{key[2]:<2} "
            f"{base['bytes_per_vm']:>10.1f} -> {now['bytes_per_vm']:>10.1f} B/VM "
            f"({ratio:.2f}x, ceiling {BYTES_PER_VM_MAX_GROWTH:.2f}x)"
        )
        if ratio > BYTES_PER_VM_MAX_GROWTH:
            failures.append(
                f"{key}: {now['bytes_per_vm']:.1f} B/VM is more than "
                f"{BYTES_PER_VM_MAX_GROWTH:.2f}x the committed "
                f"{base['bytes_per_vm']:.1f} B/VM"
            )
    return failures


CTL_SCHEMA = "sv2p-ctlbench/v1"
CTL_MIN_LOOKUPS_PER_SEC = 500_000.0


def check_ctl(path, min_lookups_per_sec):
    """Validates one sv2p-ctlbench report: schema, counters, throughput."""
    with open(path) as f:
        doc = json.load(f)
    if doc.get("schema") != CTL_SCHEMA:
        sys.exit(f"{path}: unexpected schema {doc.get('schema')!r}")
    srv = doc.get("server")
    if not isinstance(srv, dict):
        sys.exit(f"{path}: missing server stats object")

    failures = []

    def expect(cond, msg):
        if not cond:
            failures.append(msg)

    # Client tallies and the server's own counters must agree exactly.
    for k in ("lookups", "invalidates", "installs"):
        expect(
            srv[k] == doc[k],
            f"server {k}={srv[k]} != client {k}={doc[k]}",
        )
    expect(srv["hits"] <= srv["lookups"], "server hits exceed lookups")
    expect(
        doc["ops"] == doc["lookups"] + doc["invalidates"] + doc["installs"],
        "client op kinds do not sum to total ops",
    )
    # The server additionally served stats/preload batches, never fewer ops.
    expect(srv["ops"] >= doc["ops"], "server executed fewer ops than the client sent")
    expect(srv["rejected"] == 0, f"{srv['rejected']} writes rejected")
    # Every invalidate is paired with a reinstall, so the table holds steady.
    expect(
        srv["mappings"] == doc["mappings"],
        f"table drifted: {srv['mappings']} mappings, expected {doc['mappings']}",
    )
    expect(
        srv["epoch"] >= doc["invalidates"] + doc["installs"],
        "epoch below the number of accepted writes",
    )
    expect(
        doc["hit_rate"] >= 0.98,
        f"hit rate {doc['hit_rate']:.4f} below 0.98 on a steady table",
    )
    expect(
        doc["lookups_per_sec"] >= min_lookups_per_sec,
        f"{doc['lookups_per_sec']:.0f} lookups/sec below the "
        f"{min_lookups_per_sec:.0f} floor",
    )

    print(
        f"ctl report: {doc['mappings']} mappings, {doc['ops']} ops, "
        f"{doc['lookups_per_sec']:.0f} lookups/s, hit rate {doc['hit_rate']:.4f}, "
        f"rtt p99 {doc['rtt_p99_ns']} ns, server exec p99 {srv['exec_p99_ns']} ns"
    )
    if failures:
        print(f"\nctl-smoke failed for {path}:", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        sys.exit(1)
    print("ctl-smoke ok: counters consistent, throughput above floor")


def main():
    if len(sys.argv) >= 2 and sys.argv[1] == "--ctl":
        if len(sys.argv) not in (3, 4):
            sys.exit(__doc__)
        floor = float(sys.argv[3]) if len(sys.argv) == 4 else CTL_MIN_LOOKUPS_PER_SEC
        check_ctl(sys.argv[2], floor)
        return
    if len(sys.argv) not in (3, 4):
        sys.exit(__doc__)
    committed_doc = load(sys.argv[1])
    committed = cells(committed_doc)
    fresh_doc = load(sys.argv[2])
    fresh = cells(fresh_doc)
    min_ratio = float(sys.argv[3]) if len(sys.argv) == 4 else 0.5

    host_cores = fresh_doc.get("host_cores", 0)
    widest = max((shards for _, _, shards in fresh), default=1)
    if host_cores and widest > host_cores:
        print(
            f"WARNING: fresh run used up to {widest} shards on a "
            f"{host_cores}-core host; sharded speedup numbers measure OS "
            "scheduling, not the engine, and the committed baseline should "
            "not be refreshed from this machine.\n"
        )

    for doc, path in ((committed_doc, sys.argv[1]), (fresh_doc, sys.argv[2])):
        print(f"{path}:")
        check_profile_columns(doc, path)
        check_memory_columns(doc, path)
    check_rss_watermarks(fresh_doc, sys.argv[2])
    check_speedups(fresh_doc, sys.argv[2])
    print()

    compared = 0
    skipped = []
    failures = []
    for key, base in sorted(committed.items()):
        now = fresh.get(key)
        if now is None:
            skipped.append(key)
            continue
        compared += 1
        ratio = now["wall_clock_s"] / max(base["wall_clock_s"], 1e-9)
        ceiling = 1.0 / min_ratio
        status = "ok" if ratio <= ceiling else "FAIL"
        print(
            f"{status:4} {key[0]:<14} {key[1]:<10} x{key[2]:<2} "
            f"{base['wall_clock_s']:>9.3f} -> {now['wall_clock_s']:>9.3f} s "
            f"({ratio:.2f}x, ceiling {ceiling:.2f}x)  "
            f"{now['hops_per_sec']:>11.0f} hops/s"
        )
        if ratio > ceiling:
            failures.append(
                f"{key}: {now['wall_clock_s']:.3f} s is more than "
                f"{ceiling:.2f}x the committed {base['wall_clock_s']:.3f} s"
            )

    print()
    failures.extend(check_bytes_per_vm_regression(committed, fresh))

    if skipped:
        # An explicit block so baseline drift is visible in CI logs: every
        # committed cell the fresh run no longer measures is listed here.
        print(
            f"\nWARNING: {len(skipped)} committed baseline cell(s) were not "
            "measured by the fresh run and were skipped:"
        )
        for workload, strategy, shards in skipped:
            print(f"  skipped {workload:<14} {strategy:<10} x{shards}")
        print(
            "  If these cells were removed on purpose, refresh the committed "
            "baseline; otherwise the gate is silently narrowing."
        )
    if compared == 0:
        failures.append("no comparable cells between the two baselines")
    if failures:
        print("\nperf-smoke failed:", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        sys.exit(1)
    print(f"\nperf-smoke ok: {compared} cell(s) within budget")


if __name__ == "__main__":
    main()
