#!/usr/bin/env bash
# Self-check of the benchmark: builds it, runs its unit tests, runs the
# `--smoke` set twice, and asserts that
#   * `manifest` prints exactly the committed BENCHMARK.json,
#   * every workload and metric name printed is exactly the set in
#     BENCHMARK.json, and names use only letters, digits, `_`, `.`, `-`,
#   * no operation failed,
#   * the exact-count metrics are identical between the two runs,
#   * `compare` reads both files and finds nothing worse than itself.
# Run from anywhere; writes only under a temporary directory.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo_b=(cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml --)
out="$(mktemp -d)"
trap 'rm -rf "$out"' EXIT

cargo test --release --offline --quiet --manifest-path benchmark/Cargo.toml
"${cargo_b[@]}" manifest | diff -u BENCHMARK.json - \
    || { echo "BENCHMARK.json is not what 'manifest' prints" >&2; exit 1; }

for n in 1 2; do
    "${cargo_b[@]}" run --smoke --seed 1 --out "$out/smoke$n.json" --trace-dir "$out/trace$n" >"$out/run$n.log"
done
"${cargo_b[@]}" compare "$out/smoke1.json" "$out/smoke1.json" >/dev/null

python3 - "$out" <<'EOF'
import json, re, sys
out = sys.argv[1]
spec = json.load(open("BENCHMARK.json"))
runs = [json.load(open(f"{out}/smoke{n}.json")) for n in (1, 2)]
name_ok = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
want = {
    "end_to_end": {m["name"] for m in spec["end_to_end"]},
    "per_layer": {m["name"] for m in spec["per_layer"]},
}
workloads = {w["name"] for w in spec["workloads"]}
# counts and ratios of counts: they must repeat exactly for one seed
# (timings, rates and memory do not)
exact = """write_amp classifier.hit_share compress.ratio pool.workers
  vfs.writes vfs.bytes_written vfs.removes vfs.renames vfs.stats_calls
  wal.appends wal.physical_appends wal.bytes_per_file wal.group_size_p50
  receipts.replayed_records index.matched_per_lookup index.entries
  net.msgs_per_delivery net.bytes_per_delivery net.sim_propagation_ms_p50
  reliable.resends reliable.outstanding_max group.sends_per_deposit
  group.resends_per_deposit group.acks_merged group.outstanding_max
  relay.relayed relay.duplicates relay.group_acks analyzer.unknown_files""".split()
errors = []
for run in runs:
    assert run["claim"] is None, "the benchmark claims no gain"
    for key in ("nproc", "rustc", "profile", "git_commit", "seed", "scale", "pool.workers"):
        assert key in run["stamp"], f"result file not stamped with {key}"
    got = set(run["workloads"])
    if got != workloads:
        errors.append(f"workloads printed {sorted(got)} != BENCHMARK.json {sorted(workloads)}")
    for w, sections in run["workloads"].items():
        for section, names in want.items():
            got = set(sections[section])
            if got != names:
                errors.append(f"{w} {section}: {sorted(got ^ names)} differ from BENCHMARK.json")
            if sections[section + "_ops"]["failed"] != 0:
                errors.append(f"{w} {section}: operations failed")
            errors += [f"bad name {k!r}" for k in got if not name_ok.match(k)]
checked = 0
for w in workloads:
    for section in want:
        a, b = (r["workloads"][w][section] for r in runs)
        for k in sorted(a):
            if k in exact:
                checked += 1
                if a[k] != b[k]:
                    errors.append(f"{w} {k}: {a[k]} != {b[k]} between two runs of one seed")
for e in errors:
    print("check.sh:", e, file=sys.stderr)
print(f"check.sh: {len(workloads)} workloads, {checked} exact-count values compared, {len(errors)} errors")
sys.exit(1 if errors else 0)
EOF
