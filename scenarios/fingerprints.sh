#!/usr/bin/env bash
# Print the `# fingerprint:` line of every gallery scenario, and of the
# hostile ones again with the fault defence armed, in the format of
# scenarios/fingerprints.txt. CI diffs the two. A change that moves a
# simulated outcome on purpose re-pins explicitly:
#
#   cargo build --release && scenarios/fingerprints.sh > scenarios/fingerprints.txt
#
# Usage: scenarios/fingerprints.sh [REPRO]   (default: target/release/repro)
set -euo pipefail

repro="${1:-target/release/repro}"
gallery="$(dirname "$0")"
unset SOC_FAULT_DEFENSE

fingerprint() {
    "$repro" scenario "$1" | sed -n 's/^# fingerprint: //p'
}

echo "# <scenario> <SOC_FAULT_DEFENSE> <fingerprint>, written by scenarios/fingerprints.sh"
for f in "$gallery"/*.scn; do
    echo "$(basename "$f") off $(fingerprint "$f")"
done
for f in "$gallery"/hostile-*.scn; do
    echo "$(basename "$f") on $(SOC_FAULT_DEFENSE=on fingerprint "$f")"
done
