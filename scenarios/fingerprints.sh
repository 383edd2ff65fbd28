#!/usr/bin/env bash
# Print the `# fingerprint:` line of every gallery scenario, and of the
# hostile ones again with the fault defence armed (`defense = true`
# inserted after `[fault]` in a temporary copy), in the format of
# scenarios/fingerprints.txt. CI diffs the two. A change that moves a
# simulated outcome on purpose re-pins explicitly:
#
#   cargo build --release && scenarios/fingerprints.sh > scenarios/fingerprints.txt
#
# Usage: scenarios/fingerprints.sh [REPRO]   (default: target/release/repro)
set -euo pipefail

repro="${1:-target/release/repro}"
gallery="$(dirname "$0")"
defended="$(mktemp)"
trap 'rm -f "$defended"' EXIT

fingerprint() {
    "$repro" scenario "$1" | sed -n 's/^# fingerprint: //p'
}

echo "# <scenario> <defense> <fingerprint>, written by scenarios/fingerprints.sh"
for f in "$gallery"/*.scn; do
    echo "$(basename "$f") off $(fingerprint "$f")"
done
for f in "$gallery"/hostile-*.scn; do
    sed '/^\[fault\]/a defense = true' "$f" > "$defended"
    echo "$(basename "$f") on $(fingerprint "$defended")"
done
