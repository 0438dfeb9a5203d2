#!/usr/bin/env bash
# Results golden check: regenerate every deterministic file under results/
# with the command results/README.md records for it and require it to be
# byte-identical (cmp) to the committed copy. Every rig's Run path feeds at
# least one of these files, so a refactor that shifts one simulated tick
# anywhere in them fails here.
#
# Not checked: fig8.txt (fullsys) and speedup.txt print host wall-clock
# times, which vary from run to run; the perfbench_*.json files are
# host-stamped benchmark records.
set -euo pipefail

cd "$(dirname "$0")/.."
workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT

for c in bwsweep latdist powercmp explore; do
    go build -o "$workdir/$c" "./cmd/$c"
done

# file|command, one per deterministic result.
checks=(
    "fig3.txt|bwsweep -figure 3 -requests 4000"
    "fig4.txt|bwsweep -figure 4 -requests 4000"
    "fig5.txt|bwsweep -figure 5 -requests 4000"
    "fig6.txt|latdist -figure 6 -requests 20000"
    "fig7.txt|latdist -figure 7 -requests 20000"
    "fig9.txt|explore -memops 2000 -cores 16"
    "power.txt|powercmp -requests 5000"
    "power_savings.txt|powercmp -savings -requests 4000"
    "ablations.txt|bwsweep -ablation all -requests 3000"
)

fail=0
for entry in "${checks[@]}"; do
    file=${entry%%|*}
    cmd=${entry#*|}
    # shellcheck disable=SC2086 # cmd is a binary name plus its flags
    "$workdir"/$cmd >"$workdir/$file"
    if cmp -s "$workdir/$file" "results/$file"; then
        echo "ok    $file  ($cmd)"
    else
        echo "FAIL  $file  ($cmd) differs from the committed copy:" >&2
        diff "results/$file" "$workdir/$file" | head -20 >&2 || true
        fail=1
    fi
done
if [ "$fail" -ne 0 ]; then
    exit 1
fi
echo "PASS: results check"
