#!/usr/bin/env bash
# Observability smoke test: a short traced dramctrl run must produce
# well-formed Chrome trace-event JSON (parsed strictly by validate
# -trace-check, which also cross-checks span/burst/refresh counts), the
# bytes must be identical across identical runs and across sharded worker
# counts, and a traced run killed mid-flight and resumed from its last
# checkpoint must reproduce the uninterrupted trace byte for byte.
set -euo pipefail

cd "$(dirname "$0")/.."
workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT

go build -o "$workdir/dramctrl" ./cmd/dramctrl
go build -o "$workdir/validate" ./cmd/validate

echo "== traced run parses as strict Chrome trace JSON"
args=(-spec DDR3-1600-x64 -pattern random -reads 67 -requests 20000 -seed 7)
"$workdir/dramctrl" "${args[@]}" -trace "$workdir/a.json" >/dev/null
"$workdir/validate" -trace-check "$workdir/a.json"

echo "== identical rerun is byte-identical"
"$workdir/dramctrl" "${args[@]}" -trace "$workdir/b.json" >/dev/null
cmp "$workdir/a.json" "$workdir/b.json"

echo "== sharded trace is independent of -parallel"
shargs=(-spec DDR3-1600-x64 -channels 4 -pattern random -reads 67 -requests 20000 -seed 7)
"$workdir/dramctrl" "${shargs[@]}" -parallel 1 -trace "$workdir/p1.json" >/dev/null
"$workdir/dramctrl" "${shargs[@]}" -parallel 4 -trace "$workdir/p4.json" >/dev/null
cmp "$workdir/p1.json" "$workdir/p4.json"
"$workdir/validate" -trace-check "$workdir/p1.json"

echo "== killed-and-resumed traced run reproduces the uninterrupted trace"
# The cycle model is slow enough per request that the kill lands mid-run
# at a modest request count (and hence a modest trace file).
kargs=(-spec DDR3-1600-x64 -model cycle -pattern random -reads 67 -requests 300000 -seed 7)
"$workdir/dramctrl" "${kargs[@]}" -trace "$workdir/ref.json" >/dev/null
"$workdir/dramctrl" "${kargs[@]}" -trace "$workdir/crash.json" \
    -checkpoint "$workdir/run.ckpt" -checkpoint-every 50000 \
    >/dev/null 2>"$workdir/victim.log" &
pid=$!
for _ in $(seq 1 300); do
    [ -f "$workdir/run.ckpt" ] && break
    sleep 0.1
done
if ! [ -f "$workdir/run.ckpt" ]; then
    echo "FAIL: no checkpoint appeared before the kill" >&2
    kill -9 "$pid" 2>/dev/null || true
    exit 1
fi
# The kill must land while the victim is still running: a run that already
# finished would make the resume below replay a complete run and pass
# vacuously.
kill -9 "$pid" 2>/dev/null || true
status=0
wait "$pid" 2>/dev/null || status=$?
if [ "$status" -ne 137 ]; then
    echo "FAIL: the traced cycle run exited with status $status before the kill (want 137, killed); raise -requests" >&2
    exit 1
fi
"$workdir/dramctrl" "${kargs[@]}" -trace "$workdir/crash.json" \
    -checkpoint "$workdir/run.ckpt" -resume >/dev/null 2>"$workdir/resume.log"
grep -q "supervisor: resumed from" "$workdir/resume.log" || {
    echo "FAIL: resume did not load the checkpoint:" >&2
    cat "$workdir/resume.log" >&2
    exit 1
}
if ! cmp "$workdir/ref.json" "$workdir/crash.json"; then
    echo "FAIL: resumed trace differs from the uninterrupted run" >&2
    exit 1
fi
"$workdir/validate" -trace-check "$workdir/ref.json"

echo "PASS: trace smoke"
