#!/bin/sh
# serve-smoke: the end-to-end serving check wired into `make check`.
#
# Builds ebda-serve and ebda-loadgen, starts the server on a loopback
# port, waits for its listening line, drives the fixed seeded workload
# against it with -smoke (zero 5xx, at least one coalesced request,
# byte-identical verdicts for repeated identical requests, invalid
# requests rejected with 4xx), then sends SIGTERM and requires a clean
# graceful drain (exit 0). The loadgen snapshot is written to OUT, by
# default a temporary file removed on exit; to refresh the committed
# snapshot run `OUT=BENCH_serve.json make serve-smoke`.
set -eu

GO=${GO:-go}
tmp=$(mktemp -d)
OUT=${OUT:-$tmp/BENCH_serve.json}
pid=
cleanup() {
    [ -n "$pid" ] && kill "$pid" 2>/dev/null || true
    rm -rf "$tmp"
}
trap cleanup EXIT INT TERM

$GO build -o "$tmp/ebda-serve" ./cmd/ebda-serve
$GO build -o "$tmp/ebda-loadgen" ./cmd/ebda-loadgen

"$tmp/ebda-serve" -addr 127.0.0.1:0 >"$tmp/serve.out" 2>"$tmp/serve.err" &
pid=$!

addr=
i=0
while [ $i -lt 100 ]; do
    addr=$(sed -n 's/^ebda-serve: listening on //p' "$tmp/serve.out")
    [ -n "$addr" ] && break
    if ! kill -0 "$pid" 2>/dev/null; then
        echo "serve-smoke: ebda-serve exited before listening" >&2
        cat "$tmp/serve.err" >&2
        exit 1
    fi
    sleep 0.1
    i=$((i + 1))
done
if [ -z "$addr" ]; then
    echo "serve-smoke: ebda-serve never printed its listening line" >&2
    cat "$tmp/serve.err" >&2
    exit 1
fi

"$tmp/ebda-loadgen" -addr "$addr" -smoke -seed 1 -requests 200 -out "$OUT"

kill -TERM "$pid"
if wait "$pid"; then
    pid=
else
    echo "serve-smoke: ebda-serve did not drain cleanly" >&2
    cat "$tmp/serve.err" >&2
    pid=
    exit 1
fi
case $OUT in
"$tmp"/*) echo "serve-smoke: clean drain" ;;
*) echo "serve-smoke: clean drain, snapshot in $OUT" ;;
esac
