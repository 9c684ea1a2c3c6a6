#!/bin/sh
# Server smoke test: boot `xqp serve` on an ephemeral port, probe
# /health, fire a batch of concurrent /query clients (responses must all
# be identical and well-formed), scrape /metrics for the serve.* family,
# then SIGTERM and require a clean drain-and-exit. Then serve a small
# fixture full of escapes and require each reply body to match
# `xqp query --json` on the same file byte for byte. Exits non-zero on
# any wrong response, a missing metric, or a hung shutdown.
set -e
dir=$(mktemp -d)
trap 'rm -rf "$dir"; [ -n "$pid" ] && kill -9 "$pid" 2>/dev/null || true' EXIT

# boot LOG ARGS...: start `xqp serve ARGS` on an ephemeral port in the
# background ($pid), logging to LOG, and scrape the port ($port) from
# its listening line
boot() {
  log=$1; shift
  : > "$log"
  "$xqp" serve "$@" --port 0 > "$log" 2>&1 &
  pid=$!
  port=""
  for _ in $(seq 1 50); do
    port=$(sed -n 's/.*listening on [0-9.]*:\([0-9]*\).*/\1/p' "$log")
    [ -n "$port" ] && break
    kill -0 "$pid" 2>/dev/null || { echo "serve-smoke: server died at startup"; cat "$log"; exit 1; }
    sleep 0.2
  done
  [ -n "$port" ] || { echo "serve-smoke: no listening line"; cat "$log"; exit 1; }
}

# stop LOG: SIGTERM must drain and exit promptly
stop() {
  kill -TERM "$pid"
  for _ in $(seq 1 50); do
    kill -0 "$pid" 2>/dev/null || break
    sleep 0.2
  done
  if kill -0 "$pid" 2>/dev/null; then
    echo "serve-smoke: server did not exit after SIGTERM"; exit 1
  fi
  grep -q 'stopped' "$1" || { echo "serve-smoke: no clean shutdown line"; cat "$1"; exit 1; }
  pid=""
}

dune build bin/xqp.exe
xqp=_build/default/bin/xqp.exe

boot "$dir/serve.log" -g auction:300 --domains 2 --queue 32
base="http://127.0.0.1:$port"

# health probe
health=$(curl -sf "$base/health")
echo "$health" | grep -q '"status":"ok"' || { echo "serve-smoke: bad /health: $health"; exit 1; }

# concurrent client batch: identical queries must produce identical ok
# responses (wait only on the curls — a bare `wait` would block on the
# server job too)
n=8
cpids=""
for i in $(seq 1 $n); do
  curl -sf -G "$base/query" --data-urlencode "q=//person/name" > "$dir/r$i.json" &
  cpids="$cpids $!"
done
for p in $cpids; do
  wait "$p" || { echo "serve-smoke: a concurrent client failed"; exit 1; }
done
# per-call fields (time_ms, plan-cache hit/miss, request provenance)
# legitimately vary; the query, results and engine must not
strip() { sed -e 's/"time_ms":[0-9.]*//' -e 's/"cache":"[a-z]*"//' \
              -e 's/"request_id":"[^"]*"//' -e 's/"queue_ms":[0-9.]*//' "$1"; }
for i in $(seq 1 $n); do
  grep -q '"status":"ok"' "$dir/r$i.json" || { echo "serve-smoke: client $i not ok"; cat "$dir/r$i.json"; exit 1; }
  strip "$dir/r1.json" > "$dir/want.stripped"
  strip "$dir/r$i.json" > "$dir/got.stripped"
  cmp -s "$dir/want.stripped" "$dir/got.stripped" || {
    echo "serve-smoke: client $i answer differs"; exit 1; }
done

# request ids: the X-Request-Id header must echo the body's request_id
curl -sf -D "$dir/hdrs.txt" -G "$base/query" --data-urlencode "q=//person/name" > "$dir/rid.json"
hdr_id=$(sed -n 's/^[Xx]-[Rr]equest-[Ii]d: *\(r-[0-9]*\).*/\1/p' "$dir/hdrs.txt")
[ -n "$hdr_id" ] || { echo "serve-smoke: no X-Request-Id header"; cat "$dir/hdrs.txt"; exit 1; }
grep -q "\"request_id\":\"$hdr_id\"" "$dir/rid.json" || {
  echo "serve-smoke: X-Request-Id $hdr_id does not match body"; cat "$dir/rid.json"; exit 1; }

# flight recorder: /debug/queries must show the fingerprint the batch ran
curl -sf "$base/debug/queries?k=5" > "$dir/debug.json"
grep -q '"query":"//person/name"' "$dir/debug.json" || {
  echo "serve-smoke: //person/name missing from /debug/queries"; cat "$dir/debug.json"; exit 1; }
grep -q '"count":' "$dir/debug.json" || { echo "serve-smoke: /debug/queries lacks counts"; exit 1; }

# an XQuery request and a structured error response
curl -sf "$base/query?q=count(//person)&mode=xquery" | grep -q '"status":"ok"' \
  || { echo "serve-smoke: xquery request failed"; exit 1; }
curl -s "$base/query" | grep -q '"code":"bad-request"' \
  || { echo "serve-smoke: missing-q did not produce a structured error"; exit 1; }

# metrics scrape: prometheus text format with the serve.* family
curl -sf "$base/metrics" > "$dir/metrics.txt"
grep -q '^# TYPE' "$dir/metrics.txt" || { echo "serve-smoke: no TYPE lines in /metrics"; exit 1; }
grep -q '^# HELP' "$dir/metrics.txt" || { echo "serve-smoke: no HELP lines in /metrics"; exit 1; }
for m in xqp_serve_requests_total xqp_serve_accepted_total xqp_serve_queue_depth \
         xqp_serve_latency_ms_bucket xqp_serve_domain_0_requests_total; do
  grep -q "$m" "$dir/metrics.txt" || { echo "serve-smoke: $m missing from /metrics"; exit 1; }
done

# graceful shutdown: SIGTERM must drain and exit promptly
stop "$dir/serve.log"

# reply bytes: on a fixture with entities, quotes, backslashes, tabs,
# UTF-8, a comment and a PI, the served body of an element, an @attr
# and a text() query must equal `xqp query --json` on the same file,
# once the per-call fields are gone
printf '<r><e a="x&amp;y&quot;z&lt;&gt;" b="back\\slash &apos;q&apos;">t&amp;&lt;&gt;"\\ caf\303\251\t|<c k="&quot;"/><!-- c"\\ --><?pi b"\\ ?></e><e a="2">plain</e><e/></r>' \
  > "$dir/escapes.xml"
boot "$dir/escapes.log" -f "$dir/escapes.xml" --domains 1
strip_call() { sed -e 's/,"time_ms":[0-9.]*//' -e 's/,"cache":"[a-z]*"//' \
                   -e 's/,"request_id":"[^"]*"//' -e 's/,"queue_ms":[0-9.]*//'; }
for q in '//e' '//e/@a' '//e/text()'; do
  curl -sf -G "http://127.0.0.1:$port/query" --data-urlencode "q=$q" | strip_call > "$dir/served.json"
  "$xqp" query --json -f "$dir/escapes.xml" "$q" | strip_call > "$dir/cli.json"
  printf '\n' >> "$dir/served.json"
  cmp -s "$dir/served.json" "$dir/cli.json" || {
    echo "serve-smoke: reply bytes for $q differ from query --json"
    cat "$dir/served.json" "$dir/cli.json"; exit 1; }
  grep -q '"status":"ok"' "$dir/served.json" || { echo "serve-smoke: $q not ok"; exit 1; }
done
stop "$dir/escapes.log"

echo "serve-smoke: health + concurrent queries + request ids + flight recorder + metrics + graceful shutdown + reply bytes OK"
