.PHONY: all build test bench bench-full bench-smoke lint mutaudit check examples clean smoke \
	trace-smoke serve-smoke corpus-smoke calibrate

all: build

build:
	dune build @all

test:
	dune runtest

bench:
	dune exec bench/main.exe

bench-full:
	dune exec bench/main.exe -- --full

# Quick perf gate: navigation primitives + storage size sweep at the
# smallest scale; writes BENCH_prim_nav.json (plus BENCH_query_metrics.json
# from QMET, BENCH_plan_cache.json from PCACHE, BENCH_path_summary.json
# from PSUM, BENCH_domain_safety.json from DSAFE, BENCH_serve.json from
# SERVE, BENCH_obs_recorder.json from OBSREC and BENCH_encode.json from
# ENCODE) for machine consumption.
# DSAFE also gates: single-domain overhead of the domain-safe structures
# must stay <= 2% of a warm workload round. SERVE gates on domain scaling:
# 4-domain QPS must reach 0.75 x min(4, cores) x single-domain QPS (3x on
# a 4-core box). OBSREC gates the flight recorder: a warm profiled round
# with the recorder enabled must stay within 2% of the recorder-off
# (unobserved fast path) round. CORPUS gates scatter-gather scaling the
# same way SERVE does (4-domain QPS >= 0.75 x min(4, cores) x 1-domain,
# writing BENCH_corpus.json) plus the pruning fast path: a query no
# shard can answer must dispatch nothing and read nothing. ENCODE gates
# the reply encoder: on auction:300000, writing the served query mix
# straight from the document must be at least 3x faster than the
# Tree.t-per-result reference encoder, with identical bytes.
bench-smoke:
	dune exec bench/main.exe -- --only=PRIM,E1,QMET,PCACHE,PSUM,DSAFE,SERVE,OBSREC,CORPUS,ENCODE --json=BENCH_prim_nav.json

# Observability gate: explain --analyze over every workload query, then
# validate the exported Chrome trace with scripts/check_trace.
trace-smoke:
	./scripts/trace_smoke.sh

# Server gate: boot `xqp serve`, probe /health, run a concurrent client
# batch (identical answers required), scrape /metrics, SIGTERM and
# require a clean drain-and-exit.
serve-smoke:
	./scripts/serve_smoke.sh

# Corpus gate: pack a sharded catalog, query it through the CLI, fsck it
# (clean and corrupted), then serve it over HTTP and scrape the corpus.*
# metrics family.
corpus-smoke:
	./scripts/corpus_smoke.sh

# Estimated vs actual cardinality (q-error) per workload query. The gate
# fails if any downward-only query — the ones the path summary answers
# with exact path counts — drifts past q-error 1.1.
calibrate:
	dune exec --no-print-directory bin/xqp.exe -- calibrate --gate-downward 1.1

# Static checks: rebuild under the stricter `lint` dune profile (key
# warnings promoted to errors; see the root `dune` file), then run the
# plan sort-checker over every workload query and the domain-safety
# audit over lib/.
lint:
	dune build @all --profile lint
	dune exec --no-print-directory bin/xqp.exe -- lint --workload --domains

# Domain-safety audit alone (the CI mutaudit job): every toplevel
# mutable site under lib/ must carry an annotation in
# Domain_check.annotations; --strict also fails on stale rows.
mutaudit:
	dune exec --no-print-directory scripts/mutaudit.exe -- --strict lib

check: build test lint mutaudit bench-smoke trace-smoke serve-smoke corpus-smoke calibrate

examples:
	dune exec examples/quickstart.exe
	dune exec examples/bibliography.exe
	dune exec examples/auction_analytics.exe
	dune exec examples/streaming_monitor.exe
	dune exec examples/persistent_database.exe

clean:
	dune clean

smoke:
	./scripts/smoke.sh
