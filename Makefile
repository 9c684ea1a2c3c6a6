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

# Perf gates: the ids below at the default scale. Each writes
# BENCH_<name>.json in one envelope (bench, host, status, gates[], then
# the experiment's fields); every gate's bound and reading is in its
# file's gates[], and the run ends with a gate summary. Exits non-zero if
# any gate fails; a gate the host cannot run reads "skipped".
bench-smoke:
	dune exec bench/main.exe -- --only=PRIM,E1,QMET,PCACHE,PSUM,DSAFE,SERVE,OBSREC,CORPUS,ENCODE,ENGINE

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
# with exact path counts — drifts past q-error 1.1. The cost check then
# fails if, under the checked-in weights (lib/physical/cost_weights.ml),
# Auto's engine costs more than 1.15x the cheapest engine on any
# workload query, both read off the units the engines count (no clocks,
# writes nothing). `xqp calibrate --cost` refits and rewrites the weights.
calibrate:
	dune exec --no-print-directory bin/xqp.exe -- calibrate --gate-downward 1.1
	dune exec --no-print-directory bin/xqp.exe -- calibrate --cost --check --gen auction:300000

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
