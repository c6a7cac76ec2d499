all: build

build:
	dune build

test:
	dune runtest

# The whole gate in one shot: compile, run the tier-1 test suite, hold
# the driver corpus to the static checks, run the hostile-driver
# campaign against its acceptance gate, verify the XPC fast path
# against the committed trajectory, and explore the decaf-check
# episode catalog at full depth.
check: build test lint campaign-malicious bench-check soak explore

# Exhaustive schedule exploration (DPOR) of the decaf-check episode
# catalog at full depth, with the dynamic lock-acquisition order; fails
# on any counterexample. The reduced-depth pass runs inside
# `dune runtest` as @check-smoke.
explore:
	dune exec bin/decafctl.exe -- explore --lock-order

# The fault-injection campaign (buggy drivers: Table "no panics" row).
campaign:
	dune exec bin/experiments.exe -- campaign

# The adversarial campaign (hostile drivers: forged handles, fuzzed
# fields, forged acks, queue floods). Renders the trial table and its
# acceptance line; the same gate runs in `dune runtest` as
# test_maliciouscampaign.
campaign-malicious:
	dune exec bin/experiments.exe -- campaign-malicious

# Fail if the XPC fast path regressed against the committed trajectory:
# >10% on crossings/bytes or >5% on virtual-time throughput per
# (scenario, config) point (also runs as part of `dune runtest`).
bench-check:
	dune build @bench-smoke

# Every allocation gate and nothing else: the frame-path and
# control-path words-per-operation bounds (also part of `dune runtest`).
alloc-check:
	dune build @alloc-smoke

# Regenerate the committed trajectory after a deliberate retuning and
# show what changed against the committed file.
bench-json:
	dune exec bench/main.exe -- json BENCH_xpc.json.new
	-diff -u BENCH_xpc.json BENCH_xpc.json.new
	mv BENCH_xpc.json.new BENCH_xpc.json

bench:
	dune exec bench/main.exe

# The short deterministic soak: re-run the mixed-traffic soak at the
# committed BENCH_soak.json scale and gate on p99 latency per event
# path, zero audio deadline misses in the fault-free phase, and zero
# leaked tracker entries / kmalloc bytes at quiescence (also runs as
# part of `dune runtest`).
soak-smoke:
	dune build @soak-smoke

# The full-length soak: same gates at 10x the committed virtual
# duration (the percentiles print; only the miss/leak gates apply,
# since the committed file is measured at the smoke scale).
soak:
	dune exec bin/decafctl.exe -- soak --duration-ms 10000

# Regenerate the committed soak trajectory after a deliberate
# cost-model retuning and show what changed; land it in the same change
# as the retuning.
soak-json:
	dune exec bench/main.exe -- soak-json BENCH_soak.json.new
	-diff -u BENCH_soak.json BENCH_soak.json.new
	mv BENCH_soak.json.new BENCH_soak.json

# Static discipline checks over the five bundled driver sources; fails
# on any unwaived violation or stale waiver (the same gate runs inside
# `dune runtest` as the lint "corpus clean" test).
lint:
	dune exec bin/driverslicer.exe -- decaf-lint

clean:
	dune clean

.PHONY: all build test check bench-check alloc-check bench-json bench soak-smoke soak soak-json lint explore clean
