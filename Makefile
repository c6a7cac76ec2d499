all: build

build:
	dune build

test:
	dune runtest

# The whole gate in one shot: compile, run the tier-1 test suite, hold
# the driver corpus to the static checks, run the hostile-driver
# campaign against its acceptance gate, diff the XPC matrix against
# the committed trajectory, run the long soak, and explore the
# decaf-check episode catalog at full depth.
check: build test lint campaign-malicious bench-check soak explore

# Exhaustive schedule exploration (DPOR) of the decaf-check episode
# catalog at full depth, over the five real drivers; fails on any
# counterexample. The reduced-depth pass runs inside `dune runtest` as
# @check-smoke.
explore:
	dune exec bin/decafctl.exe -- explore

# The fault-injection campaign (buggy drivers: Table "no panics" row).
campaign:
	dune exec bin/experiments.exe -- campaign

# The adversarial campaign (hostile drivers: forged handles, fuzzed
# fields, forged acks, queue floods). Renders the trial table and its
# acceptance line; the same gate runs in `dune runtest` as
# test_maliciouscampaign.
campaign-malicious:
	dune exec bin/experiments.exe -- campaign-malicious

# Fail if any number of the XPC matrix moved against the committed
# trajectory, or its acceptance gates broke (also part of `dune runtest`).
bench-check:
	dune build @bench-smoke

# Every allocation gate and nothing else: the frame-path and
# control-path words-per-operation bounds (also part of `dune runtest`).
alloc-check:
	dune build @alloc-smoke

# Take the re-measured trajectory after a deliberate retuning: the
# alias prints the diff against the committed file, `dune promote`
# writes it.
bench-json:
	-dune build @bench-smoke
	dune promote BENCH_xpc.json

# The short deterministic soak, diffed against the committed
# BENCH_soak.json, with zero audio deadline misses in the fault-free
# phase and zero leaked tracker entries / kmalloc bytes at quiescence
# (also part of `dune runtest`).
soak-smoke:
	dune build @soak-smoke

# The full-length soak at 10x the committed virtual duration: the
# percentiles print, and the miss and leak gates apply.
soak:
	dune exec bin/decafctl.exe -- soak --duration-ms 10000

# Take the re-measured soak trajectory after a deliberate cost-model
# retuning, in the same change as the retuning.
soak-json:
	-dune build @soak-smoke
	dune promote BENCH_soak.json

# Static discipline checks over the five bundled driver sources; fails
# on any unwaived violation or stale waiver (the same gate runs inside
# `dune runtest` as the lint "corpus clean" test).
lint:
	dune exec bin/driverslicer.exe -- decaf-lint

clean:
	dune clean

.PHONY: all build test check bench-check alloc-check bench-json soak-smoke soak soak-json lint explore clean
