# Convenience targets around dune. `make check` is the tier-1 gate CI runs.

.PHONY: all build test check clean examples bench bench-json audit profile fuzz fleet tval replay rerand jit determinism

all: build

build:
	dune build

test:
	dune runtest

# Static audit: IR validation over every workload, invariant lint +
# self-check + cross-variant gadget surface over built images. Exits
# nonzero on any finding.
audit:
	dune exec bin/experiments.exe -- audit
	dune exec bin/r2cc.exe -- examples/triangle.r2c -c full -s 7 --lint

# Profiling smoke: per-function cycle attribution must sum to the CPU's
# own counters, and the exported pool timeline must re-parse as JSON with
# one request span per submit. Exits nonzero on any violation.
profile:
	dune exec bin/experiments.exe -- profile mcf --trace /tmp/r2c_profile_trace.json

# Differential fuzzing smoke: pinned seed, 100 generated programs, the
# full config matrix per program, plus the planted-miscompile self-check.
# Exits nonzero on a surviving divergence or a failed self-check; shrunk
# reproducers land in test/corpus/ for replay.
fuzz:
	dune exec bin/experiments.exe -- fuzz --seed 11 --count 100 --self-check

# Fleet-scale chaos SLO: 100k simulated requests over 4 shards with
# epoch-based live rerandomization under fault injection. Exits nonzero
# unless availability >= 99.9%, >= 3 rotations completed, and rotation
# caused zero drops. The one-line report lands in fleet_out.json (CI
# archives it next to bench_out.json).
fleet:
	dune exec bin/experiments.exe -- fleet --seed 11 --json-out fleet_out.json

# Static translation validation: every workload x every diversification
# config, symbolically re-executed against its IR semantics, plus the
# IR rule pack and the planted-miscompile catch checks. Exits nonzero on
# any finding, uncaught plant, or corpus replay failure. The one-line
# report lands in tval_out.json (CI archives it next to fleet_out.json).
tval:
	dune exec bin/experiments.exe -- tval --seed 3 --json-out tval_out.json

# Record-reduce-replay: capture the Fleetapp + Genprog workloads at the
# builtin boundary, delta-debug the traces (>= 30% smaller), and gate on
# replay reproducing the recorded cycles/insns/icache profile within 1%.
# Exits nonzero on a fidelity breach or a missed reduction floor. The
# reduced corpus refreshes bench/replays/ and the one-line report lands
# in replay_out.json (CI archives both).
replay:
	dune exec bin/experiments.exe -- replay --corpus-out bench/replays --json-out replay_out.json

# Incremental rerandomization gate: warm the per-function codegen cache
# on a 10k-function Genprog image, rotate the link seed, and require
# every rebuild byte-identical to a cold compile, rotations recompiling
# nothing, a one-function edit recompiling exactly that function, and
# the rebuild beating the cold compile by >= 10x. Exits nonzero on any
# breach. The one-line report lands in rerand_out.json (CI archives it).
rerand:
	dune exec bin/experiments.exe -- rerand --json-out rerand_out.json

# Tier-3 JIT gate: the three-tier comparison on the SPEC-like suite.
# Exits nonzero unless reference dispatch, fast interpreter and tier-3
# template JIT are bit-identical (cycles as IEEE bits, insns, icache,
# faults, output) on every workload, OSR entries actually occur, and
# steady-state tier 3 beats the reference tier by >= 5x. The one-line
# report lands in jit_out.json (CI archives it).
jit:
	dune exec bin/experiments.exe -- jit --json-out jit_out.json

check: build test audit profile fuzz fleet tval replay rerand jit

# Serial-vs-parallel determinism of every JSON gate, at reduced configs:
# each runs at R2C_JOBS=1 --jobs 1 and at R2C_JOBS=8 --jobs 8, everything
# from ,"jobs": on (the volatile tail) is cut, and the rest must be
# byte-identical. Exit 1 is a gate verdict and is accepted (the reduced
# fleet campaign misses the >= 100k-request SLO by design); any other
# exit code, or no JSON line, fails the target. Writes only to a
# temporary directory.
DETERMINISM_GATES = \
	"fuzz --seed 11 --count 30" \
	"fleet --seed 11 --requests 30000 --epoch-cycles 5000000" \
	"tval --seed 3" \
	"replay" \
	"rerand --funcs 2000 --min-speedup 0" \
	"jit --min-speedup 0"

determinism: build
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	for gate in $(DETERMINISM_GATES); do \
	  name=$${gate%% *}; \
	  for jobs in 1 8; do \
	    out="$$tmp/$$name.$$jobs.json"; rm -f "$$out"; \
	    R2C_JOBS=$$jobs dune exec bin/experiments.exe -- $$gate --jobs $$jobs --json-out "$$out"; \
	    rc=$$?; \
	    if [ $$rc -gt 1 ] || [ ! -s "$$out" ]; then \
	      echo "determinism: $$name --jobs $$jobs exited $$rc without a report" >&2; exit 1; fi; \
	    sed 's/,"jobs":.*$$//' "$$out" > "$$out.stripped"; \
	  done; \
	  diff "$$tmp/$$name.1.json.stripped" "$$tmp/$$name.8.json.stripped" || exit 1; \
	  echo "determinism: $$name identical at --jobs 1 and --jobs 8"; \
	done

examples:
	dune build examples

bench:
	dune exec bench/main.exe

# Machine-readable perf trajectory: per-workload metrics plus wall-clock
# ms for the table1 + figure6 regenerations, written to bench_out.json
# (CI archives it as an artifact).
bench-json:
	dune exec bench/main.exe -- --json bench_out.json table1 figure6

clean:
	dune clean
