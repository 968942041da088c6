# Convenience targets around dune.  `make check` is the CI entry point:
# a full build (the dev profile promotes the standard warning set to
# errors) plus the test suite under a wall-clock cap, so a hung planner
# test fails fast instead of wedging CI.
#
# `make check-par` re-runs the suite at JOBS=1 and JOBS=4.  A request
# runs on one domain; JOBS sizes how many requests (survey cells,
# daemon requests, harvests) the concurrency differentials run at once
# on a Sched.Service pool, and test_par compares them against the same
# requests run one at a time, so the two sweeps together pin down the
# determinism contract (DESIGN.md "Concurrency & determinism").  Each
# pool worker runs on its own 8 MB minor heap, so a pool at JOBS=4
# reserves 4 x 8 MB of minor heap.
#
# `make check-plan-par` sweeps the stage 3-4 suites and the suites of
# the intern table they share (test_plan_par: portfolio planning, the
# request-scoped candidate table shared by the portfolio's roots,
# validation under concurrent requests, hash-consing — equal canonical
# terms built on four domains are one node; test_planner: the search
# itself, with JOBS searches over one pool at once; test_smt:
# simplification, the solver, and structural order against a plain
# mirror of the term variant; test_gadget: stage-2 dedup against a
# structural reference over the survey cells, extracted alone and as
# JOBS concurrent requests) at JOBS=1 and JOBS=4 via the SUITES filter
# in test_main: the intern table is shared by every domain, so both
# sizes run.  The cheap spot-check for planner and term changes; `make
# check` runs both sweeps.
#
# `make check-emu` sweeps the emulator and everything that runs it
# (test_emu: paged copy-on-write memory against a flat reference model,
# machine isolation on one shared image, self-modifying fetch across a
# page boundary; test_symx's summaries-vs-emulator property;
# test_payload's validation — DESIGN.md §18) at JOBS=1 and JOBS=4, the
# latter with machines on several domains reading one image's shared
# pages.
#
# `make check-incr` sweeps the image-memo suite (test_incr: cold vs
# warm over the in-process image memo, counter determinism, and memo
# replay under injected faults, global ids and short fuel, with the
# requests run as JOBS concurrent copies — DESIGN.md §11) the same way.
#
# `make check-screen` sweeps the suites that together show the solver
# memo and the compiled model search change no answer (DESIGN.md §2,
# §12; the memo serves plan instantiation's `check` only):
# test_screen (the 21-cell survey cold, after `Survey.reset_world`, vs
# warm, one cell at a time and as concurrent requests on JOBS domains,
# with the warm runs required to hit the one solver memo,
# `Solver.pool_memo`; counter determinism and attribution; fault
# sweeps), test_smt (the trial table is the old search's draws, the compiled search answers as the old
# trial loop, and four domains sharing the table answer as one) and
# test_plan_par (a memo hit answers what an uncached `check` does, also
# when replayed through another query's substitution, on another
# domain) at JOBS=1 and JOBS=4 — the
# trial table and the memo are shared by every domain — and
# `make check-bench` smoke-tests the paper-table harness end to end in
# `--quick` mode (one program, one config, every table, figure and
# ablation), then runs `--quick --only fig5` and `--quick --only tab7`
# alone and diffs the Fig. 5 table and Table VII's alloc column against
# the same sections of the full run: a table must not depend on which
# experiments ran before it in the process.  Crash injection
# and recovery are covered by check-resume and check-sweep, not by the
# bench.
#
# `make check-resume` sweeps the crash-safety surface (DESIGN.md §13):
# the WAL truncation/bit-flip/unreadable-path properties and lock tests
# in test_util, the supervised-runner + checkpoint-manifest suite in
# test_runner, and test_resilience's crash/resume differential (kill
# the sequential runner's sweep at each durability point, resume on the
# scheduler, require bit-identical results) at JOBS=1 and JOBS=4.
#
# `make check-sweep` sweeps the survey pool, one task per cell
# (test_sweep: FIFO pool property tests — tasks from several domains
# run once, stop drains the queue, a fatal task joins every worker —
# 4-domain shared-state stress, the pooled-sweep-vs-sequential-loop
# byte differential incl. fault injection and an escaped budget, and
# the crash/resume differential — kill a checkpointed sweep at each
# durability point, resume, require bit-identical results — DESIGN.md
# §13–§14) at JOBS=1 and JOBS=4.
#
# `make check-serve` sweeps the analysis daemon, which runs each
# request as one `Serve.handle` task on the pool (test_serve:
# frame-codec totality properties and an exhaustive bit-flip/truncation
# sweep, shared-table model equivalence, and the daemon-vs-CLI
# round-trip byte differential incl. the wire-fault sweep, and the
# teardown on a fatal exception — DESIGN.md §15) at JOBS=1 and JOBS=4;
# at JOBS=4 the daemon's pool reserves 4 x 8 MB of worker minor heap.

CHECK_TIMEOUT ?= 600

# $(call at_jobs_1_and_4,COMMAND): COMMAND under the wall-clock cap at
# JOBS=1, then at JOBS=4.
define at_jobs_1_and_4
JOBS=1 timeout $(CHECK_TIMEOUT) $(1)
JOBS=4 timeout $(CHECK_TIMEOUT) $(1)
endef

.PHONY: all build test check check-par check-plan-par check-emu check-incr \
	check-screen check-resume check-sweep check-serve check-bench clean

all: build

build:
	dune build @all

test:
	dune runtest

check: build check-par check-plan-par check-emu check-incr check-screen \
	check-resume check-sweep check-serve check-bench

check-par:
	$(call at_jobs_1_and_4,dune runtest --force)

# The suite sweeps: each target's test_main suites (SUITES, as test_main
# reads it) at both job counts.
check-plan-par: SUITES = plan_par,planner,smt,gadget
check-emu: SUITES = emu,symx,payload
check-incr: SUITES = incr
check-screen: SUITES = screen,smt,plan_par
check-resume: SUITES = util,runner,resilience
check-sweep: SUITES = sweep
check-serve: SUITES = serve

check-plan-par check-emu check-incr check-screen check-resume check-sweep \
check-serve:
	dune build test/test_main.exe
	$(call at_jobs_1_and_4,env SUITES=$(SUITES) ./_build/default/test/test_main.exe)

# $(call fig5_table,FILE): the Fig. 5 table printed in FILE.
fig5_table = awk '/^== Fig. 5/ { on = 1 } on && /^$$/ { exit } on' $(1)

# $(call tab7_alloc,FILE): Table VII's rows in FILE without the time
# column, which follows the host.
tab7_alloc = awk '/^== Table VII/ { on = 1; next } on && /^$$/ { exit } \
  on && $$1 != "tool" && $$1 !~ /^-/ { $$(NF - 1) = ""; print }' $(1)

check-bench:
	dune build bench/main.exe
	mkdir -p _check
	timeout $(CHECK_TIMEOUT) ./_build/default/bench/main.exe --quick \
	  > _check/bench-quick.txt
	cat _check/bench-quick.txt
	timeout $(CHECK_TIMEOUT) ./_build/default/bench/main.exe --quick \
	  --only fig5 > _check/bench-fig5.txt
	$(call fig5_table,_check/bench-quick.txt) > _check/fig5-in-run.txt
	$(call fig5_table,_check/bench-fig5.txt) > _check/fig5-alone.txt
	test -s _check/fig5-alone.txt
	diff _check/fig5-in-run.txt _check/fig5-alone.txt
	timeout $(CHECK_TIMEOUT) ./_build/default/bench/main.exe --quick \
	  --only tab7 > _check/bench-tab7.txt
	$(call tab7_alloc,_check/bench-quick.txt) > _check/tab7-in-run.txt
	$(call tab7_alloc,_check/bench-tab7.txt) > _check/tab7-alone.txt
	test -s _check/tab7-alone.txt
	diff _check/tab7-in-run.txt _check/tab7-alone.txt

clean:
	dune clean
	rm -rf .gp-cache _check
