#!/bin/sh
# Runs every figure and extension bench at the paper's protocol (40 runs per
# setting, full sweeps) and tees the log. From the repository root:
#
#   cmake -B build && cmake --build build -j
#   tools/run_paper_protocol.sh [output-file]
#
# Replications fan out across cores (AGENTNET_THREADS, default all); the
# tables are bit-identical at any thread count. The quick default settings
# (no env vars) take ~1 min serial.
#
#   tools/run_paper_protocol.sh --smoke
#
# instead builds the parallel determinism + telemetry suites under
# ThreadSanitizer (-DAGENTNET_SANITIZE=thread, separate build-tsan/ tree),
# runs them, then drives one traced mapping run and one traced routing run
# with traffic on (AGENTNET_TRACE, 7 threads; trace_check --require proves
# its flows started and ended) plus one chaos-harness run of each under the
# AGENTNET_FAULT_* environment (docs/ROBUSTNESS.md), and validates the
# JSONL event streams with tools/trace_check — including --require proofs
# that the chaos runs actually crashed nodes and lost agents. It also runs
# one traced+metered fault-injected routing run with traffic on per thread
# count (1 and 2), proves stdout (the merged traffic line included) and the
# metrics stream byte-identical across the two, and pushes it
# through tools/metrics_report (validate — the metrics gate — then
# summarize and diff; docs/OBSERVABILITY.md). The ant-colony and DV
# scenarios get the same stdout/trace/metrics thread diff under
# AGENTNET_FAULT_NODE_CRASH, with a --require=node_crash proof. An
# agent-engine leg repeats that proof for AGENTNET_AGENT_THREADS (the intra-run fan-out,
# docs/PERFORMANCE.md): mapping and routing runs at agent threads 1 and 2,
# byte-diffed across stdout, trace and metrics. A checkpoint/restore
# leg then snapshots a fault-injected routing run mid-flight, resumes it
# in a fresh process at a different thread count, and byte-diffs stdout,
# metrics and traces against the uninterrupted run (docs/ROBUSTNESS.md).
# The hot-path equivalence leg includes the shared-world-script replay
# suites, the block-parallel cold-build suite at 7 threads and the
# per-step allocation budgets (alloc_budget_test). An ASan +
# UBSan leg (separate build-asan/ tree) runs the graph, topology-upkeep
# (rebuild-equivalence, sharded-world, world), map-knowledge, edge-index,
# battery and snapshot suites, the shared movement-recording suites
# (mobility, scenario I/O, routing task), the flow data-plane suite, the
# telemetry codec's suites (obs, metrics time series: the trace, metrics
# and manifest readers take outside input), the work-claiming
# ParallelForTest cases and the run team's ForkJoinTest cases. Last, it builds the benchmark program and runs
# `python3 benchmark/run.py --smoke` (all five workloads at toy sizes,
# invariants only) with no inherited AGENTNET_* variables. A fast
# data-race + memory-safety + schema check, not a bench sweep. Run inside
# a git checkout, it fails if it leaves `git status --porcelain` changed.
set -eu

if [ "${1:-}" = "--smoke" ]; then
  in_git=0
  if git rev-parse --is-inside-work-tree >/dev/null 2>&1; then
    in_git=1
    status_before="$(git status --porcelain)"
  fi
  cmake -B build-tsan -S . -DAGENTNET_SANITIZE=thread
  cmake --build build-tsan \
    --target parallel_determinism_test obs_test agentnet_cli trace_check \
    metrics_report -j"$(nproc)"
  echo "##### parallel_determinism_test (TSan)"
  AGENTNET_THREADS=7 build-tsan/tests/parallel_determinism_test
  echo "##### obs_test (TSan)"
  AGENTNET_THREADS=7 build-tsan/tests/obs_test
  echo "##### traced runs (TSan + trace_check)"
  tmp="$(mktemp -d)"
  trap 'rm -rf "$tmp"' EXIT
  AGENTNET_THREADS=7 AGENTNET_TRACE="$tmp/map.jsonl" \
    build-tsan/examples/agentnet_cli scenario=mapping nodes=60 edges=300 \
    population=4 runs=3
  AGENTNET_THREADS=7 AGENTNET_TRACE="$tmp/route.jsonl" \
    build-tsan/examples/agentnet_cli scenario=routing nodes=50 gateways=4 \
    population=10 runs=2 traffic=1
  # Loaded data plane (docs/TRAFFIC.md): delay-mode ants + gateway
  # balancing under traffic heavy enough that session, queue and drop
  # events all provably fire.
  AGENTNET_THREADS=7 AGENTNET_TRACE="$tmp/traffic.jsonl" \
    build-tsan/examples/agentnet_cli scenario=traffic nodes=50 gateways=4 \
    load=0.4 mode=delay balance=1 runs=2
  build-tsan/tools/trace_check "$tmp/map.jsonl"
  build-tsan/tools/trace_check --require=flow_start --require=flow_end \
    "$tmp/route.jsonl"
  build-tsan/tools/trace_check --require=flow_start --require=flow_end \
    --require=packet_drop "$tmp/traffic.jsonl"
  echo "##### chaos runs (TSan + AGENTNET_FAULT_* + trace_check --require)"
  AGENTNET_THREADS=7 AGENTNET_TRACE="$tmp/map_chaos.jsonl" \
    AGENTNET_FAULT_AGENT_LOSS=0.02 AGENTNET_FAULT_NODE_CRASH=0.02 \
    AGENTNET_FAULT_BURST_DROP=0.05 AGENTNET_FAULT_EXCHANGE=0.1 \
    AGENTNET_FAULT_WATCHDOG_TTL=60 AGENTNET_FAULT_KNOWLEDGE_TTL=120 \
    build-tsan/examples/agentnet_cli scenario=mapping nodes=60 edges=300 \
    population=4 runs=3 max_steps=3000
  AGENTNET_THREADS=7 AGENTNET_TRACE="$tmp/route_chaos.jsonl" \
    AGENTNET_FAULT_AGENT_LOSS=0.03 AGENTNET_FAULT_RESPAWN=0.3 \
    AGENTNET_FAULT_NODE_CRASH=0.03 \
    build-tsan/examples/agentnet_cli scenario=routing nodes=50 gateways=4 \
    population=10 runs=2
  build-tsan/tools/trace_check --require=node_crash --require=node_recover \
    --require=lost "$tmp/map_chaos.jsonl" "$tmp/route_chaos.jsonl"
  echo "##### time-series metrics (TSan + metrics_report + thread diff)"
  # One fault-injected routing run with traffic per thread count: stdout
  # (the merged traffic line included) and the metrics stream must be
  # byte-identical at threads=1 and threads=2
  # (docs/OBSERVABILITY.md determinism contract; manifests legitimately
  # differ — they record the thread count). The analyzer leg then proves
  # the stream is machine-readable end to end.
  AGENTNET_THREADS=1 AGENTNET_TRACE="$tmp/route_m1.trace.jsonl" \
    AGENTNET_METRICS="$tmp/route_m1.jsonl" AGENTNET_METRICS_EVERY=1 \
    AGENTNET_MANIFEST="$tmp/route_m1.manifest.json" \
    AGENTNET_FAULT_NODE_CRASH=0.05 \
    build-tsan/examples/agentnet_cli scenario=routing nodes=50 gateways=4 \
    population=10 runs=2 traffic=1 > "$tmp/route_m1.out"
  AGENTNET_THREADS=2 AGENTNET_TRACE="$tmp/route_m2.trace.jsonl" \
    AGENTNET_METRICS="$tmp/route_m2.jsonl" AGENTNET_METRICS_EVERY=1 \
    AGENTNET_MANIFEST="$tmp/route_m2.manifest.json" \
    AGENTNET_FAULT_NODE_CRASH=0.05 \
    build-tsan/examples/agentnet_cli scenario=routing nodes=50 gateways=4 \
    population=10 runs=2 traffic=1 > "$tmp/route_m2.out"
  diff "$tmp/route_m1.out" "$tmp/route_m2.out"
  diff "$tmp/route_m1.jsonl" "$tmp/route_m2.jsonl"
  echo "metrics streams at threads=1 and threads=2 are bit-identical"
  build-tsan/tools/metrics_report validate "$tmp/route_m1.jsonl"
  build-tsan/tools/metrics_report summarize "$tmp/route_m1.jsonl" \
    --gauge=connectivity --threshold=0.5
  build-tsan/tools/metrics_report diff "$tmp/route_m1.jsonl" \
    "$tmp/route_m2.jsonl"
  # The ant-colony and DV baselines replicate through the same harness
  # (experiments/replicate.hpp): under the fault environment their stdout,
  # trace and metrics must be byte-identical at threads 1 and 2, and the
  # injected crashes must show in the trace.
  for scenario in aco dv; do
    for t in 1 2; do
      AGENTNET_THREADS="$t" \
        AGENTNET_TRACE="$tmp/${scenario}_t${t}.trace.jsonl" \
        AGENTNET_METRICS="$tmp/${scenario}_t${t}.jsonl" \
        AGENTNET_METRICS_EVERY=1 AGENTNET_FAULT_NODE_CRASH=0.05 \
        build-tsan/examples/agentnet_cli scenario="$scenario" nodes=50 \
        gateways=4 runs=2 > "$tmp/${scenario}_t${t}.out"
    done
    diff "$tmp/${scenario}_t1.out" "$tmp/${scenario}_t2.out"
    diff "$tmp/${scenario}_t1.trace.jsonl" "$tmp/${scenario}_t2.trace.jsonl"
    diff "$tmp/${scenario}_t1.jsonl" "$tmp/${scenario}_t2.jsonl"
    build-tsan/tools/trace_check --require=node_crash \
      "$tmp/${scenario}_t1.trace.jsonl"
    build-tsan/tools/metrics_report validate "$tmp/${scenario}_t1.jsonl"
  done
  echo "aco and dv runs at threads=1 and threads=2 are bit-identical"
  echo "##### intra-run agent engine byte-identity (TSan, agent threads 1/2)"
  # The tentpole contract (docs/PERFORMANCE.md "Intra-run agent
  # parallelism"): AGENTNET_AGENT_THREADS fans the per-step agent phases
  # over the run's team and must change wall-clock only. One traced +
  # metered fault-injected run per agent-thread count, for mapping and for
  # routing; stdout tables, the JSONL event stream and the metrics stream
  # are byte-diffed, under TSan so a data race in the fan-out fails the
  # leg outright. trace_check --require proves the exchange phase (meet /
  # merge events — the group-parallel part) actually fired.
  for scenario in mapping routing; do
    case "$scenario" in
      mapping) cli_args="scenario=mapping nodes=60 edges=300 population=4 \
        runs=2 max_steps=3000" ;;
      routing) cli_args="scenario=routing nodes=50 gateways=4 \
        population=10 runs=2 visiting=1" ;;
    esac
    for at in 1 2; do
      AGENTNET_THREADS=2 AGENTNET_AGENT_THREADS="$at" \
        AGENTNET_TRACE="$tmp/${scenario}_a${at}.trace.jsonl" \
        AGENTNET_METRICS="$tmp/${scenario}_a${at}.jsonl" \
        AGENTNET_METRICS_EVERY=1 \
        AGENTNET_FAULT_NODE_CRASH=0.03 AGENTNET_FAULT_AGENT_LOSS=0.02 \
        build-tsan/examples/agentnet_cli $cli_args \
        > "$tmp/${scenario}_a${at}.out"
    done
    diff "$tmp/${scenario}_a1.out" "$tmp/${scenario}_a2.out"
    diff "$tmp/${scenario}_a1.trace.jsonl" "$tmp/${scenario}_a2.trace.jsonl"
    diff "$tmp/${scenario}_a1.jsonl" "$tmp/${scenario}_a2.jsonl"
    build-tsan/tools/trace_check --require=meet --require=merge \
      "$tmp/${scenario}_a1.trace.jsonl"
  done
  echo "agent-thread 1 and 2 runs are bit-identical (mapping + routing)"
  echo "##### hot-path equivalence suite (TSan)"
  cmake --build build-tsan --target rebuild_equivalence_test \
    sharded_world_test world_script_test replay_equivalence_test \
    alloc_budget_test agent_parallel_determinism_test -j"$(nproc)"
  # The cold topology build sizes its worker waves from AGENTNET_THREADS
  # (docs/PERFORMANCE.md); the suite's multi-block fields pin {1, 2, 7}
  # themselves, and 7 covers every other build in it.
  AGENTNET_THREADS=7 build-tsan/tests/rebuild_equivalence_test
  build-tsan/tests/sharded_world_test
  # Shared world script (docs/PERFORMANCE.md): replicated experiments read
  # one recorded script from every worker, so replay-vs-live runs here at
  # 7 threads.
  AGENTNET_THREADS=7 build-tsan/tests/world_script_test
  AGENTNET_THREADS=7 build-tsan/tests/replay_equivalence_test
  # The run's team (common/fork_join.hpp) that the agent engine and
  # World::advance's row gather fan over: spin, park, wake, error order,
  # teardown.
  # Repeated for more interleavings than the one run at the top.
  build-tsan/tests/parallel_determinism_test --gtest_filter='ForkJoinTest.*' \
    --gtest_repeat=3
  # Exact allocation counts for warm build_into, World::advance, a warm
  # team job and a warm agent batch (docs/PERFORMANCE.md, "Measuring
  # performance").
  build-tsan/tests/alloc_budget_test
  echo "##### topology upkeep thread-count diff (TSan, agent threads 1/7)"
  # A live world's World::advance() fans the row gather, above a grain of
  # dirty rows, over the run's one team of AGENTNET_AGENT_THREADS threads
  # (docs/PERFORMANCE.md, "The run's team"). One traced routing run per
  # thread count: stdout tables and the JSONL event stream must be
  # byte-identical. runs=1 keeps the world on the live upkeep path instead
  # of a replayed script. A 50-node world stays below the grain; the
  # fanned-out path runs under TSan in sharded_world_test
  # (CrowdFansOutAndMatchesSerialAcrossTeamRebuilds) above and in
  # SharedTeamGathersUpkeepAboveTheGrain below.
  for at in 1 7; do
    AGENTNET_THREADS=2 AGENTNET_AGENT_THREADS="$at" \
      AGENTNET_TRACE="$tmp/route_st${at}.jsonl" \
      build-tsan/examples/agentnet_cli scenario=routing nodes=50 gateways=4 \
      population=10 runs=1 > "$tmp/route_st${at}.out"
  done
  diff "$tmp/route_st1.out" "$tmp/route_st7.out"
  diff "$tmp/route_st1.jsonl" "$tmp/route_st7.jsonl"
  echo "topology upkeep at agent threads 1 and 7 is bit-identical"
  # A 1,200-node live routing run whose 600 movers keep every step above
  # the grain: agent phases and upkeep gather alternate on one team, with
  # traffic off and on, at agent threads {1, 2, 7}.
  build-tsan/tests/agent_parallel_determinism_test \
    --gtest_filter='AgentParallelDeterminismTest.SharedTeamGathersUpkeepAboveTheGrain'
  echo "##### checkpoint/restore byte-identity (TSan + snapshot_inspect)"
  # Crash-tolerance proof (docs/ROBUSTNESS.md "Checkpoint/restore"): run a
  # traced+metered fault-injected routing experiment uninterrupted, run it
  # again with periodic checkpointing, then resume from the on-disk
  # snapshot in a FRESH process at a different thread count. Final stdout,
  # metrics stream and trace must be byte-identical — checkpoint_* trace
  # events are recovery bookkeeping outside the deterministic surface and
  # are filtered per the documented contract.
  cmake --build build-tsan --target snapshot_inspect -j"$(nproc)"
  AGENTNET_THREADS=7 AGENTNET_TRACE="$tmp/ck_base.trace.jsonl" \
    AGENTNET_METRICS="$tmp/ck_base.metrics.jsonl" \
    AGENTNET_FAULT_NODE_CRASH=0.05 AGENTNET_FAULT_AGENT_LOSS=0.02 \
    AGENTNET_FAULT_RESPAWN=0.1 \
    build-tsan/examples/agentnet_cli scenario=routing nodes=50 gateways=4 \
    population=10 runs=2 > "$tmp/ck_base.out"
  AGENTNET_THREADS=2 AGENTNET_CHECKPOINT="$tmp/ck.snap" \
    AGENTNET_CHECKPOINT_EVERY=100 \
    AGENTNET_TRACE="$tmp/ck_save.trace.jsonl" \
    AGENTNET_METRICS="$tmp/ck_save.metrics.jsonl" \
    AGENTNET_FAULT_NODE_CRASH=0.05 AGENTNET_FAULT_AGENT_LOSS=0.02 \
    AGENTNET_FAULT_RESPAWN=0.1 \
    build-tsan/examples/agentnet_cli scenario=routing nodes=50 gateways=4 \
    population=10 runs=2 > "$tmp/ck_save.out"
  build-tsan/tools/snapshot_inspect "$tmp/ck.snap"
  AGENTNET_THREADS=7 AGENTNET_RESUME="$tmp/ck.snap" \
    AGENTNET_TRACE="$tmp/ck_resume.trace.jsonl" \
    AGENTNET_METRICS="$tmp/ck_resume.metrics.jsonl" \
    AGENTNET_FAULT_NODE_CRASH=0.05 AGENTNET_FAULT_AGENT_LOSS=0.02 \
    AGENTNET_FAULT_RESPAWN=0.1 \
    build-tsan/examples/agentnet_cli scenario=routing nodes=50 gateways=4 \
    population=10 runs=2 > "$tmp/ck_resume.out"
  diff "$tmp/ck_base.out" "$tmp/ck_save.out"
  diff "$tmp/ck_base.out" "$tmp/ck_resume.out"
  diff "$tmp/ck_base.metrics.jsonl" "$tmp/ck_save.metrics.jsonl"
  diff "$tmp/ck_base.metrics.jsonl" "$tmp/ck_resume.metrics.jsonl"
  grep -v 'checkpoint_' "$tmp/ck_save.trace.jsonl" > "$tmp/ck_save.trace.flt"
  grep -v 'checkpoint_' "$tmp/ck_resume.trace.jsonl" \
    > "$tmp/ck_resume.trace.flt"
  diff "$tmp/ck_base.trace.jsonl" "$tmp/ck_save.trace.flt"
  diff "$tmp/ck_base.trace.jsonl" "$tmp/ck_resume.trace.flt"
  # Corruption must be rejected loudly, never resumed from.
  head -c 64 "$tmp/ck.snap" > "$tmp/ck_torn.snap"
  if build-tsan/tools/snapshot_inspect --validate "$tmp/ck_torn.snap" \
    2>/dev/null; then
    echo "truncated snapshot was accepted" >&2; exit 1
  fi
  echo "checkpointed, resumed and uninterrupted runs are bit-identical"
  echo "##### graph + upkeep + knowledge + snapshot + mobility + telemetry-codec suites (ASan + UBSan)"
  cmake -B build-asan -S . -DAGENTNET_SANITIZE=address,undefined
  asan_suites="graph_test topology_test rebuild_equivalence_test
    sharded_world_test world_test world_script_test map_knowledge_test
    edge_index_test snapshot_format_test snapshot_resume_test mobility_test
    battery_test scenario_io_test routing_task_test flow_traffic_test
    obs_test metrics_timeseries_test"
  cmake --build build-asan --target $asan_suites parallel_determinism_test \
    -j"$(nproc)"
  for t in $asan_suites; do
    UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1 build-asan/tests/"$t"
  done
  UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1 AGENTNET_THREADS=7 \
    build-asan/tests/parallel_determinism_test \
    --gtest_filter='ParallelForTest.*:ForkJoinTest.*'
  echo "##### benchmark program (benchmark/run.py --smoke)"
  # agentnet_bench builds against the library in this checkout, so
  # a library change that breaks it fails here rather than in a timed
  # run. run.py refuses inherited AGENTNET_* variables; drop them all.
  env $(env | sed -n 's/^\(AGENTNET_[A-Za-z0-9_]*\)=.*/-u \1/p') \
    python3 benchmark/run.py --smoke
  # The smoke run writes only to its own build trees and $tmp.
  if [ "$in_git" = 1 ] &&
    [ "$(git status --porcelain)" != "$status_before" ]; then
    echo "smoke run changed the working tree:" >&2
    git status --porcelain >&2
    exit 1
  fi
  echo "TSan + ASan/UBSan + trace + chaos + perf smoke passed" >&2
  exit 0
fi

out="${1:-paper_protocol_results.txt}"
bench_dir="build/bench"
[ -d "$bench_dir" ] || { echo "build first: cmake --build build" >&2; exit 1; }

AGENTNET_RUNS=40 AGENTNET_FULL=1 sh -c '
  for b in '"$bench_dir"'/fig* '"$bench_dir"'/ext*; do
    echo "##### $(basename "$b")"
    "$b"
  done
' | tee "$out"
echo "wrote $out" >&2
