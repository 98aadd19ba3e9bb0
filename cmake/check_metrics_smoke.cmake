# End-to-end smoke for the observability surface: a spawned rdcn_serve
# daemon runs the tiny smoke scenario twice (second submission with
# component parameters reordered — a results-cache hit), then the client
# scrapes the METRICS endpoint.  The scrape must be syntactically valid
# Prometheus text exposition (every line a # HELP / # TYPE comment or a
# `name{labels} value` sample) and must carry the core metric families:
# runs by status, queue-wait/run latency histograms, cache hit/miss,
# fault-point counters, and the process-wide pool/simulator counters.
# Registered as a tier1 ctest.
#
# Usage: cmake -DSERVE=<rdcn_serve> -DCLIENT=<rdcn_serve_client>
#              -DWORKDIR=<scratch dir> -P check_metrics_smoke.cmake

set(spec "topology=torus:rows=3,cols=3;workload=flow_pool:pairs=30,skew=1.1;algorithms=r_bma:engine=lru,bma;b=2,4;racks=9;requests=3000;trials=2;checkpoints=4;seed=7")
set(spec2 "topology=torus:cols=3,rows=3;workload=flow_pool:skew=1.1,pairs=30;algorithms=r_bma:engine=lru,bma;b=2,4;racks=9;requests=3000;trials=2;checkpoints=4;seed=7")
set(metrics_file ${WORKDIR}/metrics_smoke.txt)
execute_process(
  COMMAND ${CLIENT}
    --daemon=${SERVE} --socket=${WORKDIR}/metrics_smoke.sock
    # quoted: the specs contain semicolons, which bare ${} expansion would
    # split into separate list items / arguments
    "--spec=${spec}" "--spec2=${spec2}"
    --metrics-out=${metrics_file}
    --quiet
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "rdcn_serve_client exited with ${rc}\nstdout:\n${out}\nstderr:\n${err}")
endif()

# 1. Syntax: every non-empty line is a # HELP/# TYPE comment or a sample.
file(STRINGS ${metrics_file} lines)
list(LENGTH lines n_lines)
if(n_lines LESS 10)
  message(FATAL_ERROR "METRICS scrape suspiciously short (${n_lines} lines):\n${lines}")
endif()
set(metric_name "[a-zA-Z_:][a-zA-Z0-9_:]*")
set(number "[-+]?[0-9]+(\\.[0-9]+)?([eE][-+]?[0-9]+)?")
foreach(line IN LISTS lines)
  if(line MATCHES "^# HELP ${metric_name} .+$")
    continue()
  endif()
  if(line MATCHES "^# TYPE ${metric_name} (counter|gauge|histogram)$")
    continue()
  endif()
  if(line MATCHES "^${metric_name}(\\{[^{}]*\\})? ${number}$")
    continue()
  endif()
  message(FATAL_ERROR "invalid exposition line: '${line}'")
endforeach()

# 2. Coverage: the core families are present — and the ones this scenario
# must have moved are nonzero (two ok runs, one cache hit, >= 1 serve
# chunk).  Fault counters are eagerly registered by the daemon, so they
# appear (at zero) even though nothing was armed.
file(READ ${metrics_file} text)
foreach(required IN ITEMS
    "rdcn_serve_runs_total{status=\"ok\"} [1-9]"
    "rdcn_serve_runs_total{status=\"error\"} "
    "rdcn_serve_run_seconds_bucket"
    "rdcn_serve_cache_hits_total [1-9]"
    "rdcn_serve_cache_misses_total [1-9]"
    "rdcn_serve_queue_depth"
    "rdcn_serve_active_runs"
    "rdcn_serve_rejected_total"
    "rdcn_serve_quarantined_total"
    "rdcn_serve_queue_wait_seconds_bucket"
    "rdcn_serve_runs_total{status=\"stalled\"} "
    "rdcn_fault_fires_total"
    "rdcn_journal_appends_total"
    "rdcn_journal_replayed_total"
    "rdcn_journal_corrupt_total"
    "rdcn_runs_recovered_total"
    "rdcn_attach_total"
    "rdcn_serve_drain_seconds_bucket"
    "rdcn_sim_chunks_total [1-9]"
    "rdcn_sim_requests_total [1-9]"
    "rdcn_pool_workers"
    "# TYPE rdcn_serve_run_seconds histogram")
  string(REPLACE "{" "\\{" pattern "${required}")
  string(REPLACE "}" "\\}" pattern "${pattern}")
  if(NOT text MATCHES "${pattern}")
    message(FATAL_ERROR "METRICS scrape is missing '${required}':\n${text}")
  endif()
endforeach()

message(STATUS "rdcn metrics smoke OK: ${n_lines} valid exposition lines, core families covered")
