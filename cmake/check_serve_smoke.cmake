# End-to-end smoke for the serving daemon: the same tiny scenario the
# rdcn_sim smoke sweep runs is submitted through a spawned rdcn_serve
# daemon, and the CSV that comes back over the socket must be
# bit-identical to a direct `rdcn_sim --csv` run.  A second submission
# with every component's parameters reordered must be answered from the
# results cache (cached=1) with the same bytes — proving canonical-spec
# keying end to end.  Registered as a tier1 ctest (so it also runs under
# the sanitizer CI job).
#
# Usage: cmake -DSIM=<rdcn_sim> -DSERVE=<rdcn_serve> -DCLIENT=<rdcn_serve_client>
#              -DWORKDIR=<scratch dir> -P check_serve_smoke.cmake

# 1. Ground truth: direct in-process run.
set(direct_csv ${WORKDIR}/serve_smoke_direct.csv)
execute_process(
  COMMAND ${SIM}
    --topology=torus:rows=3,cols=3 --racks=9
    --workload=flow_pool:pairs=30,skew=1.1 --requests=3000
    --algorithms=r_bma:engine=lru,bma --b=2,4
    --trials=2 --checkpoints=4 --seed=7
    --csv=${direct_csv}
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "rdcn_sim exited with ${rc}\nstdout:\n${out}\nstderr:\n${err}")
endif()

# 2. The same scenario through the daemon (client spawns + reaps it).
# spec2 is the same experiment with component parameters reordered
# (torus cols before rows, flow_pool skew before pairs) — the canonical
# cache key must make it a hit.
set(spec "topology=torus:rows=3,cols=3;workload=flow_pool:pairs=30,skew=1.1;algorithms=r_bma:engine=lru,bma;b=2,4;racks=9;requests=3000;trials=2;checkpoints=4;seed=7")
set(spec2 "topology=torus:cols=3,rows=3;workload=flow_pool:skew=1.1,pairs=30;algorithms=r_bma:engine=lru,bma;b=2,4;racks=9;requests=3000;trials=2;checkpoints=4;seed=7")
set(served_csv ${WORKDIR}/serve_smoke_served.csv)
set(served2_csv ${WORKDIR}/serve_smoke_served2.csv)
execute_process(
  COMMAND ${CLIENT}
    --daemon=${SERVE} --socket=${WORKDIR}/serve_smoke.sock
    # quoted: the specs contain semicolons, which bare ${} expansion would
    # split into separate list items / arguments
    "--spec=${spec}" --csv=${served_csv}
    "--spec2=${spec2}" --csv2=${served2_csv}
    --quiet
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "rdcn_serve_client exited with ${rc}\nstdout:\n${out}\nstderr:\n${err}")
endif()

# 3. Served CSV == direct CSV, byte for byte.
foreach(served IN ITEMS ${served_csv} ${served2_csv})
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${direct_csv} ${served}
    RESULT_VARIABLE same)
  if(NOT same EQUAL 0)
    file(READ ${direct_csv} direct_text)
    file(READ ${served} served_text)
    message(FATAL_ERROR "served CSV ${served} differs from direct run:\n"
      "--- direct ---\n${direct_text}\n--- served ---\n${served_text}")
  endif()
endforeach()

# 4. First submission executed (cached=0), reordered resubmission was a
# cache hit (cached=1).
if(NOT out MATCHES "run: status=ok cached=0")
  message(FATAL_ERROR "first submission did not report an executed ok run:\n${out}")
endif()
if(NOT out MATCHES "run: status=ok cached=1")
  message(FATAL_ERROR "reordered resubmission was not served from cache:\n${out}")
endif()

message(STATUS "rdcn_serve smoke OK: served CSV bit-identical to direct run, reordered resubmit cached")

# 5. A malformed flag is an error before anything starts: each row must
# exit 2 within 10 s with an error: line naming the flag.  --executors=0
# (runs queue but never execute) and a negative --quota-rps ("unlimited")
# are refused too.
foreach(row IN ITEMS "--executors=-1|executors" "--cache=-1|cache"
                     "--retry-ms=4294967296|retry-ms"
                     "--quota-rps=nan|quota-rps" "--quota-rps=-1|quota.rps"
                     "--executors=0|executors")
  string(REPLACE "|" ";" row "${row}")
  list(GET row 0 arg)
  list(GET row 1 name)
  execute_process(
    COMMAND ${SERVE} --socket=${WORKDIR}/serve_smoke_flags.sock ${arg}
    TIMEOUT 10
    RESULT_VARIABLE flag_rc
    OUTPUT_VARIABLE flag_out
    ERROR_VARIABLE flag_err)
  if(NOT flag_rc EQUAL 2 OR NOT flag_err MATCHES "error:[^\n]*${name}")
    message(FATAL_ERROR "rdcn_serve ${arg} should exit 2 with an error: line naming ${name}, got ${flag_rc}\nstdout:\n${flag_out}\nstderr:\n${flag_err}")
  endif()
endforeach()

# The client reads every flag before --daemon forks: a bad one exits 2
# and spawns no daemon, so no socket file appears.
set(client_sock ${WORKDIR}/serve_smoke_client_flags.sock)
file(REMOVE ${client_sock})
execute_process(
  COMMAND ${CLIENT} --daemon=${SERVE} --socket=${client_sock}
    --priority=high
  TIMEOUT 10
  RESULT_VARIABLE flag_rc
  OUTPUT_VARIABLE flag_out
  ERROR_VARIABLE flag_err)
if(NOT flag_rc EQUAL 2 OR NOT flag_err MATCHES "error:[^\n]*priority"
   OR EXISTS ${client_sock})
  message(FATAL_ERROR "rdcn_serve_client --priority=high should exit 2 naming priority and spawn no daemon, got ${flag_rc}\nstdout:\n${flag_out}\nstderr:\n${flag_err}")
endif()

message(STATUS "rdcn_serve flag smoke OK: malformed flags exit 2, no daemon spawned")
