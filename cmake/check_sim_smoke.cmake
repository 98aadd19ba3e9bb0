# End-to-end smoke sweep for the rdcn_sim CLI: a tiny scenario (two
# algorithm specs, two cache sizes) must run through the registries and
# write a well-formed CSV — header naming every column, one row per
# checkpoint.  Registered as a tier1 ctest so the CLI can never silently
# rot.
#
# Usage: cmake -DSIM=<rdcn_sim binary> -DCSV=<output csv> -P check_sim_smoke.cmake
execute_process(
  COMMAND ${SIM}
    --topology=torus:rows=3,cols=3 --racks=9
    --workload=flow_pool:pairs=30,skew=1.1 --requests=3000
    --algorithms=r_bma:engine=lru,bma --b=2,4
    --trials=2 --checkpoints=4 --seed=7
    --csv=${CSV}
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "rdcn_sim exited with ${rc}\nstdout:\n${out}\nstderr:\n${err}")
endif()

if(NOT EXISTS ${CSV})
  message(FATAL_ERROR "rdcn_sim did not write ${CSV}")
endif()
file(STRINGS ${CSV} lines)
list(LENGTH lines line_count)
# 1 header + one row per checkpoint.
if(NOT line_count EQUAL 5)
  message(FATAL_ERROR "expected 5 CSV lines (header + 4 checkpoints), got ${line_count}:\n${lines}")
endif()

list(GET lines 0 header)
set(expected_header "requests,r_bma:engine=lru(b=2),r_bma:engine=lru(b=4),bma(b=2),bma(b=4)")
if(NOT header STREQUAL expected_header)
  message(FATAL_ERROR "CSV header mismatch:\n  got:  ${header}\n  want: ${expected_header}")
endif()

# Every data row carries one value per column.
foreach(i RANGE 1 4)
  list(GET lines ${i} row)
  string(REGEX MATCHALL "," commas "${row}")
  list(LENGTH commas comma_count)
  if(NOT comma_count EQUAL 4)
    message(FATAL_ERROR "CSV row ${i} malformed (want 5 fields): ${row}")
  endif()
endforeach()

message(STATUS "rdcn_sim smoke sweep OK: ${line_count} lines, header + 4 checkpoint rows")

# One column of the sweep above, run alone: a single online task, so
# rdcn_sim replays the workload as a stream instead of materializing it.
# The stream serves the same requests, so its CSV must equal the sweep's
# `requests` and `bma(b=2)` columns line for line.
execute_process(
  COMMAND ${SIM}
    --topology=torus:rows=3,cols=3 --racks=9
    --workload=flow_pool:pairs=30,skew=1.1 --requests=3000
    --algorithms=bma --b=2
    --trials=2 --checkpoints=4 --seed=7
    --csv=${CSV}.single
  RESULT_VARIABLE single_rc
  OUTPUT_VARIABLE single_out
  ERROR_VARIABLE single_err)
if(NOT single_rc EQUAL 0)
  message(FATAL_ERROR "single-task rdcn_sim exited with ${single_rc}\nstdout:\n${single_out}\nstderr:\n${single_err}")
endif()
if(NOT single_out MATCHES "streamed")
  message(FATAL_ERROR "single-task rdcn_sim did not report streamed replay:\n${single_out}")
endif()

file(STRINGS ${CSV}.single single_lines)
set(expected_single "")
foreach(line IN LISTS lines)
  string(REPLACE "," ";" fields "${line}")
  list(GET fields 0 requests_field)
  list(GET fields 3 bma_field)
  list(APPEND expected_single "${requests_field},${bma_field}")
endforeach()
if(NOT single_lines STREQUAL expected_single)
  message(FATAL_ERROR "single-task CSV differs from the sweep's bma(b=2) column:\n  sweep:       ${expected_single}\n  single task: ${single_lines}")
endif()

message(STATUS "rdcn_sim single-task smoke OK: streamed CSV equals the sweep's bma(b=2) column")

# An out-of-range workload parameter is a spec error: rdcn_sim must report
# it and exit 2, not crash.  hub_fraction=2 once read past the rack list.
execute_process(
  COMMAND ${SIM}
    --racks=32 --requests=1000 --checkpoints=2 --algorithms=bma --b=2
    --workload=flow_pool:hub_fraction=2
  RESULT_VARIABLE bad_rc
  OUTPUT_VARIABLE bad_out
  ERROR_VARIABLE bad_err)
if(NOT bad_rc EQUAL 2 OR NOT bad_err MATCHES "error:")
  message(FATAL_ERROR "flow_pool:hub_fraction=2 should exit 2 with an error: line, got ${bad_rc}\nstdout:\n${bad_out}\nstderr:\n${bad_err}")
endif()

message(STATUS "rdcn_sim spec-error smoke OK: hub_fraction=2 exits 2")

# A malformed flag value or a stray word is an error, not a different
# experiment: each row must exit 2 within 10 s with an error: line naming
# the flag.  The bad flag comes last, so a parser that ignored it would run
# the tiny valid scenario before it and exit 0 (--requests=-1 and
# --trials=-1 once ran 2^64-1 requests or trials, so time out instead).
foreach(row IN ITEMS "--racks=12abc|racks" "--b=4x|'b'"
                     "--requests=-1|requests" "--trials=-1|trials"
                     "--threads=-1|threads" "50000|50000"
                     "--profile=maybe|profile")
  string(REPLACE "|" ";" row "${row}")
  list(GET row 0 arg)
  list(GET row 1 name)
  execute_process(
    COMMAND ${SIM} --racks=8 --requests=100 --checkpoints=2
      --algorithms=bma --b=2 ${arg}
    TIMEOUT 10
    RESULT_VARIABLE flag_rc
    OUTPUT_VARIABLE flag_out
    ERROR_VARIABLE flag_err)
  if(NOT flag_rc EQUAL 2 OR NOT flag_err MATCHES "error:[^\n]*${name}")
    message(FATAL_ERROR "rdcn_sim ${arg} should exit 2 with an error: line naming ${name}, got ${flag_rc}\nstdout:\n${flag_out}\nstderr:\n${flag_err}")
  endif()
endforeach()

message(STATUS "rdcn_sim flag smoke OK: malformed values and stray words exit 2")
