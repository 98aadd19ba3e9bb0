# Every run listed in bench/paper_experiments.txt must stay a valid rdcn_sim
# command line: each line that is neither blank nor a comment runs with
# --requests=20000 appended (a repeated flag replaces the earlier one) and
# must exit 0.  Registered as a tier1 ctest so the experiment list cannot
# rot as flags and registry names change.
#
# Usage: cmake -DSIM=<rdcn_sim binary> -DEXPERIMENTS=<paper_experiments.txt>
#              -P check_paper_experiments.cmake
file(STRINGS ${EXPERIMENTS} lines ENCODING UTF-8)
set(runs 0)
foreach(line IN LISTS lines)
  string(STRIP "${line}" line)
  if(line STREQUAL "" OR line MATCHES "^#")
    continue()
  endif()
  separate_arguments(args UNIX_COMMAND "${line}")
  execute_process(
    COMMAND ${SIM} ${args} --requests=20000
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "rdcn_sim exited with ${rc} on\n  ${line}\nstdout:\n${out}\nstderr:\n${err}")
  endif()
  math(EXPR runs "${runs} + 1")
endforeach()
if(runs EQUAL 0)
  message(FATAL_ERROR "no rdcn_sim runs found in ${EXPERIMENTS}")
endif()
message(STATUS "paper experiments OK: ${runs} rdcn_sim runs at --requests=20000")
