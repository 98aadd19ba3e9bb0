# so_bma is offline_dynamic with one window spanning the trace: from the
# CLI, every so_bma column must equal the offline_dynamic:window=<requests>
# column at the same b, with the offline degree bound a left at b and set
# to 1.  Registered as a tier1 ctest so the registry wiring of so_bma
# stays pinned from the user's side.
#
# Usage: cmake -DSIM=<rdcn_sim binary> -DCSV=<output csv prefix> -P check_so_bma_fold.cmake
set(requests 5000)
set(bs 1 4 16)
foreach(a_flag IN ITEMS "" "--a=1")
  if(a_flag STREQUAL "")
    set(csv "${CSV}.csv")
  else()
    set(csv "${CSV}_a1.csv")
  endif()
  execute_process(
    COMMAND ${SIM}
      --workload=microsoft --racks=32 --requests=${requests}
      --algorithms=so_bma,offline_dynamic:window=${requests} --b=1,4,16
      --checkpoints=4 --metric=total_cost ${a_flag} --csv=${csv}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "rdcn_sim ${a_flag} exited with ${rc}\nstdout:\n${out}\nstderr:\n${err}")
  endif()

  file(STRINGS ${csv} lines)
  list(LENGTH lines line_count)
  if(NOT line_count EQUAL 5)
    message(FATAL_ERROR "expected 5 CSV lines (header + 4 checkpoints), got ${line_count}:\n${lines}")
  endif()
  list(GET lines 0 header)
  set(expected_header "requests")
  foreach(b IN LISTS bs)
    string(APPEND expected_header ",so_bma(b=${b})")
  endforeach()
  foreach(b IN LISTS bs)
    string(APPEND expected_header ",offline_dynamic:window=${requests}(b=${b})")
  endforeach()
  if(NOT header STREQUAL expected_header)
    message(FATAL_ERROR "CSV header mismatch ${a_flag}:\n  got:  ${header}\n  want: ${expected_header}")
  endif()

  # Column 1+i is so_bma at the i-th b, column 4+i offline_dynamic there.
  foreach(row RANGE 1 4)
    list(GET lines ${row} line)
    string(REPLACE "," ";" fields "${line}")
    foreach(i RANGE 0 2)
      math(EXPR so_col "1 + ${i}")
      math(EXPR od_col "4 + ${i}")
      list(GET fields ${so_col} so_value)
      list(GET fields ${od_col} od_value)
      if(NOT so_value STREQUAL od_value)
        message(FATAL_ERROR "${a_flag} row ${row}: so_bma column ${so_col} (${so_value}) differs from offline_dynamic column ${od_col} (${od_value}):\n${header}\n${line}")
      endif()
    endforeach()
  endforeach()
endforeach()

message(STATUS "so_bma fold OK: every so_bma column equals its one-window offline_dynamic column, with and without --a=1")
