# Bounded-wait mode end to end: oversubscribed demand with a per-Get
# deadline must pass every invariant AND actually refuse some Gets. A
# run with 0 timeouts covered no refusal, so it fails here; a plain
# exit-status test would pass it. The run is timed, not op-counted: at
# a few thousand ops per worker the workers barely overlap and demand
# never passes the bound.
#
#   cmake -DSTRESS_RUNNER=<path to stress_runner> \
#     -P tests/stress_deadline_timeouts.cmake
if(NOT STRESS_RUNNER)
  message(FATAL_ERROR "pass -DSTRESS_RUNNER=<path to the stress_runner binary>")
endif()

execute_process(
  COMMAND ${STRESS_RUNNER} --structure=sharded:level --scenario=oversub
          --threads=8 --ops=0 --seconds=0.5 --deadline=10ms --csv
  RESULT_VARIABLE status OUTPUT_VARIABLE out ERROR_VARIABLE err
  TIMEOUT 120)
message("${out}${err}")
if(NOT status STREQUAL "0")
  message(FATAL_ERROR "stress_runner: status '${status}' (want 0)")
endif()

# The CSV is a '#' comment line, the header row, then one row per cell.
string(REPLACE "\n" ";" lines "${out}")
set(column -1)
set(rows 0)
foreach(line IN LISTS lines)
  if(line MATCHES "^structure,")
    string(REPLACE "," ";" header "${line}")
    list(FIND header "timeouts" column)
  elseif(NOT column EQUAL -1 AND line MATCHES ",")
    string(REPLACE "," ";" fields "${line}")
    list(GET fields ${column} timeouts)
    math(EXPR rows "${rows} + 1")
    if(NOT timeouts GREATER 0)
      message(FATAL_ERROR "no Get timed out, no refusal covered: ${line}")
    endif()
  endif()
endforeach()
if(column EQUAL -1 OR rows EQUAL 0)
  message(FATAL_ERROR "no CSV header with a timeouts column, or no rows")
endif()
