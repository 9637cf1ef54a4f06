# Usage errors in longrun_stability: --threads=0 must exit with status
# exactly 1 and name the reason on stderr. The thread count divides the
# per-checkpoint op budget, so an unchecked 0 dies with SIGFPE.
#
#   cmake -DLONGRUN=<path to longrun_stability> -P tests/longrun_usage_errors.cmake
if(NOT LONGRUN)
  message(FATAL_ERROR "pass -DLONGRUN=<path to the longrun_stability binary>")
endif()

execute_process(
  COMMAND ${LONGRUN} --threads=0 --ops=10 --checkpoints=1 --mult=10
  RESULT_VARIABLE status OUTPUT_QUIET ERROR_VARIABLE err TIMEOUT 60)
string(FIND "${err}" "--threads must be >= 1" at_reason)
if(NOT status STREQUAL "1" OR at_reason EQUAL -1)
  message(SEND_ERROR "longrun_stability --threads=0: status '${status}' "
    "(want 1), stderr must name '--threads must be >= 1':\n${err}")
endif()
