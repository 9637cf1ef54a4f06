# Usage errors in the sweep driver: each malformed or out-of-range flag
# must exit with status exactly 1 and print the reason plus the usage
# text on stderr. An abort (uncaught exception, status 134) fails here,
# which a WILL_FAIL or output-regex test would not catch.
#
#   cmake -DSWEEP=<path to sweep> -P tests/sweep_usage_errors.cmake
if(NOT SWEEP)
  message(FATAL_ERROR "pass -DSWEEP=<path to the sweep binary>")
endif()

# expect_usage_error(<stderr substring> <sweep args>...)
function(expect_usage_error reason)
  execute_process(COMMAND ${SWEEP} ${ARGN}
    RESULT_VARIABLE status OUTPUT_QUIET ERROR_VARIABLE err TIMEOUT 60)
  string(FIND "${err}" "${reason}" at_reason)
  string(FIND "${err}" "--threads=1,2,4,8" at_usage)
  if(NOT status STREQUAL "1" OR at_reason EQUAL -1 OR at_usage EQUAL -1)
    message(SEND_ERROR "sweep ${ARGN}: status '${status}' (want 1), "
      "stderr must name '${reason}' and carry the usage text:\n${err}")
  endif()
endfunction()

expect_usage_error("--threads: expected an unsigned integer" --threads=x)
expect_usage_error("--prefill: expected a number" --prefill=half)
expect_usage_error("--deadline: expected an unsigned integer" --deadline=soon)
expect_usage_error("--ci: expected 1..255, got 0" --ci=0)
expect_usage_error("--ci: expected 1..255, got 300" --ci=1,300)
expect_usage_error("--threads: expected 1..4294967295, got 0" --threads=0)
expect_usage_error("--threads: expected 1..4294967295, got 4294967296"
  --threads=1,4294967296)
expect_usage_error("unknown rng kind: bogus" --rng=bogus)
expect_usage_error("bogus" --algo=bogus)
expect_usage_error("--ops and --seconds are exclusive" --ops=10 --seconds=1)
expect_usage_error("--ops must be >= 1" --ops=0)
expect_usage_error("--seconds must be > 0" --seconds=0)
expect_usage_error("unexpected positional argument" stray)

execute_process(COMMAND ${SWEEP} --help RESULT_VARIABLE status OUTPUT_QUIET)
if(NOT status STREQUAL "0")
  message(SEND_ERROR "sweep --help: status '${status}' (want 0)")
endif()
