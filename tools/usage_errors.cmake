# Every malformed numeric option, and every unknown flag, must end the
# CLI with exit code 2 and the usage text, before any deployment is built.

# The value is quoted on its own so an empty token survives list expansion.
function(expect_usage_error command option value)
  execute_process(COMMAND ${LDKE} ${command} ${option} "${value}"
                  RESULT_VARIABLE rc ERROR_VARIABLE err OUTPUT_QUIET)
  if(NOT rc EQUAL 2 OR NOT err MATCHES "usage: ldke_sim")
    message(FATAL_ERROR "expected a usage error (exit 2), got ${rc} for: "
                        "${command} ${option} '${value}'\n${err}")
  endif()
endfunction()

expect_usage_error(setup -n -5)
expect_usage_error(setup -n "")
expect_usage_error(setup -n 12abc)
expect_usage_error(setup -n 0)
expect_usage_error(sweep -t 0)
expect_usage_error(setup --lanes -1)
expect_usage_error(setup --lanes 0)
expect_usage_error(setup -s 1.5)
expect_usage_error(setup -d 12x)
expect_usage_error(setup -d -5)
expect_usage_error(setup -d nan)
expect_usage_error(setup -d inf)
expect_usage_error(setup --loss 2)
expect_usage_error(setup --loss -1)
expect_usage_error(steady --duration "")
expect_usage_error(steady --duration 0)

# Unknown flags on a scenario command: the valid spec path means an
# ignored flag would let the run succeed, so only a rejection passes.
set(SPEC ${CMAKE_CURRENT_LIST_DIR}/../examples/scenarios/waypoint_churn.json)
expect_usage_error(scenario --full-rebuild ${SPEC})
expect_usage_error(scenario --health-check ${SPEC})
