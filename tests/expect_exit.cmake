# Exit-code check: run BINARY with optional ARGS (a
# semicolon-separated list) and require exit code EXPECT_RC, plus stderr
# matching STDERR_REGEX when that is given. ctest's WILL_FAIL would also
# accept a crash; this pins the code a clean rejection returns.
if(NOT DEFINED BINARY OR NOT DEFINED EXPECT_RC)
  message(FATAL_ERROR "usage: cmake -DBINARY=... [-DARGS=a;b;c] "
                      "-DEXPECT_RC=N [-DSTDERR_REGEX=...] -P expect_exit.cmake")
endif()
if(NOT DEFINED ARGS)
  set(ARGS "")
endif()

execute_process(
  COMMAND ${BINARY} ${ARGS}
  OUTPUT_QUIET
  ERROR_VARIABLE err
  RESULT_VARIABLE rc)
if(NOT rc STREQUAL EXPECT_RC)
  message(FATAL_ERROR
          "${BINARY} exited with '${rc}', expected ${EXPECT_RC}; stderr:\n${err}")
endif()
if(DEFINED STDERR_REGEX AND NOT err MATCHES "${STDERR_REGEX}")
  message(FATAL_ERROR "stderr does not match '${STDERR_REGEX}':\n${err}")
endif()
