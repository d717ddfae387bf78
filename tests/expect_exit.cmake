# Exit-code check: run BINARY with optional ARGS (a
# semicolon-separated list) and require exit code EXPECT_RC, plus stderr
# matching STDERR_REGEX when that is given. ctest's WILL_FAIL would also
# accept a crash; this pins the code a clean rejection returns. With
# STDOUT_EMPTY set, nothing may reach stdout; ABSENT_FILE is removed
# before the run and must not exist once it is over.
if(NOT DEFINED BINARY OR NOT DEFINED EXPECT_RC)
  message(FATAL_ERROR "usage: cmake -DBINARY=... [-DARGS=a;b;c] "
                      "-DEXPECT_RC=N [-DSTDERR_REGEX=...] [-DSTDOUT_EMPTY=1] "
                      "[-DABSENT_FILE=...] -P expect_exit.cmake")
endif()
if(NOT DEFINED ARGS)
  set(ARGS "")
endif()

if(DEFINED ABSENT_FILE)
  file(REMOVE "${ABSENT_FILE}")
endif()

execute_process(
  COMMAND ${BINARY} ${ARGS}
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err
  RESULT_VARIABLE rc)
if(NOT rc STREQUAL EXPECT_RC)
  message(FATAL_ERROR
          "${BINARY} exited with '${rc}', expected ${EXPECT_RC}; stderr:\n${err}")
endif()
if(DEFINED STDERR_REGEX AND NOT err MATCHES "${STDERR_REGEX}")
  message(FATAL_ERROR "stderr does not match '${STDERR_REGEX}':\n${err}")
endif()
if(STDOUT_EMPTY AND NOT out STREQUAL "")
  message(FATAL_ERROR "expected no stdout, got:\n${out}")
endif()
if(DEFINED ABSENT_FILE AND EXISTS "${ABSENT_FILE}")
  message(FATAL_ERROR "${ABSENT_FILE} exists after the run")
endif()
