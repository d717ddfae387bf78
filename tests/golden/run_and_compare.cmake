# Golden-output test driver: run BINARY (with optional ARGS, a
# semicolon-separated list) in a clean environment (no TIMING_RUNS /
# TIMING_THREADS, which legitimately change the sweep) and require its
# stdout to be byte-identical to the GOLDEN fixture. Pins the figure
# output of `timing_lab run` — and machine-readable CLI output like
# `trace_tool summary --json` — to the committed bytes.
if(NOT DEFINED BINARY OR NOT DEFINED GOLDEN)
  message(FATAL_ERROR "usage: cmake -DBINARY=... [-DARGS=a;b;c] -DGOLDEN=... -P run_and_compare.cmake")
endif()
if(NOT DEFINED ARGS)
  set(ARGS "")
endif()

execute_process(
  COMMAND ${CMAKE_COMMAND} -E env --unset=TIMING_RUNS --unset=TIMING_THREADS
          ${BINARY} ${ARGS}
  OUTPUT_VARIABLE actual
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BINARY} exited with ${rc}")
endif()

file(READ ${GOLDEN} expected)
if(NOT actual STREQUAL expected)
  get_filename_component(fixture ${GOLDEN} NAME_WE)
  file(WRITE ${fixture}.actual "${actual}")
  message(FATAL_ERROR
          "stdout differs from ${GOLDEN}; actual output saved in the test "
          "working directory as ${fixture}.actual")
endif()
