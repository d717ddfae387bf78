# Archive report check: empty ARCHIVE, run BINARY with ARGS (a
# semicolon-separated list that writes archive entries into ARCHIVE), and
# require the "archived: PATH" lines on stdout to name each entry once and
# to name exactly the *.plan files ARCHIVE then holds.
if(NOT DEFINED BINARY OR NOT DEFINED ARCHIVE)
  message(FATAL_ERROR "usage: cmake -DBINARY=... [-DARGS=a;b;c] "
                      "-DARCHIVE=DIR -P archive_lines_match.cmake")
endif()
if(NOT DEFINED ARGS)
  set(ARGS "")
endif()

file(REMOVE_RECURSE ${ARCHIVE})
execute_process(
  COMMAND ${BINARY} ${ARGS}
  OUTPUT_VARIABLE out
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BINARY} exited with ${rc}")
endif()

string(REGEX MATCHALL "archived: [^\n]+" lines "${out}")
set(printed "")
foreach(line IN LISTS lines)
  string(REPLACE "archived: " "" path "${line}")
  list(APPEND printed "${path}")
endforeach()
list(LENGTH printed printed_count)
if(printed_count EQUAL 0)
  message(FATAL_ERROR "no 'archived:' lines on stdout:\n${out}")
endif()

set(distinct ${printed})
list(REMOVE_DUPLICATES distinct)
list(LENGTH distinct distinct_count)
if(NOT printed_count EQUAL distinct_count)
  message(FATAL_ERROR "an archive entry is reported more than once:\n${out}")
endif()

file(GLOB files "${ARCHIVE}/*.plan")
list(SORT files)
list(SORT distinct)
if(NOT files STREQUAL distinct)
  message(FATAL_ERROR "'archived:' lines name ${distinct}\n"
                      "but ${ARCHIVE} holds ${files}")
endif()
