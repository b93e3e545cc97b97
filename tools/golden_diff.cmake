# Golden-output check: runs a command and compares its stdout byte for
# byte with a checked-in golden file.
#
#   cmake -DEXE=<program> "-DARGS=<space-separated args>" -DWORKDIR=<dir>
#         -DGOLDEN=<golden file> -DACTUAL=<where to write the output>
#         -P golden_diff.cmake
#
# On a mismatch the actual output is left at ACTUAL and a unified diff
# is printed when `diff` is available. Regenerate a golden only for an
# intended output change, by running the same command into the file.

separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(
  COMMAND ${EXE} ${args}
  WORKING_DIRECTORY ${WORKDIR}
  OUTPUT_VARIABLE actual
  RESULT_VARIABLE rc)
file(WRITE ${ACTUAL} "${actual}")
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${EXE} ${ARGS} exited with ${rc}")
endif()
file(READ ${GOLDEN} expected)
if(NOT actual STREQUAL expected)
  execute_process(COMMAND diff -u ${GOLDEN} ${ACTUAL})
  message(FATAL_ERROR "output differs from ${GOLDEN} (actual: ${ACTUAL})")
endif()
