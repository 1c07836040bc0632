# Golden-output check for one bench or example binary.
#
#   cmake -DBIN=<exe> -DGOLDEN=<file> [-DARGS=a;b] [-DINPUT=<stdin file>]
#         [-DSIM_ONLY=ON] [-DALLOW_RC=<code>] [-DREGEN=ON] -P check.cmake
#
# Runs BIN (stdout only; stderr is ignored) and compares it byte for byte
# with GOLDEN. SIM_ONLY keeps only the lines starting with "SIM": the
# wall-clock benches print host timings beside their simulated results, so
# only the simulated lines are pinned. BIN must exit 0, or with ALLOW_RC
# when given (a bench whose own wall-clock CHECK can fail on a loaded
# host); a crash always fails. REGEN=ON rewrites GOLDEN instead of
# comparing.
cmake_minimum_required(VERSION 3.16)

if(NOT BIN OR NOT GOLDEN)
  message(FATAL_ERROR "check.cmake needs -DBIN=<exe> -DGOLDEN=<file>")
endif()

set(stdin_args)
if(INPUT)
  set(stdin_args INPUT_FILE ${INPUT})
endif()
execute_process(COMMAND ${BIN} ${ARGS}
                ${stdin_args}
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err
                RESULT_VARIABLE rc)

# A signal comes back as a string ("Segmentation fault"), not a number.
if(NOT rc MATCHES "^[0-9]+$" OR
   (NOT rc EQUAL 0 AND NOT (DEFINED ALLOW_RC AND rc EQUAL ALLOW_RC)))
  message(FATAL_ERROR "${BIN} exited with ${rc}\n${out}\n${err}")
endif()

if(SIM_ONLY)
  string(REGEX MATCHALL "(^|\n)SIM[^\n]*" lines "${out}")
  set(out "")
  foreach(line IN LISTS lines)
    string(REGEX REPLACE "^\n" "" line "${line}")
    string(APPEND out "${line}\n")
  endforeach()
endif()

if(REGEN)
  file(WRITE ${GOLDEN} "${out}")
  message(STATUS "wrote ${GOLDEN}")
  return()
endif()

if(NOT EXISTS ${GOLDEN})
  message(FATAL_ERROR "missing golden ${GOLDEN}; regenerate with "
                      "`cmake --build <build> --target update_goldens`")
endif()
file(READ ${GOLDEN} expected)
if(NOT out STREQUAL expected)
  get_filename_component(name ${GOLDEN} NAME)
  set(actual ${CMAKE_CURRENT_BINARY_DIR}/${name}.actual)
  file(WRITE ${actual} "${out}")
  execute_process(COMMAND diff -u ${GOLDEN} ${actual})
  message(FATAL_ERROR "output differs from ${GOLDEN} (actual: ${actual})")
endif()
