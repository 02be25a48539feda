# Runs CMD and compares its stdout with the file GOLDEN; with UPDATE_GOLDENS
# set in the environment it rewrites GOLDEN instead. Used as
#   cmake -DCMD=<program> -DGOLDEN=<file> -P CheckOutput.cmake
execute_process(COMMAND ${CMD} OUTPUT_VARIABLE Actual RESULT_VARIABLE Rc)
if(NOT Rc EQUAL 0)
  message(FATAL_ERROR "${CMD} exited with ${Rc}:\n${Actual}")
endif()
if(DEFINED ENV{UPDATE_GOLDENS})
  file(WRITE ${GOLDEN} "${Actual}")
  return()
endif()
file(READ ${GOLDEN} Expect)
if(NOT Actual STREQUAL Expect)
  message(FATAL_ERROR "${CMD}: output differs from ${GOLDEN}\n"
    "expected:\n${Expect}\nactual:\n${Actual}")
endif()
