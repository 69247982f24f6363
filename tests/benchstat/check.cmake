# Runs `benchstat OLD NEW` and checks its exit status and its output.
#   cmake -DBENCHSTAT=<binary> -DOLD=<json> -DNEW=<json> -DEXPECT_RC=<n>
#         -DEXPECT_LINES=<line;line;...> -P check.cmake
# Every entry of EXPECT_LINES must appear in the combined stdout/stderr.
execute_process(COMMAND ${BENCHSTAT} ${OLD} ${NEW}
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
set(all "${out}${err}")
if(NOT rc EQUAL EXPECT_RC)
  message(FATAL_ERROR "benchstat exited ${rc}, expected ${EXPECT_RC}:\n${all}")
endif()
foreach(line IN LISTS EXPECT_LINES)
  string(FIND "${all}" "${line}" pos)
  if(pos EQUAL -1)
    message(FATAL_ERROR "benchstat output lacks '${line}':\n${all}")
  endif()
endforeach()
