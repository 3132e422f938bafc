# Fails unless bench_paper exits 0 and prints every section header in order.
#   cmake -DBENCH_PAPER=path/to/bench_paper -P bench_paper_smoke.cmake
execute_process(COMMAND ${BENCH_PAPER}
  RESULT_VARIABLE status OUTPUT_VARIABLE out)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "bench_paper exited with '${status}'\n${out}")
endif()
foreach(header "§4.1 headline" "Table 1" "§4.2 headline" "Table 2"
               "CDS in unsigned zones" "Figure 1 funnel" "Table 3 (measured"
               "§4.4 signal violations")
  string(FIND "${out}" "== ${header}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "section '${header}' missing or out of order")
  endif()
  string(SUBSTRING "${out}" ${at} -1 out)
endforeach()
