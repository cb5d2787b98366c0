# CTest script: end-to-end `hslb fit` -> `hslb solve` through CSV files, on
# second-scale samples and on the same samples scaled by 1e-12, plus the
# --min-c range check.
# Invoked as: cmake -DTOOL=<path-to-hslb> -DWORK=<scratch-dir> -P cli_fit_solve.cmake
if(NOT DEFINED TOOL OR NOT DEFINED WORK)
  message(FATAL_ERROR "TOOL and WORK must be defined")
endif()

file(MAKE_DIRECTORY ${WORK})
set(BENCH ${WORK}/bench.csv)
set(MODELS ${WORK}/models.csv)

file(WRITE ${BENCH}
"task,nodes,seconds
solver,1,1203.2
solver,4,302.5
solver,16,78.1
solver,64,22.3
analysis,1,151.0
analysis,4,38.9
analysis,16,10.5
analysis,64,3.4
")

execute_process(COMMAND ${TOOL} fit --bench ${BENCH} --out ${MODELS}
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "fit failed (${rc}): ${out}${err}")
endif()
if(NOT out MATCHES "solver")
  message(FATAL_ERROR "fit output missing task row: ${out}")
endif()
if(NOT EXISTS ${MODELS})
  message(FATAL_ERROR "fit did not write ${MODELS}")
endif()

execute_process(COMMAND ${TOOL} solve --models ${MODELS} --nodes 64
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "solve failed (${rc}): ${out}${err}")
endif()
if(NOT out MATCHES "min-max objective over 2 tasks")
  message(FATAL_ERROR "solve output unexpected: ${out}")
endif()

# The heavy solver must receive the lion's share of the 64 nodes.
string(REGEX MATCH "solver +([0-9]+) nodes" m "${out}")
if(NOT CMAKE_MATCH_1 GREATER 40)
  message(FATAL_ERROR "solver allocation looks wrong: ${out}")
endif()

# The same samples scaled by 1e-12: both tables must print the model and
# the allocation's seconds in significant digits, not as zeros.
set(TINY_BENCH ${WORK}/bench_tiny.csv)
set(TINY_MODELS ${WORK}/models_tiny.csv)
file(WRITE ${TINY_BENCH}
"task,nodes,seconds
solver,1,1.2032e-09
solver,4,3.025e-10
solver,16,7.81e-11
solver,64,2.23e-11
analysis,1,1.51e-10
analysis,4,3.89e-11
analysis,16,1.05e-11
analysis,64,3.4e-12
")

execute_process(COMMAND ${TOOL} fit --bench ${TINY_BENCH} --out ${TINY_MODELS}
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "fit of the scaled bench failed (${rc}): ${out}${err}")
endif()
# Columns: task | a | b | c | d | R^2 | RMSE.
string(REGEX MATCH "\\| solver +\\| ([^ |]+) +\\| ([^ |]+) +\\| ([^ |]+) +\\| ([^ |]+) +\\|"
       m "${out}")
# if(MATCHES) overwrites CMAKE_MATCH_<n>, so copy the cells first.
set(fit_a "${CMAKE_MATCH_1}")
set(fit_d "${CMAKE_MATCH_4}")
if(NOT fit_a MATCHES "[1-9]" OR NOT fit_d MATCHES "[1-9]")
  message(FATAL_ERROR "fit table prints a or d of the scaled bench as zero: ${out}")
endif()

execute_process(COMMAND ${TOOL} solve --models ${TINY_MODELS} --nodes 64
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "solve of the scaled models failed (${rc}): ${out}${err}")
endif()
foreach(task solver analysis)
  string(REGEX MATCH "${task} +[0-9]+ nodes +([^ ]+) s" m "${out}")
  if(NOT CMAKE_MATCH_1 MATCHES "[1-9]")
    message(FATAL_ERROR "solve prints ${task}'s seconds as zero: ${out}")
  endif()
endforeach()

# --min-c is bounded by the fit's exponent ceiling, 3.
foreach(bad 5 inf)
  execute_process(COMMAND ${TOOL} fit --bench ${BENCH} --min-c ${bad}
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(rc EQUAL 0 OR NOT err MATCHES "invalid value for --min-c")
    message(FATAL_ERROR "fit --min-c ${bad} was not rejected (${rc}): ${out}${err}")
  endif()
endforeach()

message(STATUS "cli fit->solve round trip ok")
