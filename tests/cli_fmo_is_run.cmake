# CTest script: `hslb fmo` is a spelling of `hslb run --substrate fmo`. For
# each flag set both commands export their Execute trace, and the two CSV
# files must be byte-identical.
# Invoked as: cmake -DTOOL=<path-to-hslb> -DWORK=<scratch-dir> -P cli_fmo_is_run.cmake
if(NOT DEFINED TOOL OR NOT DEFINED WORK)
  message(FATAL_ERROR "TOOL and WORK must be defined")
endif()

file(MAKE_DIRECTORY ${WORK})

# run_pair(<name> <fmo variant flag> <run variant> <shared flags...>)
function(run_pair name fmo_flag variant)
  set(size --nodes 64 --threads 1)
  execute_process(COMMAND ${TOOL} fmo --fragments 8 ${fmo_flag} ${size}
                          ${ARGN} --trace ${WORK}/${name}_fmo.csv
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${name}: hslb fmo failed (${rc}): ${out}${err}")
  endif()
  if(NOT out MATCHES "pipeline report")
    message(FATAL_ERROR "${name}: hslb fmo printed no pipeline report: ${out}")
  endif()
  execute_process(COMMAND ${TOOL} run --substrate fmo --variant ${variant}
                          --tasks 8 ${size} ${ARGN}
                          --trace ${WORK}/${name}_run.csv
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${name}: hslb run failed (${rc}): ${out}${err}")
  endif()
  file(READ ${WORK}/${name}_fmo.csv fmo_trace)
  file(READ ${WORK}/${name}_run.csv run_trace)
  if(NOT fmo_trace STREQUAL run_trace)
    message(FATAL_ERROR "${name}: hslb fmo and hslb run traces differ")
  endif()
endfunction()

run_pair(peptide --peptide peptide)
run_pair(comm --comm-bound comm --link-gb 1 --mem-gb 1 --page-s-per-gb 0.5)
run_pair(compute_only --comm-bound comm --link-gb 1 --compute-only-model)

message(STATUS "hslb fmo traces equal hslb run's")
