# CTest script: end-to-end `hslb client` -> `hslb serve` through a request
# script, replayed under two thread counts; the response payload files must
# be byte-identical (the service determinism contract). The script mixes
# solve-kind requests with fmo-kind ones, which run the substrate
# registry's fmo scenario through the pipeline on the service's batch pool.
# Invoked as: cmake -DTOOL=<path-to-hslb> -DWORK=<scratch-dir> -P cli_serve_roundtrip.cmake
if(NOT DEFINED TOOL OR NOT DEFINED WORK)
  message(FATAL_ERROR "TOOL and WORK must be defined")
endif()

file(MAKE_DIRECTORY ${WORK})
set(SCRIPT ${WORK}/requests.txt)
file(REMOVE ${SCRIPT})

# Build the script incrementally, the way a user would: one client call per
# request. Two distinct instances, a perturbed neighbor, and an exact repeat.
# The task lists hold a literal ';', so each is passed as one quoted
# argument (unquoted, CMake would split it into two).
set(TASKS_A "atm:400:3:1:2:1:0;ocn:250:2:1:1:1:0")
set(TASKS_B "atm:408:3:1:2:1:0;ocn:255:2:1:1:1:0")
foreach(tasks TASKS_A TASKS_B TASKS_A)
  execute_process(COMMAND ${TOOL} client --kind solve --nodes 64
                          --tasks "${${tasks}}" --out ${SCRIPT}
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "client failed (${rc}): ${out}${err}")
  endif()
endforeach()
function(client)
  execute_process(COMMAND ${TOOL} client ${ARGN} --out ${SCRIPT}
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "client failed (${rc}): ${out}${err}")
  endif()
endfunction()
# Every fmo family, the comm family on a machine with a finite link, node
# memory and paging, repeated gather probes under min-sum, max-min, and an
# exact repeat.
set(FMO --kind fmo --fragments 6 --nodes 48 --fit-points 4)
client(${FMO} --family water)
client(${FMO} --family peptide)
client(${FMO} --family comm --link-gb 1 --mem-gb 1 --page-s-per-gb 0.5)
client(${FMO} --family water --reps 2 --objective min-sum)
client(${FMO} --family peptide --objective max-min)
client(${FMO} --family water)

# serve_pair(<batch>): replays the script at --threads 1 and 4 with that
# batch width and checks the payload files are byte-identical.
function(serve_pair batch)
  foreach(threads 1 4)
    execute_process(COMMAND ${TOOL} serve --script ${SCRIPT}
                            --threads ${threads} --batch ${batch}
                            --responses ${WORK}/responses_b${batch}_t${threads}.txt
                    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
    if(NOT rc EQUAL 0)
      message(FATAL_ERROR "serve --threads ${threads} --batch ${batch} "
                          "failed (${rc}): ${out}${err}")
    endif()
    if(NOT out MATCHES "service report")
      message(FATAL_ERROR "serve output missing report: ${out}")
    endif()
    # The exact repeats must hit the cache.
    if(NOT out MATCHES "HIT")
      message(FATAL_ERROR "expected a cache HIT in: ${out}")
    endif()
  endforeach()
  file(READ ${WORK}/responses_b${batch}_t1.txt t1)
  file(READ ${WORK}/responses_b${batch}_t4.txt t4)
  if(NOT t1 STREQUAL t4)
    message(FATAL_ERROR "response payloads differ across thread counts "
                        "(batch ${batch}):\n--- threads 1 ---\n${t1}\n"
                        "--- threads 4 ---\n${t4}")
  endif()
endfunction()
# One request per batch, then batches whose misses solve concurrently.
serve_pair(1)
serve_pair(8)

# Extreme but representable measurement noise: every probe of these fmo
# requests is scaled by a lognormal draw that is mostly below 1e-8, so the
# Fit sees sub-nanosecond samples. Both requests must be served, not abort
# the script (noise_cv above 1.34e154, whose square overflows, is rejected
# when the script is loaded).
set(NOISY ${WORK}/noisy_requests.txt)
file(WRITE ${NOISY}
     "fmo budget=16 fragments=4 fit_points=4 noise_cv=1e10\n"
     "fmo budget=16 fragments=4 fit_points=4 noise_cv=1e154\n")
execute_process(COMMAND ${TOOL} serve --script ${NOISY} --threads 2
                        --responses ${WORK}/noisy_responses.txt
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "serve of the noisy script failed (${rc}): ${out}${err}")
endif()
file(STRINGS ${WORK}/noisy_responses.txt noisy)
list(LENGTH noisy served)
if(NOT served EQUAL 2 OR NOT out MATCHES "0 hits / 2 misses")
  message(FATAL_ERROR "expected 2 served noisy requests: ${out}")
endif()

message(STATUS "cli client->serve round trip ok")
