# CTest script: end-to-end `hslb client` -> `hslb serve` through a request
# script, replayed under two thread counts; the response payload files must
# be byte-identical (the service determinism contract).
# Invoked as: cmake -DTOOL=<path-to-hslb> -DWORK=<scratch-dir> -P cli_serve_roundtrip.cmake
if(NOT DEFINED TOOL OR NOT DEFINED WORK)
  message(FATAL_ERROR "TOOL and WORK must be defined")
endif()

file(MAKE_DIRECTORY ${WORK})
set(SCRIPT ${WORK}/requests.txt)
file(REMOVE ${SCRIPT})

# Build the script incrementally, the way a user would: one client call per
# request. Two distinct instances, a perturbed neighbor, and an exact repeat.
set(TASKS_A "atm:400:3:1:2:1:0\;ocn:250:2:1:1:1:0")
set(TASKS_B "atm:408:3:1:2:1:0\;ocn:255:2:1:1:1:0")
foreach(tasks ${TASKS_A} ${TASKS_B} ${TASKS_A})
  execute_process(COMMAND ${TOOL} client --kind solve --nodes 64
                          --tasks ${tasks} --out ${SCRIPT}
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "client failed (${rc}): ${out}${err}")
  endif()
endforeach()

execute_process(COMMAND ${TOOL} serve --script ${SCRIPT} --threads 1 --batch 1
                        --responses ${WORK}/responses_t1.txt
                RESULT_VARIABLE rc OUTPUT_VARIABLE out1 ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "serve --threads 1 failed (${rc}): ${out1}${err}")
endif()
if(NOT out1 MATCHES "service report")
  message(FATAL_ERROR "serve output missing report: ${out1}")
endif()
# The exact repeat must hit the cache.
if(NOT out1 MATCHES "HIT")
  message(FATAL_ERROR "expected a cache HIT in: ${out1}")
endif()

execute_process(COMMAND ${TOOL} serve --script ${SCRIPT} --threads 4 --batch 1
                        --responses ${WORK}/responses_t4.txt
                RESULT_VARIABLE rc OUTPUT_VARIABLE out4 ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "serve --threads 4 failed (${rc}): ${out4}${err}")
endif()

file(READ ${WORK}/responses_t1.txt t1)
file(READ ${WORK}/responses_t4.txt t4)
if(NOT t1 STREQUAL t4)
  message(FATAL_ERROR "response payloads differ across thread counts:\n"
                      "--- threads 1 ---\n${t1}\n--- threads 4 ---\n${t4}")
endif()

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
