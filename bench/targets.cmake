# Bench binaries are placed in ${CMAKE_BINARY_DIR}/bench (binaries only; the
# repro loop executes every file in that directory, so nothing else may be
# written there).
set(HSLB_BENCH_DIR ${CMAKE_BINARY_DIR}/bench)

function(hslb_add_bench name)
  add_executable(${name} ${CMAKE_SOURCE_DIR}/bench/${name}.cpp)
  target_link_libraries(${name} PRIVATE ${ARGN})
  set_target_properties(${name} PROPERTIES RUNTIME_OUTPUT_DIRECTORY ${HSLB_BENCH_DIR})
endfunction()

# Paper tables and figures (text-table generators).
hslb_add_bench(cesm_table3 hslb_cesm)
hslb_add_bench(cesm_fig2_scaling hslb_cesm)
hslb_add_bench(cesm_fig3_highres hslb_cesm)
hslb_add_bench(cesm_fig4_layouts hslb_cesm)
hslb_add_bench(fmo_scaling hslb_fmo)
hslb_add_bench(fmo_weakscaling hslb_fmo)
hslb_add_bench(fmo_fit_quality hslb_fmo)
hslb_add_bench(fmo_objectives hslb_fmo)
hslb_add_bench(fmo_imbalance hslb_fmo)
hslb_add_bench(fmo_predicted_vs_actual hslb_fmo)
hslb_add_bench(fmo_solver_crosscheck hslb_fmo)
hslb_add_bench(pipeline_parallel hslb_fmo)

# Ablations called out in DESIGN.md.
hslb_add_bench(minlp_sos hslb_cesm)
hslb_add_bench(minlp_branchrule hslb_cesm)
hslb_add_bench(cesm_tsync_ablation hslb_cesm)
hslb_add_bench(cesm_finetuning hslb_cesm)
hslb_add_bench(cesm_coupling_overhead hslb_cesm)
hslb_add_bench(cesm_advisor hslb_cesm)
hslb_add_bench(fit_points_ablation hslb_cesm)

# Machine-readable bench output (BENCH_solver.json merge helper).
add_library(hslb_benchjson STATIC ${CMAKE_SOURCE_DIR}/bench/bench_json.cpp)
target_include_directories(hslb_benchjson PUBLIC ${CMAKE_SOURCE_DIR})
target_compile_features(hslb_benchjson PUBLIC cxx_std_20)

# Solver acceptance bench: cold vs warm vs parallel branch-and-bound.
hslb_add_bench(minlp_warmstart hslb_cesm hslb_fmo hslb_benchjson)

# Execution robustness: HSLB static vs DLB dynamic under stragglers and
# fail-stop, plus the trace-export round-trip gate.
hslb_add_bench(execution_robustness hslb_fmo hslb_benchjson)

# Closed-loop adaptive rebalancing vs static and DLB on the same scenario,
# plus the warm-vs-cold re-solve gate.
hslb_add_bench(adaptive_rebalance hslb_fmo hslb_minlp hslb_benchjson)

# Communication/memory-aware cost model: extended vs compute-only Solve on
# the communication-dominated family, plus the compute-only parity gate.
hslb_add_bench(comm_model hslb_fmo hslb_benchjson)

# Allocation service: exact-repeat hit latency, cross-instance warm-start
# node counts, mixed-stream throughput, and the thread-replay gate.
hslb_add_bench(server_throughput hslb_service hslb_benchjson)

# Seeded randomized scenario fuzzer over the substrate registry: gates
# "HSLB never loses to DLB by more than --bound on any drawn scenario"
# and failure recovery under the adaptive controller; prints the
# counterexample seed on failure. Merges fuzz/* into BENCH_solver.json.
hslb_add_bench(scenario_fuzz hslb_substrates hslb_benchjson)

# Microbenchmarks (google-benchmark).
hslb_add_bench(minlp_solvetime hslb_cesm hslb_benchjson benchmark::benchmark)
hslb_add_bench(lp_simplex_bench hslb_core hslb_benchjson benchmark::benchmark)
hslb_add_bench(fit_bench hslb_perf benchmark::benchmark)
# BM_FitSweep reads the recorded fit sets the tests use.
target_compile_definitions(fit_bench PRIVATE
                           HSLB_TEST_DATA_DIR="${CMAKE_SOURCE_DIR}/tests/data")
