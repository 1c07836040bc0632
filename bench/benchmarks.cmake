# One binary per reproduced table/figure plus ablations; all run standalone
# and print paper-style rows with EXPECT/CHECK lines.
# Included from the top-level CMakeLists (not add_subdirectory) so that
# ${CMAKE_BINARY_DIR}/bench contains only the bench binaries and
# `for b in build/bench/*; do $b; done` runs clean.
function(csar_add_bench name)
  add_executable(${name} ${CMAKE_SOURCE_DIR}/bench/${name}.cpp)
  set_target_properties(${name} PROPERTIES RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)
  target_link_libraries(${name} PRIVATE csar_workloads csar_mpiio csar_report)
  target_include_directories(${name} PRIVATE ${CMAKE_SOURCE_DIR}/src)
endfunction()

csar_add_bench(bench_fig1_disk_trend)
csar_add_bench(bench_fig3_locking)
csar_add_bench(bench_fig4_fullstripe)
csar_add_bench(bench_fig4_smallwrite)
csar_add_bench(bench_fig5_romio)
target_link_libraries(bench_fig5_romio PRIVATE csar_fault)
csar_add_bench(bench_fig6_btio_classb)
target_link_libraries(bench_fig6_btio_classb PRIVATE csar_fault)
csar_add_bench(bench_fig7_btio_classc)
target_link_libraries(bench_fig7_btio_classc PRIVATE csar_fault)
csar_add_bench(bench_fig8_apps)
csar_add_bench(bench_table2_storage)
csar_add_bench(bench_sec52_write_buffering)
csar_add_bench(bench_ablate_stripe_unit)
csar_add_bench(bench_ablate_lock_scaling)
csar_add_bench(bench_ablate_compaction)

csar_add_bench(bench_ablate_fault_storm)
target_link_libraries(bench_ablate_fault_storm PRIVATE csar_fault)

csar_add_bench(bench_ablate_adaptive)
target_link_libraries(bench_ablate_adaptive PRIVATE csar_fault)

add_executable(bench_ablate_parity_kernel ${CMAKE_SOURCE_DIR}/bench/bench_ablate_parity_kernel.cpp)
set_target_properties(bench_ablate_parity_kernel PROPERTIES RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)
target_link_libraries(bench_ablate_parity_kernel PRIVATE csar_common benchmark::benchmark)
target_include_directories(bench_ablate_parity_kernel PRIVATE ${CMAKE_SOURCE_DIR}/src)
csar_add_bench(bench_ablate_rpc_batching)
csar_add_bench(bench_ablate_raid4)
csar_add_bench(bench_ablate_collective)
csar_add_bench(bench_ablate_rebuild)
csar_add_bench(bench_ablate_erasure)
csar_add_bench(bench_ablate_mirror_reads)
csar_add_bench(bench_ablate_obs_overhead)
target_sources(bench_ablate_obs_overhead PRIVATE ${CMAKE_SOURCE_DIR}/bench/alloc_counter.cpp)
csar_add_bench(bench_ablate_manager_journal)
csar_add_bench(bench_sim_scale)
# Counts heap allocations per op; the counting operator new must stay out
# of the simulator libraries.
target_sources(bench_sim_scale PRIVATE ${CMAKE_SOURCE_DIR}/bench/alloc_counter.cpp)

csar_add_bench(bench_ablate_fleet)
target_link_libraries(bench_ablate_fleet PRIVATE csar_fleet)
