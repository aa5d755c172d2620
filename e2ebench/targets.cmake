# The end-to-end benchmark's targets. hook.cmake includes this file at the
# end of the root CMakeLists.txt, in the root scope, once every library
# target exists; see run.py for the configure command.

add_library(eafe_e2e_trace STATIC ${EAFE_E2E_DIR}/trace.cc)
target_include_directories(eafe_e2e_trace PUBLIC ${EAFE_E2E_DIR})
target_link_libraries(eafe_e2e_trace PUBLIC eafe_core)

add_executable(eafe_e2e ${EAFE_E2E_DIR}/main.cc)
target_link_libraries(eafe_e2e PRIVATE eafe_e2e_trace eafe_afe
                      eafe_serve_server)
target_compile_definitions(eafe_e2e PRIVATE
                           EAFE_E2E_BUILD_TYPE="${CMAKE_BUILD_TYPE}")

# `ctest -L bench` in the build tree runs both tests (build
# eafe_e2e_trace_test first).
enable_testing()
add_executable(eafe_e2e_trace_test EXCLUDE_FROM_ALL
               ${EAFE_E2E_DIR}/trace_test.cc)
target_link_libraries(eafe_e2e_trace_test PRIVATE eafe_e2e_trace
                      GTest::gtest_main Threads::Threads)
add_test(NAME eafe_e2e_trace_test COMMAND eafe_e2e_trace_test)
set_tests_properties(eafe_e2e_trace_test PROPERTIES LABELS bench)

# Every workload at --scale=smoke, two seeds: correctness checks, metric
# names against BENCHMARK.json, and the Chrome trace parses. No timing
# gates.
add_test(NAME bench_e2e_smoke
         COMMAND python3 ${EAFE_E2E_DIR}/smoke.py
                 --binary $<TARGET_FILE:eafe_e2e>
                 --benchmark-json ${CMAKE_SOURCE_DIR}/BENCHMARK.json
                 --work-dir ${CMAKE_BINARY_DIR}/e2e_smoke)
set_tests_properties(bench_e2e_smoke PROPERTIES LABELS bench TIMEOUT 120)
