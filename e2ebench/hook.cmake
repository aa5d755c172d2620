# Adds the benchmark's targets (targets.cmake) to the end of the eafe
# build, so they link the repo's own library targets and inherit its
# flags without any edit to the repo's CMake files. Pass it when configuring
# the repo root (e2ebench/run.py does):
#
#   cmake -S . -B .bench_build -DCMAKE_BUILD_TYPE=Release \
#     -DCMAKE_PROJECT_INCLUDE=$PWD/e2ebench/hook.cmake
#
# CMake includes this file right after the root project() call, before
# any target exists; the deferred call runs once the root CMakeLists.txt
# has been processed.
cmake_minimum_required(VERSION 3.19)
# Deferred arguments expand when the call runs, so keep the path in a
# variable of the root scope.
set(EAFE_E2E_DIR ${CMAKE_CURRENT_LIST_DIR})
cmake_language(DEFER CALL include ${EAFE_E2E_DIR}/targets.cmake)
