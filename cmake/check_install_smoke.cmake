# End-to-end smoke for the install/export rules: stage `cmake --install`
# into a scratch prefix, then configure, build, and run a minimal
# downstream project that uses `find_package(rdcn CONFIG REQUIRED)` and
# links `rdcn::rdcn` — proving the exported targets, the relocated
# header tree (include/rdcn), and the Threads dependency all survive
# outside the build tree.  A second executable links only
# `rdcn::rdcn_core` and runs R-BMA, so each layer's exported link
# interface must name every layer it calls (core -> paging).  Registered
# as a tier1 ctest.
#
# Usage: cmake -DBUILD_DIR=<build tree> -DWORKDIR=<scratch dir>
#              -DGENERATOR=<cmake generator> -DCXX=<compiler>
#              -P check_install_smoke.cmake

set(prefix ${WORKDIR}/prefix)
set(app ${WORKDIR}/app)
file(REMOVE_RECURSE ${prefix} ${app})

# 1. Stage the install.
execute_process(
  COMMAND ${CMAKE_COMMAND} --install ${BUILD_DIR} --prefix ${prefix}
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "cmake --install failed (${rc})\nstdout:\n${out}\nstderr:\n${err}")
endif()
foreach(expected IN ITEMS
    include/rdcn/rdcn.hpp
    include/rdcn/common/fault.hpp
    include/rdcn/obs/metrics.hpp)
  if(NOT EXISTS ${prefix}/${expected})
    message(FATAL_ERROR "install prefix is missing ${expected}")
  endif()
endforeach()
# Only rdcn may land in the prefix — a vendored test/bench dependency
# leaking install rules would show up as a foreign include directory.
file(GLOB include_entries RELATIVE ${prefix}/include ${prefix}/include/*)
if(NOT include_entries STREQUAL "rdcn")
  message(FATAL_ERROR "unexpected entries in ${prefix}/include: ${include_entries}")
endif()

# 2. A downstream consumer: find_package + link rdcn::rdcn, include the
# umbrella header, run a tiny scenario, and touch the obs registry.
file(WRITE ${app}/CMakeLists.txt [[
cmake_minimum_required(VERSION 3.24)
project(rdcn_downstream CXX)
set(CMAKE_CXX_STANDARD 20)
set(CMAKE_CXX_STANDARD_REQUIRED ON)
find_package(rdcn CONFIG REQUIRED)
add_executable(smoke main.cpp)
target_link_libraries(smoke PRIVATE rdcn::rdcn)
add_executable(core_only core_only.cpp)
target_link_libraries(core_only PRIVATE rdcn::rdcn_core)
]])
file(WRITE ${app}/main.cpp [[
#include <cstdio>
#include "rdcn.hpp"
int main() {
  using namespace rdcn;
  obs::Registry::global().counter("downstream_smoke_total", "smoke").inc();
  const scenario::ScenarioResult result =
      scenario::run_scenario(scenario::ScenarioSpec::parse(
          "workload=flow_pool:pairs=10,skew=1.1;algorithms=bma;b=4;"
          "racks=8;requests=500;trials=1;checkpoints=2;seed=3"));
  if (result.runs.empty()) return 1;
  std::printf("downstream ok: %zu runs, chunks=%llu\n", result.runs.size(),
              (unsigned long long)obs::Registry::global().counter_value(
                  "rdcn_sim_chunks_total"));
  return 0;
}
]])

# 3. A consumer of the core layer alone: R-BMA calls into rdcn_paging
# (one paging engine per rack), which rdcn_core must bring along.
file(WRITE ${app}/core_only.cpp [[
#include <cstdio>
#include "core/r_bma.hpp"
#include "net/topology.hpp"
int main() {
  using namespace rdcn;
  const net::Topology topology = net::make_ring(8);
  core::Instance instance;
  instance.distances = &topology.distances;
  instance.b = 2;
  instance.alpha = 4;
  core::RBma r_bma(instance, core::RBmaOptions{});
  for (core::Rack i = 0; i < 200; ++i)
    r_bma.serve(trace::Request::make(i % 8, (i + 3) % 8));
  std::printf("core ok: %s, requests=%llu\n", r_bma.name().c_str(),
              (unsigned long long)r_bma.costs().requests);
  return r_bma.costs().requests == 200 ? 0 : 1;
}
]])

execute_process(
  COMMAND ${CMAKE_COMMAND} -S ${app} -B ${app}/build -G ${GENERATOR}
    -DCMAKE_PREFIX_PATH=${prefix} -DCMAKE_CXX_COMPILER=${CXX}
    -DCMAKE_BUILD_TYPE=Release
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "downstream configure failed (${rc})\nstdout:\n${out}\nstderr:\n${err}")
endif()
execute_process(
  COMMAND ${CMAKE_COMMAND} --build ${app}/build
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "downstream build failed (${rc})\nstdout:\n${out}\nstderr:\n${err}")
endif()
execute_process(
  COMMAND ${app}/build/smoke
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 0 OR NOT out MATCHES "downstream ok: 1 runs")
  message(FATAL_ERROR "downstream smoke run failed (${rc})\nstdout:\n${out}\nstderr:\n${err}")
endif()
execute_process(
  COMMAND ${app}/build/core_only
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 0 OR NOT out MATCHES "core ok: r_bma")
  message(FATAL_ERROR "core-only consumer run failed (${rc})\nstdout:\n${out}\nstderr:\n${err}")
endif()

message(STATUS "rdcn install smoke OK: staged prefix consumed via find_package(rdcn)")
