// rdcn: internal wiring between the registries and their built-in entries.
//
// The built-in components live in builtin_{algorithms,topologies,workloads}
// .cpp and are registered explicitly on first registry access (deterministic
// and immune to static-library dead-stripping).
#pragma once

namespace rdcn::scenario {

class AlgorithmRegistry;
class TopologyRegistry;
class WorkloadRegistry;

void register_builtin_algorithms(AlgorithmRegistry& registry);
void register_builtin_topologies(TopologyRegistry& registry);
void register_builtin_workloads(WorkloadRegistry& registry);

}  // namespace rdcn::scenario
