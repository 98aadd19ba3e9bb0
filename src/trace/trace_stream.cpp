#include "trace/trace_stream.hpp"

#include "trace/shared_trace.hpp"

namespace rdcn::trace {

Trace materialize(TraceStream& stream) {
  SharedTrace shared(stream);
  shared.fill();
  return std::move(shared).take();
}

}  // namespace rdcn::trace
