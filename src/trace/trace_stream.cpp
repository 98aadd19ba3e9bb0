#include "trace/trace_stream.hpp"

#include "trace/shared_trace.hpp"

namespace rdcn::trace {

Trace materialize(TraceStream& stream) {
  return SharedTrace(stream).take();
}

}  // namespace rdcn::trace
