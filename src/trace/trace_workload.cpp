#include "trace/trace_workload.h"

#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "common/contract.h"

namespace memdis::trace {

namespace {

/// Detaches the sink even when the wrapped run throws — a dangling sink
/// pointer on the engine would outlive the writer.
class ScopedSink {
 public:
  ScopedSink(sim::Engine& eng, sim::TraceSink* sink) : eng_(eng) {
    eng_.set_trace_sink(sink);
  }
  ~ScopedSink() { eng_.set_trace_sink(nullptr); }
  ScopedSink(const ScopedSink&) = delete;
  ScopedSink& operator=(const ScopedSink&) = delete;

 private:
  sim::Engine& eng_;
};

}  // namespace

TraceRecordWorkload::TraceRecordWorkload(std::unique_ptr<workloads::Workload> inner,
                                         std::string app, int scale, std::uint64_t seed,
                                         std::string path)
    : inner_(std::move(inner)),
      app_(std::move(app)),
      scale_(scale),
      seed_(seed),
      path_(std::move(path)) {
  expects(inner_ != nullptr, "recording a null workload");
}

workloads::WorkloadResult TraceRecordWorkload::run(sim::Engine& eng) {
  TraceWriter writer;
  workloads::WorkloadResult result;
  {
    ScopedSink attach(eng, &writer);
    result = inner_->run(eng);
  }
  writer.finish();

  TraceData data;
  data.app = app_;
  data.scale = scale_;
  data.seed = seed_;
  data.workload_name = inner_->name();
  data.footprint_bytes = inner_->footprint_bytes();
  data.verified = result.verified;
  data.residual = result.residual;
  data.detail = result.detail;
  data.record_count = writer.record_count();
  data.payload = writer.take_payload();
  data.save_atomic(path_);
  return result;
}

workloads::WorkloadResult TraceReplayWorkload::run(sim::Engine& eng) {
  TraceCursor cursor(data_);
  TraceRecord rec;
  // Recorded base → live VRange. The bump allocator makes bases unique per
  // run, and machine-independent, so equality with the recording is both
  // checkable and required.
  std::unordered_map<std::uint64_t, memsim::VRange> ranges;
  while (cursor.next(rec)) {
    switch (rec.op) {
      case TraceOp::kAlloc: {
        const memsim::VRange r = eng.alloc(rec.a, rec.policy, rec.text);
        if (r.base != rec.b) {
          throw std::runtime_error(
              "trace replay diverged: allocation '" + rec.text + "' returned base " +
              std::to_string(r.base) + ", trace recorded " + std::to_string(rec.b));
        }
        ranges.emplace(r.base, r);
        break;
      }
      case TraceOp::kFree: {
        const auto it = ranges.find(rec.a);
        if (it == ranges.end())
          throw std::runtime_error("trace replay diverged: free of unknown base");
        eng.free(it->second);
        ranges.erase(it);
        break;
      }
      case TraceOp::kLoad:
        eng.load(rec.a, rec.e);
        break;
      case TraceOp::kStore:
        eng.store(rec.a, rec.e);
        break;
      case TraceOp::kFlops:
        eng.flops(rec.a);
        break;
      case TraceOp::kLoadRange:
        eng.load_range(rec.a, rec.b, rec.e);
        break;
      case TraceOp::kStoreRange:
        eng.store_range(rec.a, rec.b, rec.e);
        break;
      case TraceOp::kRmwRange:
        eng.rmw_range(rec.a, rec.b, rec.e);
        break;
      case TraceOp::kStoreLoadRange:
        eng.store_load_range(rec.a, rec.b, rec.e);
        break;
      case TraceOp::kLoadStrided:
        eng.load_strided(rec.a, rec.b, rec.c, rec.e);
        break;
      case TraceOp::kStoreStrided:
        eng.store_strided(rec.a, rec.b, rec.c, rec.e);
        break;
      case TraceOp::kLoadPair:
        eng.load_pair_range(rec.a, rec.e, rec.b, rec.f, rec.c);
        break;
      case TraceOp::kStorePair:
        eng.store_pair_range(rec.a, rec.e, rec.b, rec.f, rec.c);
        break;
      case TraceOp::kStream:
        eng.stream_range(rec.lanes.data(), rec.lanes.size(), rec.b);
        break;
      case TraceOp::kPfStart:
        eng.pf_start(rec.text);
        break;
      case TraceOp::kPfStop:
        eng.pf_stop();
        break;
      case TraceOp::kEnd:
        break;
    }
  }
  if (cursor.records_decoded() != data_.record_count)
    throw std::runtime_error("trace replay diverged: record count mismatch");

  workloads::WorkloadResult result;
  result.verified = data_.verified;
  result.residual = data_.residual;
  result.detail = data_.detail;
  return result;
}

}  // namespace memdis::trace
