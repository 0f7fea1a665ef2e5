// Tests for the execution engine: instrumented arrays, epoch/phase
// accounting, the time model's monotonicity properties, and determinism.
#include <gtest/gtest.h>

#include <cstring>
#include <random>
#include <string>
#include <tuple>
#include <vector>

#include "common/contract.h"
#include "common/simd.h"
#include "sim/array.h"
#include "sim/engine.h"

namespace memdis::sim {
namespace {

EngineConfig fast_engine() {
  EngineConfig cfg;
  cfg.epoch_accesses = 10'000;
  return cfg;
}

// ---------- Array -------------------------------------------------------------

TEST(Array, LoadReturnsStoredValue) {
  Engine eng(fast_engine());
  Array<double> a(eng, 128);
  a.st(5, 3.25);
  EXPECT_DOUBLE_EQ(a.ld(5), 3.25);
}

TEST(Array, ProxyReadsAndWrites) {
  Engine eng(fast_engine());
  Array<int> a(eng, 16);
  a[3] = 7;
  const int v = a[3];
  EXPECT_EQ(v, 7);
  a[3] += 2;
  EXPECT_EQ(static_cast<int>(a[3]), 9);
}

TEST(Array, RmwDoesOneLoadOneStore) {
  Engine eng(fast_engine());
  Array<double> a(eng, 8);
  a.st(0, 1.0);
  const auto before = eng.counters();
  a.rmw(0, [](double v) { return v + 1.0; });
  const auto d = eng.counters().delta_since(before);
  EXPECT_EQ(d.loads, 1u);
  EXPECT_EQ(d.stores, 1u);
  EXPECT_DOUBLE_EQ(a.raw()[0], 2.0);
}

TEST(Array, AddressesAreContiguous) {
  Engine eng(fast_engine());
  Array<double> a(eng, 16);
  EXPECT_EQ(a.addr_of(1) - a.addr_of(0), sizeof(double));
  EXPECT_EQ(a.addr_of(0), a.range().base);
}

TEST(Array, AccessesFlowIntoCounters) {
  Engine eng(fast_engine());
  Array<double> a(eng, 1024);
  for (std::size_t i = 0; i < 1024; ++i) a.st(i, 1.0);
  EXPECT_EQ(eng.counters().stores, 1024u);
}

TEST(Array, ReleaseFreesSimRangeButKeepsHostData) {
  Engine eng(fast_engine());
  Array<double> a(eng, 512);
  a.st(0, 2.5);
  a.release();
  EXPECT_DOUBLE_EQ(a.raw()[0], 2.5);
  EXPECT_FALSE(eng.memory().resident(a.range().base));
}

TEST(Array, DestructorFreesAllocation) {
  Engine eng(fast_engine());
  const std::uint64_t page = eng.memory().page_bytes();
  {
    Array<double> a(eng, page / sizeof(double));
    a.st(0, 1.0);
    EXPECT_GT(eng.memory().used_bytes(memsim::kNodeTier), 0u);
  }
  EXPECT_EQ(eng.memory().used_bytes(memsim::kNodeTier), 0u);
}

TEST(Array, LeakKeepsPagesResident) {
  Engine eng(fast_engine());
  {
    Array<double> a(eng, 4096);
    a.st(0, 1.0);
    a.leak();
  }
  EXPECT_GT(eng.memory().used_bytes(memsim::kNodeTier), 0u);
}

TEST(Array, MoveTransfersOwnership) {
  Engine eng(fast_engine());
  Array<double> a(eng, 64);
  a.st(1, 9.0);
  Array<double> b = std::move(a);
  EXPECT_DOUBLE_EQ(b.ld(1), 9.0);
}

TEST(Array, ZeroSizeViolatesContract) {
  Engine eng(fast_engine());
  EXPECT_THROW(Array<double>(eng, 0), contract_violation);
}

TEST(Array, NamedAllocationRecorded) {
  Engine eng(fast_engine());
  Array<double> a(eng, 8, memsim::MemPolicy::first_touch(), "Parents");
  ASSERT_EQ(eng.allocations().size(), 1u);
  EXPECT_EQ(eng.allocations()[0].name, "Parents");
  a.release();
  EXPECT_TRUE(eng.allocations()[0].freed);
}

// ---------- phases & epochs ------------------------------------------------------

TEST(Phases, RecordsTaggedRegions) {
  Engine eng(fast_engine());
  Array<double> a(eng, 4096);
  eng.pf_start("p1");
  for (std::size_t i = 0; i < 4096; ++i) a.st(i, 1.0);
  eng.pf_stop();
  eng.pf_start("p2");
  double sum = 0;
  for (std::size_t i = 0; i < 4096; ++i) sum += a.ld(i);
  eng.pf_stop();
  eng.finish();
  ASSERT_EQ(eng.phases().size(), 2u);
  EXPECT_EQ(eng.phases()[0].tag, "p1");
  EXPECT_EQ(eng.phases()[0].counters.stores, 4096u);
  EXPECT_EQ(eng.phases()[1].counters.loads, 4096u);
  EXPECT_GT(sum, 0.0);
}

TEST(Phases, NestedStartViolatesContract) {
  Engine eng(fast_engine());
  eng.pf_start("a");
  EXPECT_THROW(eng.pf_start("b"), contract_violation);
}

TEST(Phases, StopWithoutStartViolatesContract) {
  Engine eng(fast_engine());
  EXPECT_THROW(eng.pf_stop(), contract_violation);
}

TEST(Phases, FinishInsideOpenPhaseViolatesContract) {
  Engine eng(fast_engine());
  eng.pf_start("a");
  EXPECT_THROW(eng.finish(), contract_violation);
}

TEST(Phases, PhaseTimesSumToElapsed) {
  Engine eng(fast_engine());
  Array<double> a(eng, 8192);
  eng.pf_start("p1");
  for (std::size_t i = 0; i < 8192; ++i) a.st(i, 1.0);
  eng.pf_stop();
  eng.pf_start("p2");
  for (std::size_t i = 0; i < 8192; ++i) (void)a.ld(i);
  eng.pf_stop();
  eng.finish();
  double phase_sum = 0;
  for (const auto& p : eng.phases()) phase_sum += p.time_s;
  // The final drain epoch is outside any phase; phases cover at least 80%.
  EXPECT_LE(phase_sum, eng.elapsed_seconds() + 1e-12);
  EXPECT_GT(phase_sum, 0.8 * eng.elapsed_seconds());
}

TEST(Epochs, EpochBoundariesRespectQuantum) {
  EngineConfig cfg;
  cfg.epoch_accesses = 1000;
  Engine eng(cfg);
  Array<double> a(eng, 64 * 1024);
  for (std::size_t i = 0; i < a.size(); ++i) a.st(i, 0.0);
  eng.finish();
  EXPECT_GT(eng.epochs().size(), 10u);
  for (const auto& e : eng.epochs()) {
    EXPECT_GE(e.duration_s, 0.0);
    EXPECT_GE(e.start_s, 0.0);
  }
}

TEST(Epochs, StartTimesAreMonotone) {
  Engine eng(fast_engine());
  Array<double> a(eng, 64 * 1024);
  for (std::size_t i = 0; i < a.size(); ++i) a.st(i, 0.0);
  eng.finish();
  double prev = -1.0;
  for (const auto& e : eng.epochs()) {
    EXPECT_GE(e.start_s, prev);
    prev = e.start_s;
  }
}

TEST(Engine, FlopsAccumulate) {
  Engine eng(fast_engine());
  eng.flops(100);
  eng.flops(23);
  eng.finish();
  EXPECT_EQ(eng.total_flops(), 123u);
  EXPECT_GT(eng.elapsed_seconds(), 0.0);
}

TEST(Engine, FinishTwiceViolatesContract) {
  Engine eng(fast_engine());
  eng.finish();
  EXPECT_THROW(eng.finish(), contract_violation);
}

TEST(Engine, PeakRssTracksResidentPages) {
  Engine eng(fast_engine());
  const std::uint64_t page = eng.memory().page_bytes();
  Array<std::uint8_t> a(eng, 10 * page);
  for (std::size_t i = 0; i < a.size(); i += page) a.st(i, 1);
  eng.finish();
  EXPECT_GE(eng.peak_rss_bytes(), 10 * page);
}

// ---------- time model properties --------------------------------------------------

double run_stream(double loi, bool prefetch, std::uint64_t remote_capacity_pages = 0) {
  EngineConfig cfg;
  cfg.epoch_accesses = 50'000;
  cfg.background_loi = loi;
  if (remote_capacity_pages > 0) {
    cfg.machine.node_tier().capacity_bytes = remote_capacity_pages * cfg.machine.page_bytes;
  }
  Engine eng(cfg);
  eng.set_prefetch_enabled(prefetch);
  Array<double> a(eng, 1 << 19);  // 4 MiB, exceeds L3
  for (std::size_t i = 0; i < a.size(); ++i) a.st(i, 1.0);
  double sum = 0;
  for (std::size_t i = 0; i < a.size(); ++i) sum += a.ld(i);
  eng.finish();
  EXPECT_GT(sum, 0.0);
  return eng.elapsed_seconds();
}

TEST(TimeModel, PrefetchingSpeedsUpStreaming) {
  const double with_pf = run_stream(0.0, true);
  const double without_pf = run_stream(0.0, false);
  EXPECT_LT(with_pf, without_pf);
}

TEST(TimeModel, InterferenceSlowsRemoteWorkloads) {
  // All pages remote: local capacity = 1 page.
  const double idle = run_stream(0.0, true, 1);
  const double loaded = run_stream(50.0, true, 1);
  EXPECT_GT(loaded, idle * 1.02);
}

TEST(TimeModel, InterferenceHarmlessWhenLocalOnly) {
  const double idle = run_stream(0.0, true);
  const double loaded = run_stream(50.0, true);
  EXPECT_NEAR(loaded, idle, idle * 0.01);
}

TEST(TimeModel, RemotePlacementSlowerThanLocal) {
  const double local = run_stream(0.0, true);
  const double remote = run_stream(0.0, true, 1);
  EXPECT_GT(remote, local * 1.2);
}

TEST(TimeModel, DeterministicAcrossRuns) {
  const double a = run_stream(20.0, true, 1);
  const double b = run_stream(20.0, true, 1);
  EXPECT_DOUBLE_EQ(a, b);
}

// Property sweep: elapsed time grows monotonically with LoI.
class LoiMonotoneTest : public ::testing::TestWithParam<double> {};

TEST_P(LoiMonotoneTest, HigherLoiNeverFaster) {
  const double loi = GetParam();
  const double t_lo = run_stream(loi, true, 1);
  const double t_hi = run_stream(loi + 10.0, true, 1);
  EXPECT_GE(t_hi, t_lo * 0.999);
}

INSTANTIATE_TEST_SUITE_P(Levels, LoiMonotoneTest, ::testing::Values(0.0, 10.0, 20.0, 30.0, 40.0));

TEST(Engine, EpochLinkTrafficReported) {
  EngineConfig cfg;
  cfg.machine.node_tier().capacity_bytes = cfg.machine.page_bytes;  // force remote
  Engine eng(cfg);
  Array<double> a(eng, 1 << 18);
  for (std::size_t i = 0; i < a.size(); ++i) a.st(i, 1.0);
  eng.finish();
  bool saw_traffic = false;
  for (const auto& e : eng.epochs())
    if (e.link_traffic_gbps > 0) saw_traffic = true;
  EXPECT_TRUE(saw_traffic);
}

// ---------- allocation bookkeeping -------------------------------------------

// Regression: Engine::free used to scan every allocation ever made; the
// base-address index must keep marking the right allocation freed when
// frees arrive out of allocation order.
TEST(Engine, FreeOutOfAllocationOrderMarksTheRightAllocations) {
  Engine eng(fast_engine());
  const auto a = eng.alloc(4096, memsim::MemPolicy::first_touch(), "a");
  const auto b = eng.alloc(8192, memsim::MemPolicy::first_touch(), "b");
  const auto c = eng.alloc(4096, memsim::MemPolicy::first_touch(), "c");
  eng.free(b);
  eng.free(c);
  const auto& infos = eng.allocations();
  ASSERT_EQ(infos.size(), 3u);
  EXPECT_FALSE(infos[0].freed);
  EXPECT_TRUE(infos[1].freed);
  EXPECT_TRUE(infos[2].freed);
  eng.free(a);
  EXPECT_TRUE(eng.allocations()[0].freed);
}

// ---------- bulk access streams ----------------------------------------------

// Drives every bulk entry point through a fixed access script on two
// engines — fast path on vs. the element-wise reference decomposition —
// and requires the full observable state (all hardware counters, epoch
// count, simulated time, page histogram, and the cache hierarchy's line
// state and LRU order) to match bit-for-bit. A small epoch quantum forces
// boundaries *inside* batched runs, covering the exact-replay path.
TEST(BulkApi, FastPathBitIdenticalToElementWise) {
  const auto run = [](bool fast) {
    EngineConfig cfg;
    cfg.epoch_accesses = 1000;  // many boundaries inside runs
    cfg.bulk_fast_path = fast;
    Engine eng(cfg);
    constexpr std::size_t kN = 6000;
    Array<double> a(eng, kN);
    Array<double> b(eng, kN);
    Array<std::uint32_t> idx(eng, kN);
    eng.load_range(a.addr_of(0), kN * 8, 8);
    eng.store_range(b.addr_of(0), kN * 8, 8);
    eng.rmw_range(a.addr_of(0), kN * 8, 8);
    eng.store_load_range(b.addr_of(0), kN * 8, 8);
    eng.load_strided(a.addr_of(0), kN / 64, 64 * 8, 8);       // column sweep
    eng.store_strided(b.addr_of(0), kN / 4, 4 * 8, 8);        // short stride
    eng.load_strided(a.addr_of(0), kN / 3, 24, 8);            // stride not dividing the line
    eng.store_strided(b.addr_of(0), kN * 8 / 72, 72, 8);      // stride past the line
    eng.load_pair_range(idx.addr_of(0), 4, a.addr_of(0), 8, kN);
    eng.store_pair_range(idx.addr_of(0), 4, b.addr_of(0), 8, kN);
    eng.load_pair_range(idx.addr_of(0), 4, a.addr_of(0), 16, kN / 2);  // 16 B second lane
    using Lane = Engine::StreamLane;
    const Lane lanes[] = {
        {a.addr_of(0), 8, 8, Lane::Op::kLoad},
        {b.addr_of(0), 8, 8, Lane::Op::kRmw},
        {idx.addr_of(0), 4, 4, Lane::Op::kLoad},
        {a.addr_of(0), 40, 8, Lane::Op::kLoad},  // strided lane (stencil diagonal)
        {b.addr_of(0), 8, 8, Lane::Op::kStore},  // same array twice
    };
    eng.stream_range(lanes, 5, kN / 8);
    const Lane one_lane[] = {{b.addr_of(0), 8, 8, Lane::Op::kRmw}};
    eng.stream_range(one_lane, 1, kN);
    eng.load_range(a.addr_of(0), kN * 8 / 48 * 48, 48);  // straddling elems: fallback
    const std::uint64_t digest = eng.hierarchy().digest();
    eng.finish();
    return std::tuple{eng.counters(), eng.epochs().size(), eng.elapsed_seconds(),
                      eng.page_access_histogram(), digest};
  };
  const auto [cf, ef, tf, hf, df] = run(true);
  const auto [cs, es, ts, hs, ds] = run(false);
  EXPECT_EQ(0, std::memcmp(&cf, &cs, sizeof(cf)));
  EXPECT_EQ(ef, es);
  EXPECT_EQ(tf, ts);
  EXPECT_EQ(hf, hs);
  EXPECT_EQ(df, ds);
}

// The range calls must count exactly like the loops they document.
TEST(BulkApi, RangeCountersMatchTheDocumentedLoops) {
  Engine eng(fast_engine());
  Array<double> a(eng, 512);
  const auto before = eng.counters();
  eng.load_range(a.addr_of(0), 512 * 8, 8);
  eng.rmw_range(a.addr_of(0), 512 * 8, 8);
  const auto d = eng.counters().delta_since(before);
  EXPECT_EQ(d.loads, 512u + 512u);
  EXPECT_EQ(d.stores, 512u);
}

TEST(BulkApi, RangeContractViolations) {
  Engine eng(fast_engine());
  Array<double> a(eng, 64);
  EXPECT_THROW(eng.load_range(a.addr_of(0), 0, 8), contract_violation);
  EXPECT_THROW(eng.load_range(a.addr_of(0), 12, 8), contract_violation);  // partial elem
  EXPECT_THROW(eng.load_strided(a.addr_of(0), 0, 8, 8), contract_violation);
  EXPECT_THROW(eng.stream_range(nullptr, 0, 4), contract_violation);
}

// ---------- differential engine fuzzer ---------------------------------------
// Seeded random public-API scripts, each replayed on three engines: the
// bulk fast path, the element-wise reference decomposition, and the fast
// path with the SIMD way probes forced scalar. All three must leave the
// same counters, epoch records, phases, time, page histogram and cache
// line state. Scripts name allocations by index, so one script replays
// on any engine; the generator draws with raw mt19937_64 output (no
// library distributions), so a seed means the same script everywhere.

using Lane = Engine::StreamLane;

struct FuzzLane {
  std::uint32_t alloc = 0;  ///< index into the script's allocations
  std::uint64_t offset = 0;
  std::uint64_t stride = 0;
  std::uint32_t elem = 0;
  Lane::Op op = Lane::Op::kLoad;
  std::uint64_t flops = 0;  ///< kFlops lanes only
};

struct FuzzOp {
  enum class Kind : std::uint8_t {
    kAlloc, kFree, kAccess, kRange, kStrided, kPair, kStream, kFlops, kPhase
  };
  Kind kind = Kind::kFlops;
  std::uint8_t form = 0;  ///< range form 0..3; 1 = store for access/strided/pair; alloc policy
  std::uint64_t n = 0;    ///< element/iteration count, alloc bytes, flops, freed index
  std::vector<FuzzLane> lanes;
};

struct FuzzScript {
  std::uint64_t epoch_accesses = 0;
  std::uint64_t page_sample_period = 0;
  std::uint32_t geometry = 0;
  bool prefetch = true;
  std::vector<FuzzOp> ops;
};

FuzzScript make_fuzz_script(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  const auto pick = [&rng](std::uint64_t lo, std::uint64_t hi) {
    return lo + rng() % (hi - lo + 1);
  };
  constexpr std::uint32_t kElems[] = {1, 2, 4, 8, 16, 24, 48};
  FuzzScript s;
  s.epoch_accesses = pick(64, 5000);
  s.page_sample_period = pick(1, 8);
  s.geometry = static_cast<std::uint32_t>(pick(0, 2));
  s.prefetch = pick(0, 3) != 0;

  std::vector<std::uint64_t> bytes;  // per allocation index
  std::vector<std::uint32_t> live;
  const auto alloc = [&] {
    FuzzOp op;
    op.kind = FuzzOp::Kind::kAlloc;
    op.n = pick(4096, 65536);
    op.form = static_cast<std::uint8_t>(pick(0, 2));
    live.push_back(static_cast<std::uint32_t>(bytes.size()));
    bytes.push_back(op.n);
    s.ops.push_back(op);
  };
  // A lane of up to `count` elements inside a live allocation; shrinks
  // `count` when the span would overrun it. Mostly element-aligned so the
  // fast paths engage, sometimes not so the fallbacks do.
  const auto lane = [&](std::uint64_t& count, bool contiguous) {
    FuzzLane ln;
    ln.alloc = live[pick(0, live.size() - 1)];
    ln.elem = kElems[pick(0, 6)];
    if (contiguous) {
      ln.stride = ln.elem;
    } else {
      ln.stride = pick(0, 1) != 0 ? ln.elem * pick(1, 12) : pick(1, 200);
    }
    const std::uint64_t size = bytes[ln.alloc];
    count = std::min(count, (size - ln.elem) / ln.stride + 1);
    const std::uint64_t slack = size - ((count - 1) * ln.stride + ln.elem);
    ln.offset = pick(0, slack);
    if (pick(0, 3) != 0) ln.offset -= ln.offset % ln.elem;
    return ln;
  };

  alloc();
  alloc();
  bool phase_open = false;
  for (int i = 0; i < 200; ++i) {
    FuzzOp op;
    op.n = pick(1, 600);
    switch (pick(0, 11)) {
      case 0:
        if (live.size() < 6) {
          alloc();
          continue;
        }
        [[fallthrough]];
      case 1: {
        if (live.size() < 2) continue;
        const std::size_t victim = pick(0, live.size() - 1);
        op.kind = FuzzOp::Kind::kFree;
        op.n = live[victim];
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(victim));
        break;
      }
      case 2:
        op.kind = FuzzOp::Kind::kAccess;
        op.form = static_cast<std::uint8_t>(pick(0, 1));
        op.n = 1;
        op.lanes.push_back(lane(op.n, true));
        break;
      case 3:
      case 4:
        op.kind = FuzzOp::Kind::kRange;
        op.form = static_cast<std::uint8_t>(pick(0, 3));
        op.lanes.push_back(lane(op.n, true));
        break;
      case 5:
        op.kind = FuzzOp::Kind::kStrided;
        op.form = static_cast<std::uint8_t>(pick(0, 1));
        op.lanes.push_back(lane(op.n, false));
        break;
      case 6:
        op.kind = FuzzOp::Kind::kPair;
        op.form = static_cast<std::uint8_t>(pick(0, 1));
        op.lanes.push_back(lane(op.n, true));
        op.lanes.push_back(lane(op.n, true));
        break;
      case 7:
      case 8: {
        op.kind = FuzzOp::Kind::kStream;
        const std::uint64_t num_lanes = pick(1, 6);
        for (std::uint64_t l = 0; l < num_lanes; ++l) {
          FuzzLane ln;
          const std::uint64_t kind = pick(0, 4);
          if (kind == 4) {
            ln.op = Lane::Op::kFlops;
            ln.flops = pick(0, 16);
          } else {
            ln = lane(op.n, pick(0, 2) != 0);
            ln.op = kind == 3 ? Lane::Op::kRmw : static_cast<Lane::Op>(kind % 3);
          }
          op.lanes.push_back(ln);
        }
        // Lanes drawn before a later one shrank the count still fit: a
        // shorter sweep only ends earlier.
        break;
      }
      case 9:
        op.kind = FuzzOp::Kind::kFlops;
        break;
      default:
        op.kind = FuzzOp::Kind::kPhase;
        phase_open = !phase_open;
        break;
    }
    s.ops.push_back(op);
  }
  if (phase_open) {
    FuzzOp op;
    op.kind = FuzzOp::Kind::kPhase;
    s.ops.push_back(op);
  }
  return s;
}

struct FuzzResult {
  cachesim::HwCounters counters;
  std::vector<EpochRecord> epochs;
  std::vector<PhaseRecord> phases;
  double elapsed_s = 0.0;
  std::uint64_t flops = 0;
  std::unordered_map<std::uint64_t, std::uint64_t> histogram;
  std::uint64_t digest_before_finish = 0;
  std::uint64_t digest_after_finish = 0;
};

FuzzResult run_fuzz_script(const FuzzScript& s, bool bulk_fast_path) {
  EngineConfig cfg;
  cfg.epoch_accesses = s.epoch_accesses;
  cfg.page_sample_period = s.page_sample_period;
  cfg.bulk_fast_path = bulk_fast_path;
  if (s.geometry == 1) {  // small power-of-two caches: evictions on short scripts
    cfg.hierarchy.l1 = {4096, 4, 64};
    cfg.hierarchy.l2 = {16384, 8, 64};
    cfg.hierarchy.l3 = {65536, 16, 64};
  } else if (s.geometry == 2) {  // odd way counts: the SIMD scans' tails
    cfg.hierarchy.l1 = {6144, 12, 64};
    cfg.hierarchy.l2 = {20480, 10, 64};
    cfg.hierarchy.l3 = {98304, 24, 64};
  }
  cfg.hierarchy.prefetcher.enabled = s.prefetch;
  Engine eng(cfg);
  std::vector<memsim::VRange> ranges;
  const auto addr = [&ranges](const FuzzLane& ln) { return ranges[ln.alloc].base + ln.offset; };
  int phase = 0;
  bool phase_open = false;
  for (const FuzzOp& op : s.ops) {
    switch (op.kind) {
      case FuzzOp::Kind::kAlloc: {
        const memsim::MemPolicy policies[] = {memsim::MemPolicy::first_touch(),
                                              memsim::MemPolicy::bind_pool(),
                                              memsim::MemPolicy::interleave(1, 1)};
        ranges.push_back(eng.alloc(op.n, policies[op.form]));
        break;
      }
      case FuzzOp::Kind::kFree:
        eng.free(ranges[op.n]);
        break;
      case FuzzOp::Kind::kAccess:
        if (op.form != 0) {
          eng.store(addr(op.lanes[0]), op.lanes[0].elem);
        } else {
          eng.load(addr(op.lanes[0]), op.lanes[0].elem);
        }
        break;
      case FuzzOp::Kind::kRange: {
        const FuzzLane& ln = op.lanes[0];
        const std::uint64_t bytes = op.n * ln.elem;
        switch (op.form) {
          case 0: eng.load_range(addr(ln), bytes, ln.elem); break;
          case 1: eng.store_range(addr(ln), bytes, ln.elem); break;
          case 2: eng.rmw_range(addr(ln), bytes, ln.elem); break;
          default: eng.store_load_range(addr(ln), bytes, ln.elem); break;
        }
        break;
      }
      case FuzzOp::Kind::kStrided: {
        const FuzzLane& ln = op.lanes[0];
        if (op.form != 0) {
          eng.store_strided(addr(ln), op.n, ln.stride, ln.elem);
        } else {
          eng.load_strided(addr(ln), op.n, ln.stride, ln.elem);
        }
        break;
      }
      case FuzzOp::Kind::kPair: {
        const FuzzLane& a = op.lanes[0];
        const FuzzLane& b = op.lanes[1];
        if (op.form != 0) {
          eng.store_pair_range(addr(a), a.elem, addr(b), b.elem, op.n);
        } else {
          eng.load_pair_range(addr(a), a.elem, addr(b), b.elem, op.n);
        }
        break;
      }
      case FuzzOp::Kind::kStream: {
        std::vector<Lane> lanes;
        for (const FuzzLane& ln : op.lanes) {
          if (ln.op == Lane::Op::kFlops) {
            lanes.push_back({ln.flops, 0, 0, Lane::Op::kFlops});
          } else {
            lanes.push_back({addr(ln), ln.stride, ln.elem, ln.op});
          }
        }
        eng.stream_range(lanes.data(), lanes.size(), op.n);
        break;
      }
      case FuzzOp::Kind::kFlops:
        eng.flops(op.n);
        break;
      case FuzzOp::Kind::kPhase:
        if (phase_open) {
          eng.pf_stop();
        } else {
          eng.pf_start("p" + std::to_string(phase++));
        }
        phase_open = !phase_open;
        break;
    }
  }
  FuzzResult r;
  r.digest_before_finish = eng.hierarchy().digest();
  eng.finish();
  r.digest_after_finish = eng.hierarchy().digest();
  r.counters = eng.counters();
  r.epochs = eng.epochs();
  r.phases = eng.phases();
  r.elapsed_s = eng.elapsed_seconds();
  r.flops = eng.total_flops();
  r.histogram = eng.page_access_histogram();
  return r;
}

void expect_same_run(const FuzzResult& a, const FuzzResult& b) {
  EXPECT_EQ(0, std::memcmp(&a.counters, &b.counters, sizeof(a.counters)));
  const auto epoch_fields = [](const EpochRecord& e) {
    return std::tie(e.start_s, e.duration_s, e.phase, e.flops, e.tier_bytes, e.tier_demand,
                    e.l2_lines_in, e.link_traffic_gbps, e.link_utilization, e.migration_s,
                    e.resident_bytes, e.link_loi, e.link_demand_mult,
                    e.link_demand_inflation, e.migration_bytes);
  };
  ASSERT_EQ(a.epochs.size(), b.epochs.size());
  for (std::size_t i = 0; i < a.epochs.size(); ++i)
    EXPECT_TRUE(epoch_fields(a.epochs[i]) == epoch_fields(b.epochs[i])) << "epoch " << i;
  const auto phase_fields = [](const PhaseRecord& p) {
    return std::tie(p.tag, p.time_s, p.flops, p.epoch_begin, p.epoch_end);
  };
  ASSERT_EQ(a.phases.size(), b.phases.size());
  for (std::size_t i = 0; i < a.phases.size(); ++i) {
    EXPECT_TRUE(phase_fields(a.phases[i]) == phase_fields(b.phases[i])) << "phase " << i;
    EXPECT_EQ(0, std::memcmp(&a.phases[i].counters, &b.phases[i].counters,
                             sizeof(a.phases[i].counters)));
  }
  EXPECT_EQ(a.elapsed_s, b.elapsed_s);
  EXPECT_EQ(a.flops, b.flops);
  EXPECT_EQ(a.histogram, b.histogram);
  EXPECT_EQ(a.digest_before_finish, b.digest_before_finish);
  EXPECT_EQ(a.digest_after_finish, b.digest_after_finish);
}

class EngineFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EngineFuzz, BulkScalarAndElementWiseRunsAgree) {
  const FuzzScript script = make_fuzz_script(GetParam());
  const FuzzResult fast = run_fuzz_script(script, true);
  EXPECT_GT(fast.counters.accesses(), 0u);
  {
    SCOPED_TRACE("bulk vs element-wise");
    expect_same_run(fast, run_fuzz_script(script, false));
  }
  {
    SCOPED_TRACE("SIMD vs forced-scalar probes");
    const bool saved = simd_enabled();
    set_simd_enabled(false);
    const FuzzResult scalar = run_fuzz_script(script, true);
    set_simd_enabled(saved);
    expect_same_run(fast, scalar);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineFuzz, ::testing::Range<std::uint64_t>(1, 17));

}  // namespace
}  // namespace memdis::sim
