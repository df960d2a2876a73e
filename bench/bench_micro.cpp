// Micro-benchmarks for the data-path building blocks: packet parse,
// flow-table ops (vs std::unordered_map ablation), SPSC ring, mempool
// alloc/free, histogram record, checksum, pcap write.

#include <benchmark/benchmark.h>

#include <unistd.h>

#include <array>
#include <cstdio>
#include <filesystem>
#include <unordered_map>

#include "anomaly/heavy_hitters.hpp"
#include "capture/pcap.hpp"
#include "driver/mempool.hpp"
#include "driver/nic.hpp"
#include "driver/ring.hpp"
#include "driver/toeplitz.hpp"
#include "flow/flow_table.hpp"
#include "viz/heatmap.hpp"
#include "net/checksum.hpp"
#include "net/packet_builder.hpp"
#include "net/packet_view.hpp"
#include "util/histogram.hpp"
#include "util/random.hpp"
#include "util/spsc_ring.hpp"

namespace {

using namespace ruru;

std::vector<std::uint8_t> sample_frame(std::size_t payload) {
  TcpFrameSpec spec;
  spec.src_ip = Ipv4Address(10, 1, 0, 1);
  spec.dst_ip = Ipv4Address(10, 2, 0, 1);
  spec.src_port = 40'000;
  spec.dst_port = 443;
  spec.flags = TcpFlags::kAck;
  spec.payload_length = payload;
  spec.with_timestamps = true;
  return build_tcp_frame(spec);
}

void BM_ParsePacket(benchmark::State& state) {
  const auto frame = sample_frame(static_cast<std::size_t>(state.range(0)));
  PacketView view;
  for (auto _ : state) {
    const auto status = parse_packet(frame, view);
    benchmark::DoNotOptimize(status);
    benchmark::DoNotOptimize(view.tcp.src_port);
  }
  state.SetItemsProcessed(state.iterations());
  state.SetBytesProcessed(state.iterations() * static_cast<std::int64_t>(frame.size()));
}
BENCHMARK(BM_ParsePacket)->Arg(0)->Arg(1200)->ArgName("payload");

void BM_FlowTableInsertEraseCycle(benchmark::State& state) {
  FlowTable table(1 << 16);
  Pcg32 rng(1);
  std::int64_t t = 0;
  for (auto _ : state) {
    FiveTuple tuple;
    tuple.src = Ipv4Address(rng.next_u32());
    tuple.dst = Ipv4Address(rng.next_u32());
    tuple.src_port = static_cast<std::uint16_t>(rng.next_u32());
    tuple.dst_port = 443;
    tuple.protocol = 6;
    const FlowKey key = FlowKey::from(tuple);
    bool inserted = false;
    const FlowTable::Slot s = table.find_or_insert(key, static_cast<std::uint32_t>(key.hash()),
                                                   Timestamp::from_ns(++t), inserted);
    benchmark::DoNotOptimize(s);
    if (s != FlowTable::kNoSlot) table.erase(s);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FlowTableInsertEraseCycle);

// Ablation: same workload on std::unordered_map (allocating, no probe
// bound) — the open-addressing table should win on the data path.
void BM_UnorderedMapInsertEraseCycle(benchmark::State& state) {
  std::unordered_map<FlowKey, FlowData> table;
  table.reserve(1 << 16);
  Pcg32 rng(1);
  for (auto _ : state) {
    FiveTuple tuple;
    tuple.src = Ipv4Address(rng.next_u32());
    tuple.dst = Ipv4Address(rng.next_u32());
    tuple.src_port = static_cast<std::uint16_t>(rng.next_u32());
    tuple.dst_port = 443;
    tuple.protocol = 6;
    const FlowKey key = FlowKey::from(tuple);
    auto [it, inserted] = table.try_emplace(key);
    benchmark::DoNotOptimize(it);
    table.erase(it);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_UnorderedMapInsertEraseCycle);

void BM_FlowTableLookupHit(benchmark::State& state) {
  FlowTable table(1 << 16);
  Pcg32 rng(2);
  std::vector<std::pair<FlowKey, std::uint32_t>> keys;
  for (int i = 0; i < 10'000; ++i) {
    FiveTuple tuple;
    tuple.src = Ipv4Address(rng.next_u32());
    tuple.dst = Ipv4Address(rng.next_u32());
    tuple.src_port = static_cast<std::uint16_t>(rng.next_u32());
    tuple.dst_port = 443;
    tuple.protocol = 6;
    const FlowKey key = FlowKey::from(tuple);
    const auto h = static_cast<std::uint32_t>(key.hash());
    bool inserted = false;
    if (table.find_or_insert(key, h, Timestamp::from_sec(1), inserted) != FlowTable::kNoSlot) {
      keys.emplace_back(key, h);
    }
  }
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& [key, h] = keys[i++ % keys.size()];
    benchmark::DoNotOptimize(table.find(key, h, Timestamp::from_sec(1)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FlowTableLookupHit);

// RSS hashing: bit-serial reference vs the precomputed lookup table the
// NIC actually uses. 12 bytes = TCP/IPv4 tuple, 36 bytes = TCP/IPv6.
void BM_ToeplitzScalar(benchmark::State& state) {
  const RssKey& key = symmetric_rss_key();
  Pcg32 rng(6);
  std::uint8_t input[36];
  for (auto& b : input) b = static_cast<std::uint8_t>(rng.next_u32());
  const auto len = static_cast<std::size_t>(state.range(0));
  const std::span<const std::uint8_t> in(input, len);
  for (auto _ : state) {
    benchmark::DoNotOptimize(toeplitz_hash(key, in));
  }
  state.SetItemsProcessed(state.iterations());
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ToeplitzScalar)->Arg(12)->Arg(36)->ArgName("bytes");

void BM_ToeplitzTable(benchmark::State& state) {
  const ToeplitzTable table(symmetric_rss_key());
  Pcg32 rng(6);
  std::uint8_t input[36];
  for (auto& b : input) b = static_cast<std::uint8_t>(rng.next_u32());
  const auto len = static_cast<std::size_t>(state.range(0));
  const std::span<const std::uint8_t> in(input, len);
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.hash(in));
  }
  state.SetItemsProcessed(state.iterations());
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ToeplitzTable)->Arg(12)->Arg(36)->ArgName("bytes");

// RX publish path: one-frame inject_burst calls (one release store per
// frame) vs one whole burst (per-queue staging, one release store per
// queue). Both drain identically, so the delta is the publish path
// itself.
std::vector<std::vector<std::uint8_t>> inject_bench_frames() {
  std::vector<std::vector<std::uint8_t>> frames;
  for (int i = 0; i < 64; ++i) {
    TcpFrameSpec spec;
    spec.src_ip = Ipv4Address(10, 1, static_cast<std::uint8_t>(i), 1);
    spec.dst_ip = Ipv4Address(10, 2, 0, static_cast<std::uint8_t>(i));
    spec.src_port = static_cast<std::uint16_t>(20'000 + i);
    spec.dst_port = 443;
    spec.flags = TcpFlags::kAck;
    frames.push_back(build_tcp_frame(spec));
  }
  return frames;
}

void drain_nic(SimNic& nic) {
  std::array<MbufPtr, 64> out;
  for (std::uint16_t q = 0; q < nic.num_queues(); ++q) {
    std::size_t n = 0;
    while ((n = nic.rx_burst(q, out)) != 0) {
      for (std::size_t i = 0; i < n; ++i) out[i].reset();
    }
  }
}

void BM_NicInject(benchmark::State& state) {
  Mempool pool(1 << 14, 2048);
  NicConfig cfg;
  cfg.num_queues = 4;
  cfg.queue_depth = 8192;
  SimNic nic(cfg, pool);
  const auto frames = inject_bench_frames();
  std::vector<RxFrame> burst;
  for (const auto& f : frames) burst.push_back({f, Timestamp{}});
  for (auto _ : state) {
    for (const RxFrame& rx : burst) {
      benchmark::DoNotOptimize(nic.inject_burst({&rx, 1}));
    }
    drain_nic(nic);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(frames.size()));
}
BENCHMARK(BM_NicInject);

void BM_NicInjectBurst(benchmark::State& state) {
  Mempool pool(1 << 14, 2048);
  NicConfig cfg;
  cfg.num_queues = 4;
  cfg.queue_depth = 8192;
  SimNic nic(cfg, pool);
  const auto frames = inject_bench_frames();
  std::vector<RxFrame> burst;
  for (const auto& f : frames) burst.push_back({f, Timestamp{}});
  for (auto _ : state) {
    benchmark::DoNotOptimize(nic.inject_burst(burst));
    drain_nic(nic);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(frames.size()));
}
BENCHMARK(BM_NicInjectBurst);

void BM_SpscRingPushPop(benchmark::State& state) {
  SpscRing<std::uint64_t> ring(4096);
  std::uint64_t v = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ring.try_push(++v));
    benchmark::DoNotOptimize(ring.try_pop());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SpscRingPushPop);

void BM_MempoolAllocFree(benchmark::State& state) {
  Mempool pool(4096, 2048);
  for (auto _ : state) {
    auto m = pool.alloc();
    benchmark::DoNotOptimize(m.get());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MempoolAllocFree);

void BM_HistogramRecord(benchmark::State& state) {
  Histogram h;
  Pcg32 rng(3);
  for (auto _ : state) {
    h.record(static_cast<std::int64_t>(rng.bounded(1'000'000'000)));
  }
  state.SetItemsProcessed(state.iterations());
  benchmark::DoNotOptimize(h.percentile(0.5));
}
BENCHMARK(BM_HistogramRecord);

void BM_InternetChecksum(benchmark::State& state) {
  std::vector<std::uint8_t> data(static_cast<std::size_t>(state.range(0)), 0x5A);
  for (auto _ : state) {
    benchmark::DoNotOptimize(internet_checksum(data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_InternetChecksum)->Arg(20)->Arg(1500);

void BM_MpmcRingPushPop(benchmark::State& state) {
  MpmcRing<std::uint64_t> ring(4096);
  std::uint64_t v = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ring.try_push(++v));
    benchmark::DoNotOptimize(ring.try_pop());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MpmcRingPushPop);

void BM_SpaceSavingAdd(benchmark::State& state) {
  SpaceSaving<std::uint32_t> ss(static_cast<std::size_t>(state.range(0)));
  Pcg32 rng(4);
  for (auto _ : state) {
    // Zipf-ish: 30% one hot key, rest spread.
    ss.add(rng.chance(0.3) ? 1u : rng.bounded(100'000));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SpaceSavingAdd)->Arg(64)->Arg(1024)->ArgName("capacity");

void BM_HeatmapAdd(benchmark::State& state) {
  auto hm = LatencyHeatmap::with_default_bands(Duration::from_sec(1.0));
  Pcg32 rng(5);
  std::int64_t t = 0;
  for (auto _ : state) {
    hm.add(Timestamp::from_us(t += 100),
           Duration::from_ms(static_cast<std::int64_t>(rng.bounded(500))));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HeatmapAdd);

void BM_PcapWrite(benchmark::State& state) {
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("bench_pcap_" + std::to_string(::getpid()) + ".pcap"))
          .string();
  auto writer = PcapWriter::open(path);
  if (!writer.ok()) {
    state.SkipWithError("open failed");
    return;
  }
  const auto frame = sample_frame(1200);
  std::int64_t t = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(writer.value().write(Timestamp::from_us(++t), frame).ok());
  }
  state.SetItemsProcessed(state.iterations());
  state.SetBytesProcessed(state.iterations() * static_cast<std::int64_t>(frame.size()));
  writer.value().close();
  std::remove(path.c_str());
}
BENCHMARK(BM_PcapWrite);

}  // namespace

BENCHMARK_MAIN();
