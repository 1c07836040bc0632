// Ablation A1 (§3): "computing parity one word at a time instead of one
// byte at a time significantly improved the performance of the RAID5 and
// Hybrid schemes" — the Swift/RAID lesson the paper repeats. Measured with
// google-benchmark on the real kernels. Extended with the GF(2^8)
// multiply-accumulate rows behind the rs(k,m) paths: the scalar table walk
// vs the runtime-dispatched kernel (GFNI affine, else PSHUFB nibble tables
// on SSSE3/AVX2), plus a full rs(4,2) group encode; and with the other
// per-byte kernel on the real-byte path, Buffer::pattern's generator. The
// dispatched rows are labelled with codec_dispatch_name().
#include <benchmark/benchmark.h>

#include <cstdio>
#include <vector>

#include "common/buffer.hpp"
#include "common/codec.hpp"
#include "common/parity.hpp"
#include "common/rng.hpp"

namespace {

std::vector<std::byte> random_bytes(std::size_t n, std::uint64_t seed) {
  csar::Rng rng(seed);
  std::vector<std::byte> v(n);
  for (auto& b : v) b = static_cast<std::byte>(rng.below(256));
  return v;
}

void BM_XorBytes(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  auto dst = random_bytes(n, 1);
  const auto src = random_bytes(n, 2);
  for (auto _ : state) {
    csar::xor_bytes(dst, src);
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}

void BM_XorWordsSingle(benchmark::State& state) {
  // The pre-blocking kernel (one 64-bit word per iteration) — the bytes/s
  // delta against BM_XorWords is the 32-byte-block unroll's win.
  const auto n = static_cast<std::size_t>(state.range(0));
  auto dst = random_bytes(n, 1);
  const auto src = random_bytes(n, 2);
  for (auto _ : state) {
    csar::xor_words_single(dst, src);
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}

void BM_XorWords(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  auto dst = random_bytes(n, 1);
  const auto src = random_bytes(n, 2);
  for (auto _ : state) {
    csar::xor_words(dst, src);
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}

void BM_XorWordsUnaligned(benchmark::State& state) {
  // Stripe-unit columns are rarely 8-byte aligned; the word kernel must not
  // lose its advantage on unaligned spans.
  const auto n = static_cast<std::size_t>(state.range(0));
  auto dst = random_bytes(n + 3, 1);
  const auto src = random_bytes(n + 5, 2);
  std::span<std::byte> d(dst.data() + 3, n);
  std::span<const std::byte> s(src.data() + 5, n);
  for (auto _ : state) {
    csar::xor_words(d, s);
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}

void BM_ParityOfStripe(benchmark::State& state) {
  // Full parity of a 5-data-unit stripe (the Figure 3 geometry) at the
  // given stripe-unit size.
  const auto su = static_cast<std::size_t>(state.range(0));
  std::vector<std::vector<std::byte>> units;
  units.reserve(5);
  for (int i = 0; i < 5; ++i) units.push_back(random_bytes(su, 10 + i));
  std::vector<std::byte> parity(su, std::byte{0});
  std::vector<std::span<const std::byte>> srcs(units.begin(), units.end());
  for (auto _ : state) {
    std::fill(parity.begin(), parity.end(), std::byte{0});
    csar::xor_accumulate(parity, srcs);
    benchmark::DoNotOptimize(parity.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(su) * 5);
}

void BM_GfMulAddScalar(benchmark::State& state) {
  // Per-byte table walk — the portable baseline of the GF kernel.
  const auto& scalar = csar::codec_detail::gf_kernels().front();
  const auto n = static_cast<std::size_t>(state.range(0));
  auto dst = random_bytes(n, 1);
  const auto src = random_bytes(n, 2);
  for (auto _ : state) {
    scalar.muladd(dst.data(), src.data(), n, 0x1d);
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}

void BM_GfMulAddDispatch(benchmark::State& state) {
  // Runtime-dispatched kernel (vgf2p8affineqb on GFNI hosts, split nibble
  // tables via PSHUFB on SSSE3/AVX2; bit-identical to the scalar walk by
  // construction).
  const auto n = static_cast<std::size_t>(state.range(0));
  auto dst = random_bytes(n, 1);
  const auto src = random_bytes(n, 2);
  for (auto _ : state) {
    csar::gf_muladd_region(dst, src, 0x1d);
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
  state.SetLabel(csar::codec_dispatch_name());
}

void BM_RsEncodeGroup(benchmark::State& state) {
  // Full rs(4,2) group encode at the given stripe-unit size: both coding
  // fragments accumulated from the 4 data units (8 muladd passes; the j=0
  // row is all ones, so half of them degrade to plain XOR).
  const auto su = static_cast<std::size_t>(state.range(0));
  const csar::CodeSpec spec{4, 2};
  std::vector<std::vector<std::byte>> units;
  for (std::uint32_t i = 0; i < spec.k; ++i) {
    units.push_back(random_bytes(su, 20 + i));
  }
  std::vector<std::vector<std::byte>> coding(spec.m,
                                             std::vector<std::byte>(su));
  for (auto _ : state) {
    for (std::uint32_t j = 0; j < spec.m; ++j) {
      std::fill(coding[j].begin(), coding[j].end(), std::byte{0});
      for (std::uint32_t i = 0; i < spec.k; ++i) {
        csar::gf_muladd_region(coding[j], units[i],
                               csar::rs_coeff(spec, j, i));
      }
    }
    benchmark::DoNotOptimize(coding.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(su) * spec.k * spec.m);
  state.SetLabel(csar::codec_dispatch_name());
}

void BM_Pattern(benchmark::State& state) {
  // Buffer::pattern at the given size: the real-byte benchmark's input
  // generator, run once per write chunk and again to verify each read.
  const auto n = static_cast<std::uint64_t>(state.range(0));
  std::uint64_t seed = 1;
  for (auto _ : state) {
    const csar::Buffer b = csar::Buffer::pattern(n, seed++);
    benchmark::DoNotOptimize(b.bytes().data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
  state.SetLabel(csar::codec_dispatch_name());
}

BENCHMARK(BM_XorBytes)->Arg(4096)->Arg(65536)->Arg(1 << 20);
BENCHMARK(BM_XorWordsSingle)->Arg(4096)->Arg(65536)->Arg(1 << 20);
BENCHMARK(BM_XorWords)->Arg(4096)->Arg(65536)->Arg(1 << 20);
BENCHMARK(BM_XorWordsUnaligned)->Arg(65536);
BENCHMARK(BM_ParityOfStripe)->Arg(16 * 1024)->Arg(64 * 1024);
BENCHMARK(BM_GfMulAddScalar)->Arg(4096)->Arg(65536)->Arg(1 << 20);
BENCHMARK(BM_GfMulAddDispatch)->Arg(4096)->Arg(65536)->Arg(1 << 20);
BENCHMARK(BM_RsEncodeGroup)->Arg(16 * 1024)->Arg(64 * 1024);
// 1.875 MiB: one stream_parity chunk (120 stripe units of 16 KiB).
BENCHMARK(BM_Pattern)->Arg(1920 * 1024);

}  // namespace

BENCHMARK_MAIN();
