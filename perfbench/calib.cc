#include "calib.hh"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <queue>
#include <unordered_map>
#include <utility>
#include <vector>

namespace perfbench
{

namespace
{

volatile std::uint64_t g_sink = 0;

std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/** One run of the reference loop; host ns. */
double
loopNs()
{
    constexpr std::uint64_t kEvents = 50000;
    constexpr std::size_t kDepth = 1024;
    constexpr std::size_t kTable = std::size_t{1} << 18; // 2 MiB
    // Allocated and touched once, so no loop pays page faults.
    static std::vector<std::uint64_t> table(kTable, 1);

    const std::uint64_t t0 = nowNs();
    std::unordered_map<std::uint64_t, std::uint64_t> counters;
    counters.reserve(4096);
    using Ev = std::pair<std::uint64_t, std::uint32_t>;
    std::priority_queue<Ev, std::vector<Ev>, std::greater<Ev>> heap;
    std::uint64_t x = 0x9e3779b97f4a7c15ULL;
    const auto rnd = [&x]() {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        return x;
    };
    for (std::uint32_t i = 0; i < kDepth; ++i)
        heap.emplace(rnd() % 1024, i);
    std::uint64_t acc = 0;
    for (std::uint64_t n = 0; n < kEvents; ++n) {
        const Ev e = heap.top();
        heap.pop();
        const std::uint64_t r = rnd();
        acc += table[(r >> 8) % kTable];
        table[(e.second * 64 + n) % kTable] += acc;
        counters[r % 4096] += e.first;
        heap.emplace(e.first + 1 + r % 256, e.second);
    }
    g_sink = g_sink + acc + counters.size();
    return static_cast<double>(nowNs() - t0);
}

} // namespace

double
SpeedGauge::slowdown()
{
    constexpr std::uint64_t kRefreshNs = 100'000'000;
    const std::uint64_t t0 = nowNs();
    if (samples_ == 0 || t0 - last_ns_ >= kRefreshNs) {
        // The faster of two: interference only ever adds time.
        slowdown_ = std::min(loopNs(), loopNs()) / kReferenceNs;
        last_ns_ = nowNs();
        spent_ns_ += static_cast<double>(last_ns_ - t0);
        ++samples_;
    }
    return slowdown_;
}

} // namespace perfbench
