#include "secure/pad_pipeline.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace mgsec
{

const char *
directionName(Direction d)
{
    return d == Direction::Send ? "send" : "recv";
}

const char *
otpOutcomeName(OtpOutcome o)
{
    switch (o) {
      case OtpOutcome::Hit:
        return "hit";
      case OtpOutcome::Partial:
        return "partial";
      case OtpOutcome::Miss:
        return "miss";
    }
    return "?";
}

void
PadPipeline::init(Tick now, Cycles latency, std::uint32_t quota,
                  std::uint64_t next_ctr)
{
    MGSEC_ASSERT(latency >= kMinAesLatency,
                 "AES latency must be positive");
    latency_ = latency;
    quota_ = quota;
    front_ctr_ = next_ctr;
    ready_.clear();
    ready_.reserve(quota);
    for (std::uint32_t i = 0; i < quota; ++i)
        ready_.push_back(now + latency_);
    ondemand_free_ = now;
}

Tick
PadPipeline::frontReady() const
{
    return ready_.empty() ? MaxTick : ready_.front();
}

PadPipeline::Claim
PadPipeline::claim(Tick now)
{
    Claim c;
    c.ctr = front_ctr_++;
    if (ready_.empty()) {
        // No staging slot: generate on demand, serialized.
        const Tick start = std::max(now, ondemand_free_);
        c.ready = start + latency_;
        ondemand_free_ = c.ready;
        return c;
    }
    c.ready = ready_.front();
    ready_.pop_front();
    // The slot frees when the pad is consumed (at claim time) and
    // immediately starts on the pad quota_ counters ahead.
    const Tick claim_time = std::max(now, c.ready);
    ready_.push_back(claim_time + latency_);
    return c;
}

void
PadPipeline::resize(Tick now, std::uint32_t new_quota)
{
    if (new_quota == quota_)
        return;
    while (ready_.size() > new_quota) {
        ready_.pop_back();
        ++wasted_;
    }
    ready_.reserve(new_quota);
    while (ready_.size() < new_quota)
        ready_.push_back(now + latency_);
    quota_ = new_quota;
    if (quota_ > 0)
        ondemand_free_ = now;
}

void
PadPipeline::resync(Tick now, std::uint64_t next_ctr)
{
    wasted_ += ready_.size();
    front_ctr_ = next_ctr;
    ready_.fill(now + latency_);
    ondemand_free_ = now;
}

} // namespace mgsec
