#include "common/timeseries.h"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

namespace kvsim {

void BandwidthTracker::add(TimeNs when, u64 bytes) {
  const size_t idx = (size_t)(when / window_);
  if (idx >= windows_.size()) windows_.resize(idx + 1, 0);
  windows_[idx] += bytes;
  total_bytes_ += bytes;
  last_event_ = std::max(last_event_, when);
}

void BandwidthTracker::merge(const BandwidthTracker& o) {
  if (o.window_ != window_)
    throw std::invalid_argument("BandwidthTracker::merge: window mismatch");
  if (o.windows_.size() > windows_.size())
    windows_.resize(o.windows_.size(), 0);
  for (size_t i = 0; i < o.windows_.size(); ++i) windows_[i] += o.windows_[i];
  total_bytes_ += o.total_bytes_;
  last_event_ = std::max(last_event_, o.last_event_);
}

double BandwidthTracker::bytes_per_sec(size_t i) const {
  if (i >= windows_.size()) return 0.0;
  return (double)windows_[i] * (double)kSec / (double)window_;
}

double BandwidthTracker::mean_bytes_per_sec() const {
  if (last_event_ == 0) return 0.0;
  return (double)total_bytes_ * (double)kSec / (double)last_event_;
}

double BandwidthTracker::min_bytes_per_sec() const {
  if (windows_.size() <= 1) return mean_bytes_per_sec();
  double mn = bytes_per_sec(0);
  for (size_t i = 1; i + 1 < windows_.size(); ++i)
    mn = std::min(mn, bytes_per_sec(i));
  return mn;
}

std::string BandwidthTracker::to_csv() const {
  std::string out = "time_ms,MiB_per_s\n";
  char row[64];
  for (size_t i = 0; i < windows_.size(); ++i) {
    std::snprintf(row, sizeof(row), "%.1f,%.2f\n",
                  (double)(i * window_) / (double)kMs,
                  bytes_per_sec(i) / (double)MiB);
    out += row;
  }
  return out;
}

}  // namespace kvsim
