#include "obs/wait_stats.h"

#include <cstring>

namespace mlcs::obs {

const char* WaitKindName(WaitKind kind) {
  switch (kind) {
    case WaitKind::kLock:
      return "lock";
    case WaitKind::kQueue:
      return "queue";
    case WaitKind::kBufpool:
      return "bufpool";
    case WaitKind::kPool:
      return "pool";
  }
  return "?";
}

WaitSite* WaitStats::GetSite(WaitKind kind, const char* name) {
  uint32_t published = num_sites_.load(std::memory_order_acquire);
  for (uint32_t i = 0; i < published && i < kMaxSites; ++i) {
    WaitSite& site = sites_[i];
    if (site.state_.load(std::memory_order_acquire) != 2) continue;
    if (site.kind_ == kind && std::strcmp(site.name_, name) == 0) {
      return &site;
    }
  }
  uint32_t idx = num_sites_.fetch_add(1, std::memory_order_acq_rel);
  if (idx >= kMaxSites) {
    // Registry full: everyone shares the overflow site so blocked time
    // still lands somewhere visible.
    num_sites_.store(kMaxSites, std::memory_order_release);
    if (overflow_.state_.load(std::memory_order_acquire) != 2) {
      uint32_t expected = 0;
      if (overflow_.state_.compare_exchange_strong(
              expected, 1, std::memory_order_acq_rel)) {
        std::strncpy(overflow_.name_, "overflow",
                     WaitSite::kNameBytes - 1);
        overflow_.kind_ = kind;
        overflow_.state_.store(2, std::memory_order_release);
      }
    }
    return &overflow_;
  }
  WaitSite& site = sites_[idx];
  site.state_.store(1, std::memory_order_relaxed);
  std::strncpy(site.name_, name, WaitSite::kNameBytes - 1);
  site.name_[WaitSite::kNameBytes - 1] = '\0';
  site.kind_ = kind;
  site.state_.store(2, std::memory_order_release);
  return &site;
}

std::map<std::pair<std::string, std::string>, Histogram::Counts>
WaitStats::Merged() const {
  std::map<std::pair<std::string, std::string>, Histogram::Counts> out;
  auto add = [&out](const WaitSite& site) {
    if (site.state_.load(std::memory_order_acquire) != 2) return;
    out[{WaitKindName(site.kind()), site.name()}].Merge(
        site.histogram().Read());
  };
  uint32_t published = num_sites_.load(std::memory_order_acquire);
  for (uint32_t i = 0; i < published && i < kMaxSites; ++i) add(sites_[i]);
  add(overflow_);
  return out;
}

WaitStats& WaitStats::Global() {
  static WaitStats* stats = new WaitStats();
  return *stats;
}

}  // namespace mlcs::obs
