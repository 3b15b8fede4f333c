#include "mq/log.hpp"

#include <algorithm>
#include <limits>

namespace bgps::mq {

uint64_t Cluster::Partition::MinPinLocked() const {
  uint64_t min_pin = std::numeric_limits<uint64_t>::max();
  for (const auto& p : pins) min_pin = std::min(min_pin, p.offset);
  return min_pin;
}

bool Cluster::Partition::OverBoundLocked() const {
  return log.size() > 1 &&
         ((retention.max_messages != 0 && log.size() > retention.max_messages) ||
          (retention.max_bytes != 0 && bytes > retention.max_bytes));
}

bool Cluster::Partition::EnforceRetentionLocked() {
  if (retention.max_messages == 0 && retention.max_bytes == 0) return false;
  const uint64_t first = first_offset;
  const uint64_t min_pin = MinPinLocked();
  while (first_offset < min_pin && OverBoundLocked()) {
    bytes -= log.front()->value.size();
    log.pop_front();
    ++first_offset;
  }
  return first_offset != first;
}

Cluster::Topic& Cluster::GetOrCreateLocked(const std::string& topic,
                                           size_t partitions,
                                           RetentionOptions retention) {
  auto it = topics_.find(topic);
  if (it == topics_.end()) {
    Topic t;
    size_t n = partitions == 0 ? 1 : partitions;
    t.parts.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      t.parts.push_back(std::make_unique<Partition>());
      t.parts.back()->retention = retention;
    }
    it = topics_.emplace(topic, std::move(t)).first;
  }
  return it->second;
}

Cluster::Partition* Cluster::Find(const std::string& topic,
                                  size_t partition) const {
  std::lock_guard lock(mu_);
  auto it = topics_.find(topic);
  if (it == topics_.end()) return nullptr;
  if (partition >= it->second.parts.size()) return nullptr;
  return it->second.parts[partition].get();
}

void Cluster::CreateTopic(const std::string& topic, size_t partitions) {
  CreateTopic(topic, partitions, default_retention_);
}

void Cluster::CreateTopic(const std::string& topic, size_t partitions,
                          RetentionOptions retention) {
  std::lock_guard lock(mu_);
  GetOrCreateLocked(topic, partitions, retention);
}

uint64_t Cluster::Publish(const std::string& topic, size_t partition,
                          Message message) {
  Partition* p;
  {
    std::lock_guard lock(mu_);
    Topic& t = GetOrCreateLocked(topic, 1, default_retention_);
    p = t.parts.at(partition).get();
  }
  std::unique_lock lock(p->mu);
  // Enforcement has already run, so an over-bound log is held by a pin.
  p->truncated.wait(lock, [p] { return !p->OverBoundLocked(); });
  const uint64_t offset = p->next_offset++;
  message.offset = offset;
  p->bytes += message.value.size();
  p->log.push_back(std::make_shared<const Message>(std::move(message)));
  p->EnforceRetentionLocked();
  return offset;
}

Result<std::vector<MessagePtr>> Cluster::Fetch(const std::string& topic,
                                               size_t partition,
                                               uint64_t from_offset,
                                               size_t max,
                                               size_t max_bytes) const {
  std::vector<MessagePtr> out;
  Partition* p = Find(topic, partition);
  if (p == nullptr) return out;
  std::lock_guard lock(p->mu);
  if (from_offset < p->first_offset) {
    return TruncatedError("offset " + std::to_string(from_offset) +
                          " below retention low-watermark " +
                          std::to_string(p->first_offset) + " of " + topic +
                          "/" + std::to_string(partition));
  }
  size_t budget = 0;
  for (uint64_t off = from_offset; off < p->next_offset; ++off) {
    const MessagePtr& m = p->log[size_t(off - p->first_offset)];
    if (max_bytes != 0 && !out.empty() &&
        budget + m->value.size() > max_bytes) {
      break;
    }
    budget += m->value.size();
    out.push_back(m);  // shared handle — no payload copy
    if (max != 0 && out.size() >= max) break;
  }
  return out;
}

uint64_t Cluster::EndOffset(const std::string& topic, size_t partition) const {
  Partition* p = Find(topic, partition);
  if (p == nullptr) return 0;
  std::lock_guard lock(p->mu);
  return p->next_offset;
}

uint64_t Cluster::FirstOffset(const std::string& topic,
                              size_t partition) const {
  Partition* p = Find(topic, partition);
  if (p == nullptr) return 0;
  std::lock_guard lock(p->mu);
  return p->first_offset;
}

size_t Cluster::RetainedBytes(const std::string& topic,
                              size_t partition) const {
  Partition* p = Find(topic, partition);
  if (p == nullptr) return 0;
  std::lock_guard lock(p->mu);
  return p->bytes;
}

size_t Cluster::partitions(const std::string& topic) const {
  std::lock_guard lock(mu_);
  auto it = topics_.find(topic);
  return it == topics_.end() ? 0 : it->second.parts.size();
}

std::vector<std::string> Cluster::topics() const {
  std::lock_guard lock(mu_);
  std::vector<std::string> out;
  for (const auto& [name, _] : topics_) out.push_back(name);
  return out;
}

Cluster::Pin Cluster::CreatePin(const std::string& topic, size_t partition,
                                uint64_t offset) {
  Partition* p;
  {
    std::lock_guard lock(mu_);
    Topic& t = GetOrCreateLocked(topic, partition + 1, default_retention_);
    p = t.parts.at(partition).get();
  }
  std::lock_guard lock(p->mu);
  uint64_t id = p->next_pin_id++;
  p->pins.push_back({id, std::max(offset, p->first_offset)});
  return Pin(p, id);
}

Cluster::Pin& Cluster::Pin::operator=(Pin&& o) noexcept {
  if (this != &o) {
    Release();
    part_ = o.part_;
    id_ = o.id_;
    o.part_ = nullptr;
    o.id_ = 0;
  }
  return *this;
}

void Cluster::Pin::Advance(uint64_t offset) {
  if (part_ == nullptr) return;
  std::lock_guard lock(part_->mu);
  for (auto& p : part_->pins) {
    if (p.id == id_) {
      p.offset = std::max(p.offset, offset);
      break;
    }
  }
  // Only a bounded partition truncates, so an unbounded one (the
  // per-poll path of an unbounded fan-out) never notifies.
  if (part_->EnforceRetentionLocked()) part_->truncated.notify_all();
}

void Cluster::Pin::Release() {
  if (part_ == nullptr) return;
  {
    std::lock_guard lock(part_->mu);
    auto& pins = part_->pins;
    pins.erase(std::remove_if(pins.begin(), pins.end(),
                              [this](const PinEntry& p) { return p.id == id_; }),
               pins.end());
    if (part_->EnforceRetentionLocked()) part_->truncated.notify_all();
  }
  part_ = nullptr;
  id_ = 0;
}

Result<std::vector<MessagePtr>> Consumer::Poll(size_t max, size_t max_bytes) {
  auto msgs = cluster_->Fetch(topic_, partition_, offset_, max, max_bytes);
  if (msgs.ok() && !msgs->empty()) offset_ = msgs->back()->offset + 1;
  return msgs;
}

}  // namespace bgps::mq
