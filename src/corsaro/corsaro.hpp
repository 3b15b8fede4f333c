// BGPCorsaro engine (paper §6.1): drives a plugin pipeline over a sorted
// BGP stream in regular time bins.
//
// Because libBGPStream delivers records sorted by timestamp, the engine
// can close a time bin the moment it sees a record at/after the bin's end
// — even when mixing collectors — exactly the property §6.1 calls out.
#pragma once

#include <memory>

#include "corsaro/plugin.hpp"

namespace bgps::corsaro {

class BgpCorsaro {
 public:
  // `bin_size` in seconds; bins are aligned (start % bin_size == 0).
  // A bin size below 1 is rejected through status().
  BgpCorsaro(core::BgpStream* stream, Timestamp bin_size);

  void AddPlugin(std::unique_ptr<Plugin> plugin);

  // Consumes the whole stream. Returns records processed.
  size_t Run();

  // Incremental variant: processes up to `max_records` records (0 = all);
  // returns false when the stream ended. While status() is not OK,
  // consumes no record, calls no plugin and returns false.
  bool Step(size_t max_records);

  // InvalidArgument when the bin size is below 1 second.
  const Status& status() const { return status_; }
  Timestamp current_bin() const { return bin_start_; }
  size_t records_processed() const { return records_; }

 private:
  void AdvanceBinsTo(Timestamp t);

  core::BgpStream* stream_;
  Timestamp bin_size_;
  Timestamp bin_start_ = -1;  // -1 = no bin opened yet
  std::vector<std::unique_ptr<Plugin>> plugins_;
  size_t records_ = 0;
  bool finished_ = false;
  Status status_;
};

}  // namespace bgps::corsaro
