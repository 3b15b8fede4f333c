#include "corsaro/corsaro.hpp"

namespace bgps::corsaro {

BgpCorsaro::BgpCorsaro(core::BgpStream* stream, Timestamp bin_size)
    : stream_(stream), bin_size_(bin_size) {
  // AlignToBin divides by the bin size, and a negative one never ends
  // AdvanceBinsTo's loop.
  if (bin_size < 1)
    status_ = InvalidArgument("BgpCorsaro: bin size must be >= 1 second, got " +
                              std::to_string(bin_size));
}

void BgpCorsaro::AddPlugin(std::unique_ptr<Plugin> plugin) {
  plugins_.push_back(std::move(plugin));
}

void BgpCorsaro::AdvanceBinsTo(Timestamp t) {
  if (bin_start_ < 0) {
    bin_start_ = AlignToBin(t, bin_size_);
    for (auto& p : plugins_) p->OnBinStart(bin_start_);
    return;
  }
  while (t >= bin_start_ + bin_size_) {
    for (auto& p : plugins_) p->OnBinEnd(bin_start_, bin_start_ + bin_size_);
    bin_start_ += bin_size_;
    for (auto& p : plugins_) p->OnBinStart(bin_start_);
  }
}

bool BgpCorsaro::Step(size_t max_records) {
  if (finished_ || !status_.ok()) return false;
  size_t n = 0;
  while (max_records == 0 || n < max_records) {
    auto rec = stream_->NextRecord();
    if (!rec) {
      if (bin_start_ >= 0) {
        for (auto& p : plugins_)
          p->OnBinEnd(bin_start_, bin_start_ + bin_size_);
      }
      for (auto& p : plugins_) p->OnFinish();
      finished_ = true;
      return false;
    }
    AdvanceBinsTo(rec->timestamp);
    std::vector<core::Elem> elems = stream_->Elems(*rec);
    RecordContext ctx{*rec, elems, {}};
    for (auto& p : plugins_) p->OnRecord(ctx);
    ++records_;
    ++n;
  }
  return true;
}

size_t BgpCorsaro::Run() {
  Step(0);
  return records_;
}

}  // namespace bgps::corsaro
