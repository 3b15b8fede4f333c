#include "mrt/file.hpp"

#include <algorithm>
#include <string>

namespace bgps::mrt {

Status MrtFileReader::Open(const std::string& path, uint64_t offset,
                           uint64_t length) {
  path_ = path;
  corrupt_ = false;
  offset_ = offset;
  end_ = length == 0 ? std::numeric_limits<uint64_t>::max() : offset + length;
  file_.open(path, std::ios::binary);
  if (!file_.is_open()) return IoError("cannot open " + path);
  if (offset != 0 && !file_.seekg(std::streamoff(offset)))
    return IoError("cannot seek to byte " + std::to_string(offset) + " of " +
                   path);
  return OkStatus();
}

Result<RawRecord> MrtFileReader::Next() {
  if (corrupt_) return EndOfStream();
  if (!file_.is_open()) return IoError("reader not open");

  // Bytes left in the range. A whole-file read starts with end_ at the
  // maximum, so for it this is never below a header.
  const uint64_t room = end_ - offset_;
  if (room < kMrtHeaderSize) [[unlikely]] {
    if (room == 0) return EndOfStream();
    corrupt_ = true;
    return CorruptError("truncated MRT header in " + path_);
  }

  uint8_t header[kMrtHeaderSize];
  file_.read(reinterpret_cast<char*>(header), kMrtHeaderSize);
  std::streamsize got = file_.gcount();
  if (got == 0) return EndOfStream();
  if (got < std::streamsize(kMrtHeaderSize)) {
    corrupt_ = true;
    return CorruptError("truncated MRT header in " + path_);
  }

  BufReader hr(header, kMrtHeaderSize);
  RawRecord raw;
  raw.timestamp = hr.u32().value();
  raw.type = hr.u16().value();
  raw.subtype = hr.u16().value();
  uint32_t len = hr.u32().value();

  // Framing sanity: a record body larger than 64 MiB means the length
  // field is garbage (real RIB records are < 1 MiB). One compare covers
  // that and a body that would run past the end of the range.
  constexpr uint64_t kMaxBody = 64u << 20;
  if (len > std::min(kMaxBody, room - kMrtHeaderSize)) {
    corrupt_ = true;
    return CorruptError((len > kMaxBody ? "implausible MRT record length in "
                                        : "truncated MRT body in ") +
                        path_);
  }

  // Read into the reusable buffer and hand out a view: no per-record
  // allocation once buf_ has grown to the file's largest record.
  if (buf_.size() < len) buf_.resize(len);
  file_.read(reinterpret_cast<char*>(buf_.data()), std::streamsize(len));
  if (file_.gcount() < std::streamsize(len)) {
    corrupt_ = true;
    return CorruptError("truncated MRT body in " + path_);
  }
  raw.body = std::span<const uint8_t>(buf_.data(), len);

  if (raw.type == uint16_t(MrtType::Bgp4mpEt)) {
    if (raw.body.size() < 4) {
      corrupt_ = true;
      return CorruptError("BGP4MP_ET record too short in " + path_);
    }
    BufReader br(raw.body);
    raw.microseconds = br.u32().value();
    raw.body = raw.body.subspan(4);
  }

  offset_ += kMrtHeaderSize + len;  // the BGP4MP_ET body trim is in-memory
  return raw;
}

Status MrtFileWriter::Open(const std::string& path) {
  path_ = path;
  file_.open(path, std::ios::binary | std::ios::trunc);
  if (!file_.is_open()) return IoError("cannot open " + path + " for write");
  return OkStatus();
}

Status MrtFileWriter::Write(const Bytes& encoded_record) {
  return WriteRaw(encoded_record);
}

Status MrtFileWriter::WriteRaw(const Bytes& bytes) {
  if (!file_.is_open()) return IoError("writer not open");
  file_.write(reinterpret_cast<const char*>(bytes.data()),
              std::streamsize(bytes.size()));
  if (!file_.good()) return IoError("write failed");
  return OkStatus();
}

Status MrtFileWriter::Flush() {
  if (!file_.is_open()) return IoError("writer not open");
  if (!file_.flush()) return IoError("cannot flush " + path_);
  return OkStatus();
}

Status MrtFileWriter::Close() {
  if (!file_.is_open()) return OkStatus();
  file_.close();  // sets failbit when the final flush or close fails
  if (file_.fail()) return IoError("cannot close " + path_);
  return OkStatus();
}

Result<FileScan> ScanFile(const std::string& path) {
  MrtFileReader reader;
  BGPS_RETURN_IF_ERROR(reader.Open(path));
  FileScan scan;
  while (true) {
    auto raw = reader.Next();
    if (!raw.ok()) {
      if (raw.status().code() == StatusCode::EndOfStream) break;
      ++scan.corrupt;
      continue;  // reader yields EndOfStream next
    }
    auto msg = DecodeRecord(*raw);
    if (!msg.ok()) {
      if (msg.status().code() == StatusCode::Unsupported) {
        ++scan.unsupported;
      } else {
        ++scan.corrupt;
      }
      continue;
    }
    scan.messages.push_back(std::move(*msg));
  }
  return scan;
}

}  // namespace bgps::mrt
