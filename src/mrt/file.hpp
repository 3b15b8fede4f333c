// MRT dump-file reader and writer.
//
// A dump file is a plain concatenation of MRT records. The reader streams
// records one at a time (the paper's libBGPStream streams dumps straight
// from the HTTP connection; here the archive is a local directory, so we
// stream from disk with a fixed-size read buffer instead of slurping).
//
// Corruption handling mirrors the paper's extended libBGPdump: a framing
// error is unrecoverable for the rest of the file (there is no resync
// marker in MRT), so the reader reports Corrupt once and then EndOfStream.
#pragma once

#include <cstdint>
#include <fstream>
#include <limits>

#include "mrt/mrt.hpp"

namespace bgps::mrt {

class MrtFileReader {
 public:
  MrtFileReader() = default;

  // Reads the `length` bytes of `path` from `offset`; length 0 reads to
  // the end of the file. A range that ends inside a record reads like
  // a truncated file: Corrupt once, then EndOfStream.
  Status Open(const std::string& path, uint64_t offset = 0,
              uint64_t length = 0);
  bool is_open() const { return file_.is_open(); }
  const std::string& path() const { return path_; }

  // Returns the next framed record; EndOfStream at EOF; Corrupt exactly
  // once if framing breaks, then EndOfStream.
  //
  // Zero-copy: the record's `body` views this reader's internal buffer
  // and is valid only until the next Next() call (or reader
  // destruction). The streaming decode path consumes each record before
  // framing the next one; callers that keep bodies must copy them.
  Result<RawRecord> Next();

  // Byte position of the next frame Next() will read (stable across
  // EOF): the bytes framed so far.
  uint64_t offset() const { return offset_; }

 private:
  std::string path_;
  std::ifstream file_;
  // Reusable body buffer: grows to the largest record seen, so framing
  // a record costs zero heap allocations at steady state.
  Bytes buf_;
  bool corrupt_ = false;
  uint64_t offset_ = 0;
  // End of the range; a whole-file read never reaches it.
  uint64_t end_ = std::numeric_limits<uint64_t>::max();
};

class MrtFileWriter {
 public:
  MrtFileWriter() = default;

  Status Open(const std::string& path);
  bool is_open() const { return file_.is_open(); }
  const std::string& path() const { return path_; }

  // Appends an already-encoded record (output of the mrt::Encode* family).
  Status Write(const Bytes& encoded_record);
  // Appends raw garbage — used by the simulator's corruption injection.
  Status WriteRaw(const Bytes& bytes);

  // Hands everything written so far to the operating system, so a
  // reader that opens the file next sees it; IoError if it cannot.
  Status Flush();

  // Flushes and closes; IoError if the data did not reach the file.
  Status Close();

 private:
  std::string path_;
  std::ofstream file_;
};

// Convenience: reads and fully decodes every record in a file. Corrupt or
// unsupported records are skipped and counted. Intended for tests/tools,
// not the streaming path.
struct FileScan {
  std::vector<MrtMessage> messages;
  size_t corrupt = 0;
  size_t unsupported = 0;
};
Result<FileScan> ScanFile(const std::string& path);

}  // namespace bgps::mrt
