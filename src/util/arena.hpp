// Bump arena + string interning for the decode hot path.
//
// Arena services many small, same-lifetime allocations (AS-path intern
// keys, scratch spans) from large blocks that are freed wholesale when
// the owning dump / chunked file is destroyed. Allocation is a pointer
// bump; there is no per-object free.
//
// InternedString is a process-wide, never-freed string pool for low-
// cardinality provenance strings (project/collector names): each distinct
// value is stored once, and a Record carries a pointer — copying a record
// no longer copies (or allocates) its provenance strings. Pointer
// equality is value equality.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

namespace bgps {

class Arena {
 public:
  explicit Arena(size_t block_bytes = 16 * 1024) : block_bytes_(block_bytes) {}
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  // Bump-allocates `bytes` with `align` alignment. Never returns null;
  // memory is freed only when the arena is destroyed (or Reset).
  void* Allocate(size_t bytes, size_t align = alignof(std::max_align_t)) {
    size_t base = (used_ + align - 1) & ~(align - 1);
    if (blocks_.empty() || base + bytes > blocks_.back().size) {
      NewBlock(bytes + align);
      base = (used_ + align - 1) & ~(align - 1);
    }
    void* p = blocks_.back().data.get() + base;
    used_ = base + bytes;
    bytes_allocated_ += bytes;
    return p;
  }

  // Copies `s` into the arena; the view stays valid for the arena's
  // lifetime.
  std::string_view Intern(std::string_view s) {
    if (s.empty()) return {};
    char* p = static_cast<char*>(Allocate(s.size(), 1));
    std::memcpy(p, s.data(), s.size());
    return {p, s.size()};
  }

  // Total user bytes handed out (stats / tests).
  size_t bytes_allocated() const { return bytes_allocated_; }
  // Total block bytes reserved from the heap.
  size_t bytes_reserved() const {
    size_t total = 0;
    for (const auto& b : blocks_) total += b.size;
    return total;
  }

  // Drops every block: all views/pointers into the arena are invalidated.
  void Reset() {
    blocks_.clear();
    used_ = 0;
    bytes_allocated_ = 0;
  }

 private:
  struct Block {
    std::unique_ptr<uint8_t[]> data;
    size_t size = 0;
  };

  void NewBlock(size_t at_least) {
    size_t size = std::max(block_bytes_, at_least);
    blocks_.push_back({std::make_unique<uint8_t[]>(size), size});
    used_ = 0;
  }

  size_t block_bytes_;
  std::vector<Block> blocks_;
  size_t used_ = 0;  // bytes consumed in blocks_.back()
  size_t bytes_allocated_ = 0;
};

// A pointer into the process-wide provenance-string pool. Implicitly
// converts to const std::string&; interning (the only allocation) happens
// once per distinct value for the process lifetime.
class InternedString {
 public:
  InternedString() : s_(&EmptyString()) {}
  InternedString(std::string_view s) : s_(&Intern(s)) {}
  InternedString(const std::string& s) : s_(&Intern(s)) {}
  InternedString(const char* s) : s_(&Intern(s)) {}

  operator const std::string&() const { return *s_; }
  const std::string& str() const { return *s_; }
  const char* c_str() const { return s_->c_str(); }
  size_t size() const { return s_->size(); }
  bool empty() const { return s_->empty(); }
  auto begin() const { return s_->begin(); }
  auto end() const { return s_->end(); }

  // Pointer equality is value equality: each value is stored once.
  // C++20 synthesizes the reversed and != forms; the exact-match
  // overloads below keep mixed comparisons unambiguous despite the
  // implicit conversions both ways.
  friend bool operator==(const InternedString& a, const InternedString& b) {
    return a.s_ == b.s_;
  }
  friend bool operator==(const InternedString& a, const std::string& b) {
    return *a.s_ == b;
  }
  friend bool operator==(const InternedString& a, const char* b) {
    return *a.s_ == b;
  }
  friend bool operator==(const InternedString& a, std::string_view b) {
    return *a.s_ == b;
  }
  friend bool operator<(const InternedString& a, const InternedString& b) {
    return *a.s_ < *b.s_;
  }

 private:
  struct Hash {
    using is_transparent = void;
    size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>()(s);
    }
    size_t operator()(const std::string& s) const {
      return std::hash<std::string_view>()(s);
    }
  };

  static const std::string& EmptyString() {
    static const std::string empty;
    return empty;
  }

  static const std::string& Intern(std::string_view s) {
    if (s.empty()) return EmptyString();
    // Node-based set: element addresses survive rehashing. Entries are
    // never erased (provenance names are low-cardinality).
    static std::mutex mu;
    static std::unordered_set<std::string, Hash, std::equal_to<>> pool;
    std::lock_guard<std::mutex> lock(mu);
    auto it = pool.find(s);
    if (it == pool.end()) it = pool.emplace(s).first;
    return *it;
  }

  const std::string* s_;
};

}  // namespace bgps

template <>
struct std::hash<bgps::InternedString> {
  size_t operator()(bgps::InternedString s) const {
    return std::hash<const std::string*>()(&s.str());
  }
};
