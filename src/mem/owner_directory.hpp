// Paged directory mapping resident cache lines to their owning core and
// the way they occupy in its cache.
//
// The coherence model is single-owner (MESI-lite with migratory sharing),
// so the directory is a LineAddr -> (CoreId, way) map. Accesses walk
// contiguous line ranges (64 KiB strips, 1 MiB reads), so the map is a
// page table over the line address space: each page holds one 16-bit slot
// per line of kPageLines consecutive lines, and a walk does one page
// lookup per page, then reads slots sequentially. Because the slot holds
// the way, the memory system's hits and cache-to-cache transfers address
// the tag store directly, and a line whose slot is empty is proven absent
// from every cache without a tag scan.
//
// Addresses come from a bump allocator that never reuses them, so the set
// of pages ever touched grows without bound; a page is released to a free
// list as soon as its last line leaves the caches, so memory stays bounded
// by the lines resident at once (at most the machine's total cache lines).
#pragma once

#include <array>
#include <memory>
#include <vector>

#include "mem/cache.hpp"
#include "util/assert.hpp"
#include "util/flat_map.hpp"
#include "util/types.hpp"

namespace saisim::mem {

class OwnerDirectory {
 public:
  static constexpr u64 kPageShift = 8;
  static constexpr u64 kPageLines = u64{1} << kPageShift;

  /// One line's slot: owner + 1 in the low byte (0 = in memory only) and
  /// the owner cache's way in the high byte.
  using Slot = u16;
  static Slot slot(CoreId owner, u32 way) {
    return static_cast<Slot>((way << 8) | static_cast<u32>(owner + 1));
  }
  static CoreId owner_of(Slot s) { return static_cast<CoreId>(s & 0xFF) - 1; }
  static u32 way_of(Slot s) { return s >> 8; }

  /// Largest core id and way a slot can encode.
  static constexpr int kMaxCores = 255;
  static constexpr u32 kMaxWays = 256;

  struct Page {
    std::array<Slot, kPageLines> slots{};
    u64 live = 0;  // non-empty slots
  };

  /// Resident lines.
  u64 size() const { return size_; }
  /// Line slots backed by allocated pages (live or free-listed).
  u64 capacity() const { return pages_.size() * kPageLines; }

  static u64 page_no(LineAddr line) { return line >> kPageShift; }
  static u64 page_offset(LineAddr line) { return line & (kPageLines - 1); }

  /// Page holding `line`'s slot, or nullptr if no line of it is resident.
  Page* find_page(LineAddr line) {
    const u64 no = page_no(line);
    if (no == memo_no_) return memo_;
    const u32* idx = index_.find(no + 1);
    if (idx == nullptr) return nullptr;
    memo_no_ = no;
    memo_ = pages_[*idx].get();
    return memo_;
  }
  const Page* find_page(LineAddr line) const {
    const u32* idx = index_.find(page_no(line) + 1);
    return idx == nullptr ? nullptr : pages_[*idx].get();
  }

  /// Page holding `line`'s slot, allocated (empty) if absent.
  Page& page_for(LineAddr line) {
    if (Page* p = find_page(line)) return *p;
    u32 idx;
    if (free_.empty()) {
      idx = static_cast<u32>(pages_.size());
      pages_.push_back(std::make_unique<Page>());
    } else {
      idx = free_.back();
      free_.pop_back();
    }
    index_.emplace(page_no(line) + 1, u32{idx});
    memo_no_ = page_no(line);
    memo_ = pages_[idx].get();
    return *memo_;
  }

  /// Write a slot in `page` (which holds `line`). `s` must be non-empty.
  void set(Page& page, LineAddr line, Slot s) {
    Slot& cur = page.slots[page_offset(line)];
    if (cur == 0) {
      ++page.live;
      ++size_;
    }
    cur = s;
  }

  /// Empty a non-empty slot of `page`. Releases the page when it empties
  /// and then returns true: `page` must not be used again.
  bool clear(Page& page, LineAddr line) {
    Slot& cur = page.slots[page_offset(line)];
    SAISIM_CHECK(cur != 0);
    cur = 0;
    --size_;
    if (--page.live != 0) return false;
    release(line);
    return true;
  }

  /// Slot of `line` (0 if the line is only in memory).
  Slot lookup(LineAddr line) const {
    const Page* p = find_page(line);
    return p == nullptr ? Slot{0} : p->slots[page_offset(line)];
  }

  /// Owning core of `line`, or kNoCore if the line is only in memory.
  CoreId find(LineAddr line) const { return owner_of(lookup(line)); }

  /// Set the owner (and way) of `line`. Returns the previous owner, or
  /// kNoCore if the line was not present.
  CoreId assign(LineAddr line, CoreId owner, u32 way = 0) {
    SAISIM_CHECK(owner >= 0 && owner < kMaxCores && way < kMaxWays);
    Page& p = page_for(line);
    const CoreId prev = owner_of(p.slots[page_offset(line)]);
    set(p, line, slot(owner, way));
    return prev;
  }

  /// Remove `line`. Returns its owner, or kNoCore if it was absent.
  CoreId erase(LineAddr line) {
    Page* p = find_page(line);
    if (p == nullptr) return kNoCore;
    const CoreId prev = owner_of(p->slots[page_offset(line)]);
    if (prev != kNoCore) clear(*p, line);
    return prev;
  }

 private:
  using Index = util::FlatIdMap<u32>;

  void release(LineAddr line) {
    const u64 no = page_no(line);
    const u32 idx = *index_.find(no + 1);
    index_.erase(no + 1);
    free_.push_back(idx);
    if (memo_no_ == no) {
      memo_no_ = kNoPage;
      memo_ = nullptr;
    }
  }

  static constexpr u64 kNoPage = ~u64{0};

  /// page number + 1 -> index into pages_ (FlatIdMap reserves key 0).
  Index index_;
  std::vector<std::unique_ptr<Page>> pages_;
  std::vector<u32> free_;
  u64 size_ = 0;
  /// The last page found: walks and victim runs revisit the same page.
  u64 memo_no_ = kNoPage;
  Page* memo_ = nullptr;
};

}  // namespace saisim::mem
