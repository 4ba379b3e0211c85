#include "pfs/buffer_cache.hpp"

#include <algorithm>

#include "util/assert.hpp"
#include "util/rng.hpp"

namespace saisim::pfs {

namespace {

/// Set index hashed from the block number. A plain `block % num_sets`
/// is pathological for striped streams: one server sees a stream at a
/// stride of num_servers * strip blocks, which for power-of-two set counts
/// lands every strip of the stream in the same few sets and thrashes the
/// prefetched blocks out before they are used. Hashing keeps the mapping a
/// deterministic property of the data while spreading strides uniformly.
u64 set_of(u64 block, u64 num_sets) {
  u64 h = block;
  return splitmix64(h) % num_sets;
}

}  // namespace

BufferCache::BufferCache(const BufferCacheConfig& config) : cfg_(config) {
  if (cfg_.capacity_bytes == 0) return;
  ways_ = cfg_.ways;
  num_sets_ =
      std::max<u64>(1, cfg_.capacity_bytes /
                           (cfg_.block_bytes * static_cast<u64>(ways_)));
  SAISIM_CHECK(num_sets_ * static_cast<u64>(ways_) < kNil);
  entries_.resize(num_sets_ * static_cast<u64>(ways_));
}

BufferCache::Entry* BufferCache::find(u64 block) {
  Entry* set = &entries_[set_of(block, num_sets_) * static_cast<u64>(ways_)];
  for (int w = 0; w < ways_; ++w) {
    if (set[w].valid && set[w].block == block) return &set[w];
  }
  return nullptr;
}

const BufferCache::Entry* BufferCache::find(u64 block) const {
  return const_cast<BufferCache*>(this)->find(block);
}

void BufferCache::link_dirty_tail(Entry& e) {
  const u32 i = index_of(e);
  e.dirty_prev = dirty_tail_;
  e.dirty_next = kNil;
  if (dirty_tail_ == kNil) {
    dirty_head_ = i;
  } else {
    entries_[dirty_tail_].dirty_next = i & kNil;
  }
  dirty_tail_ = i;
}

void BufferCache::unlink_dirty(Entry& e) {
  if (e.dirty_prev == kNil) {
    dirty_head_ = e.dirty_next;
  } else {
    entries_[e.dirty_prev].dirty_next = e.dirty_next & kNil;
  }
  if (e.dirty_next == kNil) {
    dirty_tail_ = e.dirty_prev;
  } else {
    entries_[e.dirty_next].dirty_prev = e.dirty_prev;
  }
  e.dirty_prev = e.dirty_next = kNil;
}

void BufferCache::refresh(Entry& e) {
  e.stamp = ++tick_;
  if (e.dirty && dirty_tail_ != index_of(e)) {
    unlink_dirty(e);
    link_dirty_tail(e);
  }
}

bool BufferCache::lookup(u64 block) {
  SAISIM_CHECK(enabled());
  Entry* e = find(block);
  if (e == nullptr) {
    ++stats_.misses;
    return false;
  }
  refresh(*e);
  if (e->prefetched) {
    e->prefetched = false;
    ++stats_.readahead_useful;
  }
  ++stats_.hits;
  return true;
}

bool BufferCache::contains(u64 block) const {
  return enabled() && find(block) != nullptr;
}

bool BufferCache::is_dirty(u64 block) const {
  if (!enabled()) return false;
  const Entry* e = find(block);
  return e != nullptr && e->dirty;
}

u64 BufferCache::insert(u64 block, bool dirty, bool prefetched) {
  SAISIM_CHECK(enabled());
  if (Entry* e = find(block)) {
    refresh(*e);
    if (dirty && !e->dirty) {
      e->dirty = true;
      ++dirty_;
      link_dirty_tail(*e);
    }
    if (!prefetched) e->prefetched = false;
    return 0;
  }
  Entry* set = &entries_[set_of(block, num_sets_) * static_cast<u64>(ways_)];
  Entry* victim = &set[0];
  for (int w = 0; w < ways_; ++w) {
    if (!set[w].valid) {
      victim = &set[w];
      break;
    }
    if (set[w].stamp < victim->stamp) victim = &set[w];
  }
  u64 forced = 0;
  if (victim->valid) {
    ++stats_.evictions;
    if (victim->dirty) {
      ++stats_.dirty_writebacks;
      --dirty_;
      unlink_dirty(*victim);
      forced = 1;
    }
  }
  victim->block = block;
  victim->stamp = ++tick_;
  victim->valid = true;
  victim->dirty = dirty;
  victim->prefetched = prefetched;
  if (dirty) {
    ++dirty_;
    link_dirty_tail(*victim);
  }
  return forced;
}

u64 BufferCache::take_dirty(u64 max) {
  SAISIM_CHECK(enabled());
  u64 n = 0;
  for (; n < max && dirty_head_ != kNil; ++n) {
    Entry& e = entries_[dirty_head_];
    unlink_dirty(e);
    e.dirty = false;
  }
  dirty_ -= n;
  stats_.flushed_blocks += n;
  return n;
}

}  // namespace saisim::pfs
