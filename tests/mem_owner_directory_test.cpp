#include "mem/owner_directory.hpp"

#include <gtest/gtest.h>

#include <unordered_map>
#include <vector>

namespace saisim::mem {
namespace {

TEST(OwnerDirectory, FindOnEmptyReturnsNoCore) {
  OwnerDirectory dir;
  EXPECT_EQ(dir.find(0), kNoCore);
  EXPECT_EQ(dir.find(12345), kNoCore);
  EXPECT_EQ(dir.size(), 0u);
}

TEST(OwnerDirectory, AssignReportsPreviousOwner) {
  OwnerDirectory dir;
  EXPECT_EQ(dir.assign(7, 0), kNoCore);  // fresh insert
  EXPECT_EQ(dir.find(7), 0);
  EXPECT_EQ(dir.assign(7, 3), 0);  // ownership move reports old owner
  EXPECT_EQ(dir.find(7), 3);
  EXPECT_EQ(dir.size(), 1u);
}

TEST(OwnerDirectory, EraseReportsOwnerAndAbsence) {
  OwnerDirectory dir;
  dir.assign(42, 5);
  EXPECT_EQ(dir.erase(42), 5);
  EXPECT_EQ(dir.find(42), kNoCore);
  EXPECT_EQ(dir.erase(42), kNoCore);  // already gone
  EXPECT_EQ(dir.size(), 0u);
}

TEST(OwnerDirectory, OwnerZeroIsDistinctFromEmpty) {
  // Core 0 is a valid owner; the empty-slot encoding must not alias it.
  OwnerDirectory dir;
  dir.assign(1, 0);
  EXPECT_EQ(dir.find(1), 0);
  EXPECT_EQ(dir.erase(1), 0);
}

TEST(OwnerDirectory, GrowsPastInitialCapacityWithoutLosingEntries) {
  OwnerDirectory dir;  // starts with no pages
  const u64 initial_cap = dir.capacity();
  for (LineAddr line = 0; line < 1000; ++line) {
    dir.assign(line, static_cast<CoreId>(line % 7));
  }
  EXPECT_GT(dir.capacity(), initial_cap);
  EXPECT_EQ(dir.size(), 1000u);
  for (LineAddr line = 0; line < 1000; ++line) {
    EXPECT_EQ(dir.find(line), static_cast<CoreId>(line % 7));
  }
}

// Erasing must keep every other entry reachable, across page boundaries
// and through pages that empty, are released and are reused: fill densely
// and erase in a pattern that punches holes in the middle of pages.
TEST(OwnerDirectory, BackshiftDeletionKeepsCollisionChainsReachable) {
  OwnerDirectory dir;
  // Fill to just under the growth threshold repeatedly, erasing odd lines
  // between waves; any tombstone-style bug or bad shift condition breaks
  // lookups of the survivors.
  std::unordered_map<LineAddr, CoreId> model;
  u64 next_line = 0;
  for (int wave = 0; wave < 50; ++wave) {
    for (int i = 0; i < 20; ++i) {
      const LineAddr line = next_line++;
      const CoreId owner = static_cast<CoreId>(line % 5);
      dir.assign(line, owner);
      model[line] = owner;
    }
    // Erase a mid-chain selection.
    std::vector<LineAddr> doomed;
    for (const auto& [line, owner] : model) {
      if (line % 3 == static_cast<u64>(wave % 3)) doomed.push_back(line);
    }
    for (const LineAddr line : doomed) {
      EXPECT_EQ(dir.erase(line), model[line]);
      model.erase(line);
    }
    for (const auto& [line, owner] : model) {
      ASSERT_EQ(dir.find(line), owner) << "line " << line << " lost in wave "
                                       << wave;
    }
  }
  EXPECT_EQ(dir.size(), model.size());
}

// Adjacent lines (the common access pattern): erase every other line, then
// reassign the holes and verify the survivors are untouched.
TEST(OwnerDirectory, EraseHeadOfChainThenReassign) {
  OwnerDirectory dir;
  for (LineAddr line = 0; line < 12; ++line) dir.assign(line, 1);
  for (LineAddr line = 0; line < 12; line += 2) dir.erase(line);
  for (LineAddr line = 1; line < 12; line += 2) {
    EXPECT_EQ(dir.find(line), 1);
  }
  // Reinsert into the holes and re-check everything.
  for (LineAddr line = 0; line < 12; line += 2) dir.assign(line, 2);
  for (LineAddr line = 0; line < 12; ++line) {
    EXPECT_EQ(dir.find(line), line % 2 == 0 ? 2 : 1);
  }
}

// Addresses are never reused, so a walk over fresh buffers touches new
// pages forever. A page whose last line leaves must be released and its
// storage reused, so memory tracks the resident lines, not the addresses
// ever touched.
TEST(OwnerDirectory, EmptiedPagesAreReleasedAndReused) {
  OwnerDirectory dir;
  const u64 stride = OwnerDirectory::kPageLines;
  for (LineAddr page = 0; page < 10'000; ++page) {
    dir.assign(page * stride + page % stride, 1);
    if (page > 0) {
      const LineAddr prev = (page - 1) * stride + (page - 1) % stride;
      EXPECT_EQ(dir.erase(prev), 1);
    }
  }
  EXPECT_EQ(dir.size(), 1u);
  EXPECT_LE(dir.capacity(), 2 * OwnerDirectory::kPageLines);
}

}  // namespace
}  // namespace saisim::mem
