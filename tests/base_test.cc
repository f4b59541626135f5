// Unit tests for src/base: intrusive list, RNG, status names, CRC-32.

#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <vector>

#include "src/base/crc32.h"
#include "src/base/intrusive_list.h"
#include "src/base/rng.h"
#include "src/base/status.h"

namespace fluke {
namespace {

struct Item {
  int value = 0;
  ListNode node;
};

using ItemList = IntrusiveList<Item, &Item::node>;

TEST(IntrusiveList, StartsEmpty) {
  ItemList l;
  EXPECT_TRUE(l.empty());
  EXPECT_EQ(l.size(), 0u);
  EXPECT_EQ(l.PopFront(), nullptr);
  EXPECT_EQ(l.Front(), nullptr);
}

TEST(IntrusiveList, FifoOrder) {
  ItemList l;
  Item a{1}, b{2}, c{3};
  l.PushBack(&a);
  l.PushBack(&b);
  l.PushBack(&c);
  EXPECT_EQ(l.size(), 3u);
  EXPECT_EQ(l.PopFront()->value, 1);
  EXPECT_EQ(l.PopFront()->value, 2);
  EXPECT_EQ(l.PopFront()->value, 3);
  EXPECT_TRUE(l.empty());
}

TEST(IntrusiveList, PushFront) {
  ItemList l;
  Item a{1}, b{2};
  l.PushBack(&a);
  l.PushFront(&b);
  EXPECT_EQ(l.PopFront()->value, 2);
  EXPECT_EQ(l.PopFront()->value, 1);
}

TEST(IntrusiveList, RemoveMiddle) {
  ItemList l;
  Item a{1}, b{2}, c{3};
  l.PushBack(&a);
  l.PushBack(&b);
  l.PushBack(&c);
  l.Remove(&b);
  EXPECT_FALSE(b.node.linked());
  EXPECT_EQ(l.size(), 2u);
  EXPECT_EQ(l.PopFront()->value, 1);
  EXPECT_EQ(l.PopFront()->value, 3);
}

TEST(IntrusiveList, ContainsAndReinsert) {
  ItemList l;
  Item a{1};
  EXPECT_FALSE(l.Contains(&a));
  l.PushBack(&a);
  EXPECT_TRUE(l.Contains(&a));
  l.Remove(&a);
  EXPECT_FALSE(l.Contains(&a));
  l.PushBack(&a);  // reinsertion after removal is legal
  EXPECT_TRUE(l.Contains(&a));
}

TEST(IntrusiveList, ForEachVisitsAllInOrder) {
  ItemList l;
  Item a{1}, b{2}, c{3};
  l.PushBack(&a);
  l.PushBack(&b);
  l.PushBack(&c);
  int sum = 0;
  int last = 0;
  l.ForEach([&](Item* i) {
    sum += i->value;
    EXPECT_GT(i->value, last);
    last = i->value;
  });
  EXPECT_EQ(sum, 6);
}

TEST(Rng, Deterministic) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next64(), b.Next64());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next64() == b.Next64()) {
      ++same;
    }
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, BelowIsInRange) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(r.Below(17), 17u);
  }
}

TEST(Rng, RangeInclusive) {
  Rng r(9);
  std::set<uint64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const uint64_t v = r.Range(3, 6);
    EXPECT_GE(v, 3u);
    EXPECT_LE(v, 6u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 4u);  // all four values hit
}

TEST(Rng, ChanceExtremes) {
  Rng r(11);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(r.Chance(0, 10));
    EXPECT_TRUE(r.Chance(10, 10));
  }
}

TEST(Status, Names) {
  EXPECT_STREQ(KStatusName(KStatus::kOk), "OK");
  EXPECT_STREQ(KStatusName(KStatus::kBlocked), "BLOCKED");
  EXPECT_STREQ(KStatusName(KStatus::kHardFault), "HARD_FAULT");
}

// Bit-at-a-time reflected CRC-32: the definition the table-driven one must
// reproduce.
uint32_t BitwiseCrc32(const uint8_t* data, size_t len) {
  uint32_t crc = 0xFFFFFFFFu;
  for (size_t i = 0; i < len; ++i) {
    crc ^= data[i];
    for (int b = 0; b < 8; ++b) {
      crc = (crc & 1) != 0 ? 0xEDB88320u ^ (crc >> 1) : crc >> 1;
    }
  }
  return crc ^ 0xFFFFFFFFu;
}

TEST(Crc32, CheckValue) {
  const char* check = "123456789";
  EXPECT_EQ(Crc32(reinterpret_cast<const uint8_t*>(check), std::strlen(check)), 0xCBF43926u);
  EXPECT_EQ(Crc32(nullptr, 0), 0u);
}

// Every length 0..64 (each tail length of the eight-byte stride) and random
// longer lengths, at every alignment within an eight-byte word.
TEST(Crc32, MatchesBitwiseReferenceAtAnyLengthAndAlignment) {
  Rng r(2024);
  std::vector<uint8_t> buf(4096 + 8);
  for (uint8_t& b : buf) {
    b = static_cast<uint8_t>(r.Next32());
  }
  std::vector<size_t> lengths;
  for (size_t n = 0; n <= 64; ++n) {
    lengths.push_back(n);
  }
  for (int i = 0; i < 64; ++i) {
    lengths.push_back(r.Range(65, 4096));
  }
  for (size_t n : lengths) {
    for (size_t off = 0; off < 8; ++off) {
      EXPECT_EQ(Crc32(buf.data() + off, n), BitwiseCrc32(buf.data() + off, n))
          << "length " << n << " offset " << off;
    }
  }
}

}  // namespace
}  // namespace fluke
