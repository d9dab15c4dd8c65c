/**
 * @file
 * IndexedMinHeap against a std::set of (key, id) pairs under a
 * seeded mix of inserts, key moves, erases and pops.
 */

#include <gtest/gtest.h>

#include <set>
#include <utility>
#include <vector>

#include "common/indexed_heap.hh"
#include "common/rng.hh"

namespace duplex
{
namespace
{

TEST(IndexedMinHeap, TiesGoToTheLowestId)
{
    IndexedMinHeap h;
    h.set(7, 5);
    h.set(3, 5);
    h.set(9, 5);
    EXPECT_EQ(h.top(), 3);
    h.set(3, 6);
    EXPECT_EQ(h.top(), 7);
    h.erase(7);
    EXPECT_EQ(h.top(), 9);
    EXPECT_EQ(h.topKey(), 5);
    EXPECT_FALSE(h.contains(7));
    h.erase(7); // absent: a no-op
    EXPECT_EQ(h.size(), 2u);
}

TEST(IndexedMinHeap, MatchesAnOrderedSetUnderChurn)
{
    Rng rng(12345);
    IndexedMinHeap heap;
    std::set<std::pair<std::int64_t, int>> ref;
    std::vector<std::int64_t> key(64, -1); // -1: not in the heap
    for (int step = 0; step < 20000; ++step) {
        const int id = static_cast<int>(rng.next() % 64);
        const std::uint64_t op = rng.next() % 4;
        if (op < 2) {
            // Few distinct keys, so ties are common.
            const auto k = static_cast<std::int64_t>(rng.next() % 16);
            if (key[id] >= 0)
                ref.erase({key[id], id});
            ref.insert({k, id});
            key[id] = k;
            heap.set(id, k);
        } else if (op == 2) {
            if (key[id] >= 0)
                ref.erase({key[id], id});
            key[id] = -1;
            heap.erase(id);
        } else if (!ref.empty()) {
            const auto [k, top] = *ref.begin();
            ASSERT_EQ(heap.topKey(), k);
            ASSERT_EQ(heap.pop(), top);
            ref.erase(ref.begin());
            key[top] = -1;
        }
        ASSERT_EQ(heap.size(), ref.size());
        ASSERT_EQ(heap.contains(id), key[id] >= 0);
        if (!ref.empty()) {
            ASSERT_EQ(heap.top(), ref.begin()->second) << step;
            ASSERT_EQ(heap.topKey(), ref.begin()->first) << step;
        }
    }
}

} // namespace
} // namespace duplex
