/**
 * @file
 * Unit + property tests for the set-associative LRU table every paper
 * structure is built from.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <utility>
#include <vector>

#include "common/lru_table.hh"
#include "common/rng.hh"

namespace gaze
{
namespace
{

TEST(LruTable, InsertFindRoundtrip)
{
    LruTable<int> t(4, 2);
    EXPECT_EQ(t.capacity(), 8u);
    EXPECT_FALSE(t.insert(0, 100, 42).has_value());
    int *v = t.find(0, 100);
    ASSERT_NE(v, nullptr);
    EXPECT_EQ(*v, 42);
    EXPECT_EQ(t.find(0, 101), nullptr);
    EXPECT_EQ(t.find(1, 100), nullptr);
}

TEST(LruTable, InsertOverwritesSameTag)
{
    LruTable<int> t(1, 4);
    t.insert(0, 7, 1);
    auto evicted = t.insert(0, 7, 2);
    EXPECT_FALSE(evicted.has_value());
    EXPECT_EQ(*t.find(0, 7), 2);
    EXPECT_EQ(t.occupancy(), 1u);
}

TEST(LruTable, EvictsLeastRecentlyUsed)
{
    LruTable<int> t(1, 2);
    t.insert(0, 1, 10);
    t.insert(0, 2, 20);
    // Touch tag 1 so tag 2 becomes LRU.
    EXPECT_NE(t.find(0, 1), nullptr);
    auto evicted = t.insert(0, 3, 30);
    ASSERT_TRUE(evicted.has_value());
    EXPECT_EQ(evicted->tag, 2u);
    EXPECT_EQ(evicted->data, 20);
    EXPECT_NE(t.find(0, 1), nullptr);
    EXPECT_NE(t.find(0, 3), nullptr);
}

TEST(LruTable, PeekDoesNotTouchLru)
{
    LruTable<int> t(1, 2);
    t.insert(0, 1, 10);
    t.insert(0, 2, 20);
    // Peek at tag 1: should NOT protect it.
    EXPECT_NE(t.peek(0, 1), nullptr);
    auto evicted = t.insert(0, 3, 30);
    ASSERT_TRUE(evicted.has_value());
    EXPECT_EQ(evicted->tag, 1u);
}

TEST(LruTable, FindWithoutTouch)
{
    LruTable<int> t(1, 2);
    t.insert(0, 1, 10);
    t.insert(0, 2, 20);
    EXPECT_NE(t.find(0, 1, /*touch=*/false), nullptr);
    auto evicted = t.insert(0, 3, 30);
    ASSERT_TRUE(evicted.has_value());
    EXPECT_EQ(evicted->tag, 1u);
}

TEST(LruTable, EraseReturnsPayload)
{
    LruTable<int> t(2, 2);
    t.insert(1, 5, 55);
    auto removed = t.erase(1, 5);
    ASSERT_TRUE(removed.has_value());
    EXPECT_EQ(*removed, 55);
    EXPECT_EQ(t.find(1, 5), nullptr);
    EXPECT_FALSE(t.erase(1, 5).has_value());
}

TEST(LruTable, VictimTagTracksLru)
{
    LruTable<int> t(1, 3);
    EXPECT_FALSE(t.victimTag(0).has_value()); // free ways remain
    t.insert(0, 1, 0);
    t.insert(0, 2, 0);
    t.insert(0, 3, 0);
    EXPECT_EQ(t.victimTag(0).value(), 1u);
    t.find(0, 1);
    EXPECT_EQ(t.victimTag(0).value(), 2u);
}

TEST(LruTable, SetsAreIndependent)
{
    LruTable<int> t(4, 1);
    for (uint64_t s = 0; s < 4; ++s)
        t.insert(s, 100 + s, int(s));
    for (uint64_t s = 0; s < 4; ++s) {
        ASSERT_NE(t.find(s, 100 + s), nullptr);
        EXPECT_EQ(*t.find(s, 100 + s), int(s));
    }
    // Inserting into set 0 never disturbs set 1.
    t.insert(0, 999, -1);
    EXPECT_NE(t.find(1, 101), nullptr);
}

TEST(LruTable, ForEachVisitsAllValid)
{
    LruTable<int> t(2, 2);
    t.insert(0, 1, 10);
    t.insert(1, 2, 20);
    t.insert(1, 3, 30);
    std::set<uint64_t> tags;
    int sum = 0;
    t.forEach([&](uint64_t, uint64_t tag, int &v) {
        tags.insert(tag);
        sum += v;
    });
    EXPECT_EQ(tags.size(), 3u);
    EXPECT_EQ(sum, 60);
}

TEST(LruTable, ForEachInSetMatchesForEachPerSet)
{
    // Random inserts and erases leave holes in arbitrary ways; each
    // set's scan must be exactly forEach's entries of that set, in
    // forEach's order.
    LruTable<int> t(16, 4);
    Rng rng(7);
    for (int i = 0; i < 400; ++i) {
        uint64_t set = rng.below(t.sets());
        uint64_t tag = rng.below(12);
        if (rng.below(4) == 0)
            t.erase(set, tag);
        else
            t.insert(set, tag, i);
    }
    using Visit = std::pair<uint64_t, int>;
    std::map<uint64_t, std::vector<Visit>> all;
    t.forEach([&](uint64_t set, uint64_t tag, int &v) {
        all[set].push_back({tag, v});
    });
    size_t visited = 0;
    for (uint64_t set = 0; set < t.sets(); ++set) {
        std::vector<Visit> one;
        t.forEachInSet(set, [&](uint64_t tag, int &v) {
            one.push_back({tag, v});
        });
        EXPECT_EQ(one, all[set]) << "set " << set;
        visited += one.size();
    }
    EXPECT_EQ(visited, t.occupancy());
    EXPECT_GT(visited, 0u);
    EXPECT_LT(visited, t.capacity()); // the erases left holes

    // Way order, not recency: a set fills its free ways first to last,
    // and a refilled hole is visited where its way sits.
    LruTable<int> s(2, 4);
    for (uint64_t tag : {30, 10, 20})
        s.insert(1, tag, 0);
    s.erase(1, 10);
    s.insert(1, 40, 0);
    s.find(1, 30); // touching LRU state must not reorder the scan
    std::vector<uint64_t> order;
    s.forEachInSet(1, [&](uint64_t tag, int &) { order.push_back(tag); });
    EXPECT_EQ(order, (std::vector<uint64_t>{30, 40, 20}));
}

TEST(LruTable, ClearEmptiesEverything)
{
    LruTable<int> t(2, 2);
    t.insert(0, 1, 1);
    t.insert(1, 2, 2);
    t.clear();
    EXPECT_EQ(t.occupancy(), 0u);
    EXPECT_EQ(t.find(0, 1), nullptr);
}

TEST(LruTable, FullyAssociativeSingleSet)
{
    LruTable<int> t(1, 8);
    for (int i = 0; i < 8; ++i)
        t.insert(0, 1000 + i, i);
    EXPECT_EQ(t.occupancy(), 8u);
    auto evicted = t.insert(0, 2000, 99);
    ASSERT_TRUE(evicted.has_value());
    EXPECT_EQ(evicted->tag, 1000u);
}

/**
 * Property test: the table must agree with a reference model (per-set
 * map + recency list) across thousands of random operations.
 */
TEST(LruTableProperty, MatchesReferenceModel)
{
    constexpr size_t sets = 4, ways = 4;
    LruTable<uint64_t> t(sets, ways);

    struct RefSet
    {
        // tag -> value, plus recency order (front = LRU).
        std::map<uint64_t, uint64_t> data;
        std::vector<uint64_t> order;

        void
        touch(uint64_t tag)
        {
            auto it = std::find(order.begin(), order.end(), tag);
            if (it != order.end())
                order.erase(it);
            order.push_back(tag);
        }
    };
    RefSet ref[sets];
    Rng rng(1234);

    for (int step = 0; step < 20000; ++step) {
        uint64_t set = rng.below(sets);
        uint64_t tag = rng.below(10); // small space forces conflicts
        uint64_t op = rng.below(3);
        RefSet &r = ref[set];

        if (op == 0) { // insert
            uint64_t val = rng.next();
            auto evicted = t.insert(set, tag, val);
            if (r.data.count(tag)) {
                EXPECT_FALSE(evicted.has_value());
                r.data[tag] = val;
                r.touch(tag);
            } else if (r.data.size() < ways) {
                EXPECT_FALSE(evicted.has_value());
                r.data[tag] = val;
                r.touch(tag);
            } else {
                ASSERT_TRUE(evicted.has_value());
                uint64_t victim = r.order.front();
                EXPECT_EQ(evicted->tag, victim);
                EXPECT_EQ(evicted->data, r.data[victim]);
                r.data.erase(victim);
                r.order.erase(r.order.begin());
                r.data[tag] = val;
                r.touch(tag);
            }
        } else if (op == 1) { // find
            uint64_t *got = t.find(set, tag);
            if (r.data.count(tag)) {
                ASSERT_NE(got, nullptr);
                EXPECT_EQ(*got, r.data[tag]);
                r.touch(tag);
            } else {
                EXPECT_EQ(got, nullptr);
            }
        } else { // erase
            auto got = t.erase(set, tag);
            if (r.data.count(tag)) {
                ASSERT_TRUE(got.has_value());
                EXPECT_EQ(*got, r.data[tag]);
                r.data.erase(tag);
                r.order.erase(std::find(r.order.begin(), r.order.end(),
                                        tag));
            } else {
                EXPECT_FALSE(got.has_value());
            }
        }
        ASSERT_EQ(t.occupancy(),
                  ref[0].data.size() + ref[1].data.size()
                      + ref[2].data.size() + ref[3].data.size());
    }
}

TEST(LruTableDeath, BadSetPanics)
{
    LruTable<int> t(2, 2);
    EXPECT_DEATH(t.find(2, 0), "out of range");
}

} // namespace
} // namespace gaze
