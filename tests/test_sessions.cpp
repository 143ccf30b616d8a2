#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "sessions/store.hpp"
#include "sessions/vocab.hpp"

namespace misuse {
namespace {

TEST(Vocab, InternAssignsSequentialIds) {
  ActionVocab v;
  EXPECT_EQ(v.intern("ActionSearchUser"), 0);
  EXPECT_EQ(v.intern("ActionDeleteUser"), 1);
  EXPECT_EQ(v.intern("ActionSearchUser"), 0);  // idempotent
  EXPECT_EQ(v.size(), 2u);
}

TEST(Vocab, FindWithoutInterning) {
  ActionVocab v;
  v.intern("A");
  EXPECT_TRUE(v.find("A").has_value());
  EXPECT_FALSE(v.find("B").has_value());
  EXPECT_EQ(v.size(), 1u);
}

TEST(Vocab, NameLookup) {
  ActionVocab v;
  const int id = v.intern("ActionResetPwdUnlock");
  EXPECT_EQ(v.name(id), "ActionResetPwdUnlock");
}

TEST(Vocab, SaveLoadRoundTrip) {
  ActionVocab v;
  v.intern("X");
  v.intern("Y");
  std::stringstream buf;
  BinaryWriter w(buf);
  v.save(w);
  BinaryReader r(buf);
  const ActionVocab loaded = ActionVocab::load(r);
  EXPECT_EQ(loaded.size(), 2u);
  EXPECT_EQ(loaded.find("Y"), 1);
  EXPECT_EQ(loaded.name(0), "X");
}

SessionStore make_store(std::initializer_list<std::vector<int>> sessions, std::size_t vocab = 10) {
  ActionVocab v;
  for (std::size_t i = 0; i < vocab; ++i) v.intern(std::string("A").append(std::to_string(i)));
  SessionStore store(std::move(v));
  std::uint64_t id = 0;
  for (const auto& actions : sessions) {
    Session s;
    s.id = ++id;
    s.user = static_cast<std::uint32_t>(id % 3);
    s.actions = actions;
    store.add(std::move(s));
  }
  return store;
}

TEST(Store, BasicAccounting) {
  const auto store = make_store({{0, 1, 2}, {3, 4}});
  EXPECT_EQ(store.size(), 2u);
  EXPECT_EQ(store.at(0).length(), 3u);
  EXPECT_EQ(store.at(1).actions[1], 4);
}

TEST(Store, DistinctUsers) {
  const auto store = make_store({{0}, {1}, {2}, {3}});  // users 1,2,0,1
  EXPECT_EQ(store.distinct_users(), 3u);
}

TEST(Store, LengthSummary) {
  const auto store = make_store({{0, 1}, {0, 1, 2, 3}, {0, 1, 2, 3, 4, 5}});
  const Summary s = store.length_summary();
  EXPECT_EQ(s.count, 3u);
  EXPECT_DOUBLE_EQ(s.mean, 4.0);
  EXPECT_DOUBLE_EQ(s.min, 2.0);
  EXPECT_DOUBLE_EQ(s.max, 6.0);
}

TEST(Store, FilterShortSessions) {
  auto store = make_store({{0}, {0, 1}, {}, {0, 1, 2}});
  const std::size_t removed = store.filter_short_sessions(2);
  EXPECT_EQ(removed, 2u);
  EXPECT_EQ(store.size(), 2u);
  for (const auto& s : store.all()) EXPECT_GE(s.length(), 2u);
}

TEST(Store, SplitProportionsAndDisjointness) {
  std::initializer_list<std::vector<int>> empty_init = {};
  (void)empty_init;
  ActionVocab v;
  v.intern("A");
  SessionStore store(std::move(v));
  for (int i = 0; i < 1000; ++i) {
    Session s;
    s.id = static_cast<std::uint64_t>(i);
    s.actions = {0, 0};
    store.add(std::move(s));
  }
  Rng rng(1);
  const Split split = store.split_70_15_15(rng);
  EXPECT_EQ(split.total(), 1000u);
  EXPECT_EQ(split.train.size(), 700u);
  EXPECT_EQ(split.valid.size(), 150u);
  EXPECT_EQ(split.test.size(), 150u);

  std::set<std::size_t> seen;
  for (const auto& part : {split.train, split.valid, split.test}) {
    for (std::size_t i : part) {
      EXPECT_TRUE(seen.insert(i).second) << "index " << i << " appears twice";
      EXPECT_LT(i, 1000u);
    }
  }
  EXPECT_EQ(seen.size(), 1000u);
}

TEST(Store, SplitOverSubsetOnlyUsesGivenIndices) {
  const auto store = make_store({{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}});
  Rng rng(2);
  const Split split = store.split(rng, 0.6, 0.2, {0, 2, 4});
  EXPECT_EQ(split.total(), 3u);
  std::set<std::size_t> all;
  for (const auto& part : {split.train, split.valid, split.test}) {
    all.insert(part.begin(), part.end());
  }
  EXPECT_EQ(all, (std::set<std::size_t>{0, 2, 4}));
}

TEST(Store, SplitIsSeedDeterministic) {
  const auto store = make_store({{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 6}});
  Rng rng1(7), rng2(7);
  const Split a = store.split_70_15_15(rng1);
  const Split b = store.split_70_15_15(rng2);
  EXPECT_EQ(a.train, b.train);
  EXPECT_EQ(a.valid, b.valid);
  EXPECT_EQ(a.test, b.test);
}

}  // namespace
}  // namespace misuse
