// Unit tests for the offline weak-memory SC checker and its artifacts.
//
// The recordings here are built by hand, action by action, so every edge
// family (po, rf, mo, fr) and every rejection path is pinned without any
// dependence on real-thread scheduling; two recordings of real native
// runs are checked in under tests/data. End-to-end recordings from live
// native runs are covered by test_native_registers.cpp.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "verify/weakmem/recorder.hpp"
#include "verify/weakmem/sc_checker.hpp"

namespace bprc::weakmem {
namespace {

constexpr auto kLoad = MemAction::Kind::kLoad;
constexpr auto kStore = MemAction::Kind::kStore;
constexpr auto kRmw = MemAction::Kind::kRmw;

/// Appends an action through the recorder (which assigns seq).
void act(WeakMemRecorder& rec, ProcId thread, int loc, MemAction::Kind kind,
         std::uint64_t value, std::uint64_t rf, std::uint64_t mo) {
  MemAction a;
  a.thread = thread;
  a.location = loc;
  a.kind = kind;
  a.order = static_cast<std::uint8_t>(std::memory_order_seq_cst);
  a.value = value;
  a.rf = rf;
  a.mo = mo;
  rec.on_action(a);
}

TEST(WeakMem, EmptyRecordingIsSC) {
  WeakMemRecorder rec(2);
  const SCResult res = check_sc(rec.recording());
  EXPECT_TRUE(res.ok());
}

TEST(WeakMem, MessagePassingIsSC) {
  // T0: W data=42 (v1), W flag=1 (v1).  T1: R flag=1, R data=42.
  // Classic message passing: acyclic, and the SC order must place the
  // data write before the data read.
  WeakMemRecorder rec(2);
  const int data = rec.on_location("data", 0);
  const int flag = rec.on_location("flag", 0);
  act(rec, 0, data, kStore, 42, 0, 1);
  act(rec, 0, flag, kStore, 1, 0, 1);
  act(rec, 1, flag, kLoad, 1, 1, 0);
  act(rec, 1, data, kLoad, 42, 1, 0);
  const SCResult res = check_sc(rec.recording());
  EXPECT_TRUE(res.ok()) << res.witness;
  ASSERT_EQ(res.order.size(), 4u);
}

TEST(WeakMem, StoreBufferingCycleIsFlagged) {
  // The SB litmus: T0: W x (v1), R y = initial.  T1: W y (v1), R x =
  // initial. Both reads missing both writes is exactly the po ∪ fr cycle.
  WeakMemRecorder rec(2);
  const int x = rec.on_location("x", 0);
  const int y = rec.on_location("y", 0);
  act(rec, 0, x, kStore, 1, 0, 1);
  act(rec, 0, y, kLoad, 0, 0, 0);
  act(rec, 1, y, kStore, 1, 0, 1);
  act(rec, 1, x, kLoad, 0, 0, 0);
  const SCResult res = check_sc(rec.recording());
  EXPECT_TRUE(res.well_formed);
  EXPECT_FALSE(res.sc);
  EXPECT_NE(res.witness.find("cycle"), std::string::npos) << res.witness;
}

TEST(WeakMem, StaleReadAfterRmwChainIsFlagged) {
  // T0: RMW x v1→? ... actually: T1 reads version 0 *after* (in its own
  // program order) reading version 2 — a coherence regression: fr sends
  // the stale read before the first write, rf pulls it after the second.
  WeakMemRecorder rec(2);
  const int x = rec.on_location("x", 0);
  act(rec, 0, x, kStore, 1, 0, 1);
  act(rec, 0, x, kStore, 2, 0, 2);
  act(rec, 1, x, kLoad, 2, 2, 0);
  act(rec, 1, x, kLoad, 0, 0, 0);  // reads initial after seeing v2
  const SCResult res = check_sc(rec.recording());
  EXPECT_TRUE(res.well_formed);
  EXPECT_FALSE(res.sc);
}

TEST(WeakMem, UnflushedStoreIsRejected) {
  WeakMemRecorder rec(1);
  const int x = rec.on_location("x", 0);
  act(rec, 0, x, kStore, 1, 0, 0);  // mo = 0: never flushed
  const SCResult res = check_sc(rec.recording());
  EXPECT_FALSE(res.well_formed);
  EXPECT_NE(res.witness.find("flushed"), std::string::npos) << res.witness;
}

TEST(WeakMem, NonAtomicRmwIsRejected) {
  WeakMemRecorder rec(2);
  const int x = rec.on_location("x", 0);
  act(rec, 0, x, kStore, 1, 0, 1);
  act(rec, 0, x, kStore, 2, 0, 2);
  act(rec, 1, x, kRmw, 3, 0, 3);  // read v0 but wrote v3: lost updates
  const SCResult res = check_sc(rec.recording());
  EXPECT_FALSE(res.well_formed);
  EXPECT_NE(res.witness.find("RMW"), std::string::npos) << res.witness;
}

TEST(WeakMem, ReadValueMismatchIsRejected) {
  WeakMemRecorder rec(2);
  const int x = rec.on_location("x", 7);
  act(rec, 0, x, kStore, 1, 0, 1);
  act(rec, 1, x, kLoad, 9, 1, 0);  // claims rf v1 but value ≠ 1
  const SCResult res = check_sc(rec.recording());
  EXPECT_FALSE(res.well_formed);
}

TEST(WeakMem, PatchMoCompletesABufferedStore) {
  // The broken-relaxed protocol: store recorded with mo = 0, patched
  // when the emulated buffer drains — after which the recording is
  // complete and (in this single-threaded case) SC.
  WeakMemRecorder rec(1);
  const int x = rec.on_location("x", 0);
  MemAction a;
  a.thread = 0;
  a.location = x;
  a.kind = kStore;
  a.value = 5;
  const std::size_t idx = rec.on_action(a);
  rec.patch_mo(0, idx, 1);
  const SCResult res = check_sc(rec.recording());
  EXPECT_TRUE(res.ok()) << res.witness;
}

TEST(WeakMem, ArtifactRoundTripPreservesVerdict) {
  WeakMemRecorder rec(2);
  const int x = rec.on_location("x", 0);
  const int y = rec.on_location("shared y", 3);  // name with a space
  act(rec, 0, x, kStore, 1, 0, 1);
  act(rec, 0, y, kLoad, 3, 0, 0);
  act(rec, 1, y, kStore, 1, 0, 1);
  act(rec, 1, x, kLoad, 0, 0, 0);
  rec.recording().case_name = "unit-sb";
  const SCResult before = check_sc(rec.recording());
  EXPECT_FALSE(before.sc);

  const std::string path = testing::TempDir() + "weakmem_roundtrip.bprc-weakmem";
  ASSERT_TRUE(save_recording(rec.recording(), path));
  EXPECT_TRUE(is_weakmem_artifact(path));

  const auto loaded = load_recording(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->case_name, "unit-sb");
  ASSERT_EQ(loaded->locations.size(), 2u);
  EXPECT_EQ(loaded->locations[1].name, "shared y");
  EXPECT_EQ(loaded->locations[1].initial, 3u);
  EXPECT_EQ(loaded->total_actions(), 4u);

  const SCResult after = check_sc(*loaded);
  EXPECT_EQ(after.sc, before.sc);
  EXPECT_EQ(after.well_formed, before.well_formed);
  EXPECT_EQ(after.witness, before.witness);
  std::remove(path.c_str());
}

TEST(WeakMem, LoadRejectsGarbage) {
  const std::string path = testing::TempDir() + "weakmem_garbage.txt";
  {
    FILE* f = fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    fputs("not a weakmem artifact\n", f);
    fclose(f);
  }
  EXPECT_FALSE(is_weakmem_artifact(path));
  EXPECT_FALSE(load_recording(path).has_value());
  EXPECT_FALSE(load_recording("/nonexistent/nope").has_value());
  std::remove(path.c_str());
}

TEST(WeakMem, HugeDeclaredLocationCountIsRefused) {
  // The count is untrusted input: reserving it would abort the replay
  // (std::bad_alloc) instead of refusing the file.
  const std::string path = testing::TempDir() + "weakmem_huge.bprc-weakmem";
  {
    FILE* f = fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    fputs("bprc-weakmem v1\ncase -\nthreads 1\nlocations 99999999999999999\n"
          "actions 0\nend\n",
          f);
    fclose(f);
  }
  EXPECT_FALSE(load_recording(path).has_value());
  std::remove(path.c_str());
}

TEST(WeakMem, DescribeActionIsReadable) {
  WeakMemRecorder rec(1);
  const int x = rec.on_location("x", 0);
  MemAction a;
  a.thread = 0;
  a.location = x;
  a.kind = kLoad;
  a.order = static_cast<std::uint8_t>(std::memory_order_acquire);
  a.value = 4;
  a.rf = 2;
  rec.on_action(a);
  const std::string s = describe_action(rec.recording(),
                                        rec.recording().logs[0][0]);
  EXPECT_NE(s.find("T0#0"), std::string::npos) << s;
  EXPECT_NE(s.find("x=4"), std::string::npos) << s;
  EXPECT_NE(s.find("acquire"), std::string::npos) << s;
}

TEST(WeakMem, LongSingleThreadHistoryIsSC) {
  // 80,000 alternating store/load actions on one location: a history as
  // deep as a long native run. Loaded artifacts are untrusted input, so
  // the analysis must not recurse per action.
  WeakMemRecorder rec(1);
  const int x = rec.on_location("x", 0);
  for (std::uint64_t v = 1; v <= 40'000; ++v) {
    act(rec, 0, x, kStore, v, 0, v);
    act(rec, 0, x, kLoad, v, v, 0);
  }
  const SCResult res = check_sc(rec.recording());
  EXPECT_TRUE(res.ok()) << res.witness;
  EXPECT_EQ(res.order.size(), 80'000u);
}

/// FNV-1a over the order's ids, eight little-endian bytes each.
std::uint64_t order_hash(const std::vector<std::size_t>& order) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (const std::size_t id : order) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (static_cast<std::uint64_t>(id) >> (8 * byte)) & 0xFF;
      h *= 0x100000001B3ULL;
    }
  }
  return h;
}

// The checked-in recordings pin the analysis's verdicts, witness text and
// SC order; the expected values were produced by the clock-vector and
// Wing–Gong implementation this checker replaced.

TEST(WeakMemFixture, BrokenRelaxedWitnessIsPinned) {
  // Written by `bprc_torture --native-case broken-relaxed --check-sc --n 2`.
  const auto rec = load_recording(std::string(BPRC_TEST_DATA_DIR) +
                                  "/broken-relaxed.bprc-weakmem");
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->total_actions(), 4u);
  const SCResult res = check_sc(*rec);
  EXPECT_TRUE(res.well_formed);
  EXPECT_FALSE(res.sc);
  EXPECT_FALSE(res.coherent);
  EXPECT_TRUE(res.order.empty());
  EXPECT_EQ(res.witness,
            "non-SC execution: happens-before cycle\n"
            "  T0#1 R y=0 rf@v0 (relaxed)\n"
            "  T1#0 W y=1 @v1 (relaxed)\n"
            "  T1#1 R x=0 rf@v0 (relaxed)\n"
            "  T0#0 W x=1 @v1 (relaxed)\n"
            "  T0#1 R y=0 rf@v0 (relaxed)  <- cycle closes here");
}

TEST(WeakMemFixture, ScanStormOrderIsPinned) {
  // A scan-storm run at n=4 with 40 iterations per thread.
  const auto rec = load_recording(std::string(BPRC_TEST_DATA_DIR) +
                                  "/scan-storm-n4.bprc-weakmem");
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->case_name, "scan-storm");
  ASSERT_EQ(rec->total_actions(), 3432u);
  const SCResult res = check_sc(*rec);
  EXPECT_TRUE(res.well_formed);
  EXPECT_TRUE(res.sc);
  EXPECT_TRUE(res.coherent);
  EXPECT_EQ(res.witness, "");
  ASSERT_EQ(res.order.size(), 3432u);
  EXPECT_EQ(order_hash(res.order), 0x3358d96602068f85ULL);
}

}  // namespace
}  // namespace bprc::weakmem
