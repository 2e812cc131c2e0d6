#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "json_check.hpp"

namespace qv::obs {
namespace {

TEST(Tracer, DisabledByDefault) {
  Tracer t;
  EXPECT_FALSE(t.enabled(TraceCategory::kSim));
  EXPECT_FALSE(t.enabled(TraceCategory::kSched));
  t.enable_all();
  EXPECT_TRUE(t.enabled(TraceCategory::kSim));
  EXPECT_TRUE(t.enabled(TraceCategory::kRuntime));
  t.set_mask(trace_bit(TraceCategory::kSched));
  EXPECT_TRUE(t.enabled(TraceCategory::kSched));
  EXPECT_FALSE(t.enabled(TraceCategory::kSim));
}

TEST(Tracer, RecordsEventsInOrder) {
  Tracer t(/*capacity=*/8);
  t.enable_all();
  t.instant(TraceCategory::kSched, "drop", 100, /*tid=*/2, "rank", 7);
  t.complete(TraceCategory::kSim, "dispatch", 200, /*dur=*/50);
  t.counter(TraceCategory::kSched, "qdepth", 300, /*value=*/4, /*tid=*/2);

  const auto events = t.events();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_STREQ(events[0].name, "drop");
  EXPECT_EQ(events[0].ph, 'i');
  EXPECT_EQ(events[0].ts, 100);
  EXPECT_EQ(events[0].tid, 2u);
  EXPECT_EQ(events[0].arg, 7u);
  EXPECT_EQ(events[1].ph, 'X');
  EXPECT_EQ(events[1].dur, 50);
  EXPECT_EQ(events[2].ph, 'C');
  EXPECT_EQ(events[2].arg, 4u);
  EXPECT_EQ(t.dropped(), 0u);
}

TEST(Tracer, RingOverwritesOldestAndCountsDrops) {
  Tracer t(/*capacity=*/4);
  t.enable_all();
  for (int i = 0; i < 10; ++i) {
    t.instant(TraceCategory::kSched, "e", /*ts=*/i);
  }
  EXPECT_EQ(t.size(), 4u);
  EXPECT_EQ(t.dropped(), 6u);
  const auto events = t.events();
  ASSERT_EQ(events.size(), 4u);
  // The tail of the run survives, oldest first.
  EXPECT_EQ(events[0].ts, 6);
  EXPECT_EQ(events[3].ts, 9);
}

TEST(Tracer, InternPinsAndDedupes) {
  Tracer t;
  const char* a = t.intern(std::string("port sw0->h1"));
  const char* b = t.intern(std::string("port sw0->h1"));
  const char* c = t.intern(std::string("port sw0->h2"));
  EXPECT_EQ(a, b);  // same pointer: deduped
  EXPECT_NE(a, c);
  EXPECT_STREQ(a, "port sw0->h1");
}

TEST(Tracer, ClearResetsButKeepsConfig) {
  Tracer t(4);
  t.enable_all();
  t.instant(TraceCategory::kSim, "e", 1);
  t.clear();
  EXPECT_EQ(t.size(), 0u);
  EXPECT_EQ(t.dropped(), 0u);
  EXPECT_TRUE(t.enabled(TraceCategory::kSim));
}

TEST(Tracer, JsonIsValidChromeTrace) {
  Tracer t;
  t.enable_all();
  t.set_thread_name(1, "port sw0->h1");
  t.instant(TraceCategory::kSched, "drop", microseconds(2), 1, "rank", 9);
  t.complete(TraceCategory::kSim, "dispatch", microseconds(5),
             /*dur=*/1500);
  t.counter(TraceCategory::kSched, "qdepth", microseconds(7), 3, 1);

  const std::string json = t.to_json();
  EXPECT_TRUE(testing::is_valid_json(json)) << json;
  // Chrome trace-event structure.
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("port sw0->h1"), std::string::npos);
  // Instants carry a scope, completes a duration, counters their value.
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"s\":\"t\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"dur\":1.5"), std::string::npos);  // ns -> us
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(json.find("\"rank\":9"), std::string::npos);
  // Timestamps are microseconds in the export.
  EXPECT_NE(json.find("\"ts\":2"), std::string::npos);
}

TEST(Tracer, JsonReportsDroppedEvents) {
  Tracer t(2);
  t.enable_all();
  for (int i = 0; i < 5; ++i) t.instant(TraceCategory::kSim, "e", i);
  const std::string json = t.to_json();
  EXPECT_TRUE(testing::is_valid_json(json)) << json;
  EXPECT_NE(json.find("\"dropped_events\":3"), std::string::npos);
}

TEST(Tracer, EmptyTraceStillValid) {
  Tracer t;
  const std::string json = t.to_json();
  EXPECT_TRUE(testing::is_valid_json(json)) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
}

// The exact trace.json bytes, pinned so the writer can be rewritten
// without changing one output byte. Covers a wrapped ring, escaped
// lane and event names, every event shape, and the timestamp edges of
// the fixed three-decimal microsecond format.
TEST(Tracer, JsonBytesPinned) {
  Tracer t(/*capacity=*/4);
  t.enable_all();
  t.set_thread_name(2, "port \"sw0\"->h1");
  t.set_thread_name(1, "lane\\1\ttab");
  const char* odd = t.intern("say \"hi\" \\ \x01 bye");
  // Overwritten by the wrap: two dropped events.
  t.instant(TraceCategory::kSim, "lost", 5);
  t.instant(TraceCategory::kSim, "lost", 6);
  t.instant(TraceCategory::kSched, odd, /*ts=*/0, /*tid=*/2, "rank", 7);
  t.instant(TraceCategory::kQvisor, "bare", /*ts=*/999);
  t.complete(TraceCategory::kSim, "dispatch", /*ts=*/1000, /*dur=*/250,
             /*tid=*/1);
  t.counter(TraceCategory::kRuntime, "qdepth", /*ts=*/123456789,
            /*value=*/42, /*tid=*/2);

  const std::string expected =
      R"({"displayTimeUnit":"ms","traceEvents":[)"
      R"({"ph":"M","pid":1,"tid":0,"name":"process_name","args":{"name":"qvisor"}},)"
      R"({"ph":"M","pid":1,"tid":1,"name":"thread_name","args":{"name":"lane\\1\ttab"}},)"
      R"({"ph":"M","pid":1,"tid":2,"name":"thread_name","args":{"name":"port \"sw0\"->h1"}},)"
      R"({"name":"say \"hi\" \\ \u0001 bye","cat":"sched","ph":"i","pid":1,"tid":2,"ts":0.000,"s":"t","args":{"rank":7}},)"
      R"({"name":"bare","cat":"qvisor","ph":"i","pid":1,"tid":0,"ts":0.999,"s":"t"},)"
      R"({"name":"dispatch","cat":"sim","ph":"X","pid":1,"tid":1,"ts":1.000,"dur":0.250},)"
      R"({"name":"qdepth","cat":"runtime","ph":"C","pid":1,"tid":2,"ts":123456.789,"args":{"value":42}})"
      R"(],"otherData":{"dropped_events":2}})"
      "\n";
  EXPECT_EQ(t.to_json(), expected);
  EXPECT_TRUE(testing::is_valid_json(t.to_json()));
}

}  // namespace
}  // namespace qv::obs
