// Unit tests of the online monitor's standalone pieces (the integration
// behaviour is covered against a trained pipeline in test_detector.cpp).
#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "core/monitor.hpp"
#include "util/rng.hpp"

namespace misuse::core {
namespace {

TEST(TrendDetector, QuietBeforeTwoFullWindows) {
  TrendDetector trend(4, 0.5);
  for (int i = 0; i < 7; ++i) {
    EXPECT_FALSE(trend.push(1.0)) << "at step " << i;
  }
}

TEST(TrendDetector, NoAlarmOnFlatStream) {
  TrendDetector trend(4, 0.5);
  for (int i = 0; i < 50; ++i) EXPECT_FALSE(trend.push(0.4));
}

TEST(TrendDetector, FiresOnSustainedDrop) {
  TrendDetector trend(4, 0.5);
  for (int i = 0; i < 8; ++i) trend.push(0.8);
  bool fired = false;
  for (int i = 0; i < 4; ++i) fired |= trend.push(0.1);  // mean halves and more
  EXPECT_TRUE(fired);
}

TEST(TrendDetector, IgnoresSingleOutlier) {
  TrendDetector trend(4, 0.5);
  for (int i = 0; i < 8; ++i) trend.push(0.8);
  EXPECT_FALSE(trend.push(0.01));  // one bad step can't halve a 4-mean
  for (int i = 0; i < 3; ++i) EXPECT_FALSE(trend.push(0.8));
}

TEST(TrendDetector, RecoversAfterDrop) {
  TrendDetector trend(3, 0.5);
  for (int i = 0; i < 6; ++i) trend.push(0.9);
  for (int i = 0; i < 3; ++i) trend.push(0.1);  // fires somewhere in here
  // After the stream climbs back and stays, no more alarms.
  bool late_alarm = false;
  for (int i = 0; i < 12; ++i) {
    const bool fired = trend.push(0.9);
    if (i >= 6) late_alarm |= fired;
  }
  EXPECT_FALSE(late_alarm);
}

TEST(TrendDetector, DropThresholdIsRelative) {
  // 30% drop must not trigger a 50% detector but must trigger a 20% one.
  TrendDetector loose(4, 0.5);
  TrendDetector tight(4, 0.2);
  bool loose_fired = false, tight_fired = false;
  for (int i = 0; i < 8; ++i) {
    loose.push(1.0);
    tight.push(1.0);
  }
  for (int i = 0; i < 4; ++i) {
    loose_fired |= loose.push(0.7);
    tight_fired |= tight.push(0.7);
  }
  EXPECT_FALSE(loose_fired);
  EXPECT_TRUE(tight_fired);
}

TEST(TrendDetector, ResetClearsHistory) {
  TrendDetector trend(3, 0.5);
  for (int i = 0; i < 6; ++i) trend.push(0.9);
  trend.reset();
  // Fresh start: needs two full windows again before it can fire.
  for (int i = 0; i < 5; ++i) EXPECT_FALSE(trend.push(0.01));
}

TEST(TrendDetector, ZeroBaselineNeverFires) {
  TrendDetector trend(3, 0.5);
  for (int i = 0; i < 20; ++i) EXPECT_FALSE(trend.push(0.0));
}

TEST(TrendDetector, BoundedHistoryMatchesFullHistoryOnLongStream) {
  // The detector keeps only the last two windows; over a long stream it
  // must fire exactly where a detector summing the same windows out of
  // the full history fires.
  for (const std::size_t window : {1u, 3u, 8u}) {
    TrendDetector trend(window, 0.3);
    std::vector<double> all;
    Rng rng(window);
    std::size_t fired = 0;
    for (int i = 0; i < 2000; ++i) {
      const double value = (i / 40) % 2 == 0 ? rng.uniform(0.5, 1.0) : rng.uniform(0.0, 0.4);
      all.push_back(value);
      bool want = false;
      if (all.size() >= 2 * window) {
        const auto end = all.end();
        const auto w = static_cast<std::ptrdiff_t>(window);
        const double recent = std::accumulate(end - w, end, 0.0) / static_cast<double>(window);
        const double previous =
            std::accumulate(end - 2 * w, end - w, 0.0) / static_cast<double>(window);
        want = previous > 0.0 && recent < previous * (1.0 - 0.3);
      }
      ASSERT_EQ(trend.push(value), want) << "window " << window << ", value " << i;
      fired += want ? 1 : 0;
    }
    EXPECT_GT(fired, 0u);
  }
}

}  // namespace
}  // namespace misuse::core
