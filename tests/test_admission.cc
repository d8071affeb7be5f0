// AdmissionController: bounded window, exact shedding, and an exact
// in-flight count under contention.

#include "serve/admission.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

namespace kgov::serve {
namespace {

AdmissionOptions SmallOptions() {
  AdmissionOptions options;
  options.capacity = 4;
  return options;
}

TEST(AdmissionOptionsTest, ValidateNamesTheOffendingField) {
  struct Case {
    void (*mutate)(AdmissionOptions&);
    const char* field;
  };
  const Case cases[] = {
      {[](AdmissionOptions& o) { o.capacity = 0; }, "capacity"},
  };
  for (const Case& c : cases) {
    AdmissionOptions options;
    c.mutate(options);
    Status status = options.Validate();
    ASSERT_FALSE(status.ok()) << c.field;
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(status.message().find(c.field), std::string::npos)
        << status.message();
  }
  EXPECT_TRUE(AdmissionOptions{}.Validate().ok());
}

TEST(AdmissionControllerTest, ShedsExactlyBeyondCapacityAndRecovers) {
  AdmissionController controller(SmallOptions());
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(controller.TryAdmit().ok()) << i;
  }
  EXPECT_EQ(controller.GetStats().in_flight, 4u);

  Status shed = controller.TryAdmit();
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.code(), StatusCode::kResourceExhausted);
  // A failed admit must not leak a slot.
  EXPECT_EQ(controller.GetStats().in_flight, 4u);

  controller.Finish();
  EXPECT_EQ(controller.GetStats().in_flight, 3u);
  EXPECT_TRUE(controller.TryAdmit().ok());

  AdmissionController::Stats stats = controller.GetStats();
  EXPECT_EQ(stats.admitted, 5u);
  EXPECT_EQ(stats.shed, 1u);
}

// In-flight is the window's own word, read through GetStats(): after
// balanced admit/finish traffic from many threads it must read exactly 0,
// and every admit must be counted.
TEST(AdmissionControllerTest, InFlightIsExactUnderContention) {
  AdmissionOptions options;
  options.capacity = 1u << 30;  // never shed: every admit gets a Finish
  AdmissionController controller(options);

  constexpr int kThreads = 8;
  constexpr int kRounds = 5000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&]() {
      for (int r = 0; r < kRounds; ++r) {
        EXPECT_TRUE(controller.TryAdmit().ok());
        controller.Finish();
      }
    });
  }
  for (std::thread& t : threads) t.join();

  const AdmissionController::Stats stats = controller.GetStats();
  EXPECT_EQ(stats.in_flight, 0u);
  EXPECT_EQ(stats.admitted, static_cast<uint64_t>(kThreads) * kRounds);
  EXPECT_EQ(stats.shed, 0u);
}

}  // namespace
}  // namespace kgov::serve
