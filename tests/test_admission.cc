// AdmissionController: bounded window, exact shedding, and queue-depth
// gauge exactness under contention.

#include "serve/admission.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "telemetry/metrics.h"

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
  EXPECT_EQ(controller.InFlight(), 4u);

  Status shed = controller.TryAdmit();
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.code(), StatusCode::kResourceExhausted);
  // A failed admit must not leak a slot.
  EXPECT_EQ(controller.InFlight(), 4u);

  controller.Finish();
  EXPECT_EQ(controller.InFlight(), 3u);
  EXPECT_TRUE(controller.TryAdmit().ok());

  AdmissionController::Stats stats = controller.GetStats();
  EXPECT_EQ(stats.admitted, 5u);
  EXPECT_EQ(stats.shed, 1u);
}

// The old serve.queue_depth pattern published Set(fetch_add(...)+-1):
// two threads could interleave their atomic bumps and gauge stores so
// the LAST store carried a STALE depth, skewing the gauge until the next
// query. The admission window publishes with the CAS-loop Gauge::Add,
// which this hammer pins down: after balanced admit/finish traffic from
// many threads the gauge must read exactly its starting value - with the
// racy pattern this test fails within a handful of runs.
TEST(AdmissionControllerTest, QueueDepthGaugeIsExactUnderContention) {
  telemetry::Gauge* depth =
      telemetry::MetricRegistry::Global().GetGauge("serve.queue_depth");
  const double before = depth->Value();

  AdmissionOptions options;
  options.capacity = 1u << 30;  // never shed: every Add(+1) gets an Add(-1)
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

  EXPECT_EQ(controller.InFlight(), 0u);
  EXPECT_EQ(depth->Value(), before);
  EXPECT_EQ(controller.GetStats().admitted,
            static_cast<uint64_t>(kThreads) * kRounds);
}

}  // namespace
}  // namespace kgov::serve
