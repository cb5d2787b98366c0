#include "perf/modelio.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "common/contracts.hpp"
#include "mutate.hpp"

namespace hslb::perf {
namespace {

TEST(ModelIo, RoundTripPreservesValues) {
  std::vector<NamedModel> models{
      {"atm", Model{27459.7, 1.93438e-4, 1.2285, 43.7318}, 1, 1664},
      {"ocn", Model{7649.0, 0.0, 1.0, 45.6145}, 2, 768},
  };
  const auto loaded = models_from_csv(models_to_csv(models));
  ASSERT_EQ(loaded.size(), 2u);
  EXPECT_EQ(loaded[0].task, "atm");
  EXPECT_DOUBLE_EQ(loaded[0].model.a, models[0].model.a);
  EXPECT_DOUBLE_EQ(loaded[0].model.b, models[0].model.b);
  EXPECT_DOUBLE_EQ(loaded[0].model.c, models[0].model.c);
  EXPECT_DOUBLE_EQ(loaded[0].model.d, models[0].model.d);
  EXPECT_EQ(loaded[0].max_nodes, 1664);
  EXPECT_EQ(loaded[1].min_nodes, 2);
}

TEST(ModelIo, RangeColumnsOptional) {
  const auto loaded =
      models_from_csv("task,a,b,c,d\nx,10.5,0,1,2.5\n");
  ASSERT_EQ(loaded.size(), 1u);
  EXPECT_DOUBLE_EQ(loaded[0].model.a, 10.5);
  EXPECT_EQ(loaded[0].min_nodes, 1);
  EXPECT_EQ(loaded[0].max_nodes, 0);
}

TEST(ModelIo, InvalidModelsAndDuplicateNamesRejected) {
  for (const char* rows :
       {"x,-1,0,1,0", "x,100,0,nan,1", "x,inf,0,1,0", "x,100,inf,1,0",
        "x,100,0,1,inf", "x,100,0,-inf,1", "x,1,0,1,0\nx,2,0,1,0"}) {
    EXPECT_THROW(models_from_csv(std::string("task,a,b,c,d\n") + rows + "\n"),
                 ContractViolation)
        << rows;
  }
}

// Seeded mutation fuzz: every mutant of a valid file either throws or
// yields models that pass Model::valid().
TEST(ModelIo, MutatedFilesThrowOrYieldValidModels) {
  const std::string valid = models_to_csv(
      {{"atm", Model{27459.7, 1.93438e-4, 1.2285, 43.7318}, 1, 1664},
       {"ocn", Model{7649.0, 0.0, 1.0, 45.6145}, 2, 768}});
  Rng rng(20261018);
  std::size_t accepted = 0;
  for (int i = 0; i < 2000; ++i) {
    const std::string text = fuzz::mutate(valid, ",\n", rng);
    try {
      for (const auto& m : models_from_csv(text))
        EXPECT_TRUE(m.model.valid()) << text;
      ++accepted;
    } catch (const ContractViolation&) {
    } catch (const std::invalid_argument&) {
    }
  }
  EXPECT_GT(accepted, 0u);
}

TEST(ModelIo, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/hslb_models_test.csv";
  std::vector<NamedModel> models{{"ice", Model{8406.7, 0.0, 1.0, 12.47}, 1, 0}};
  save_models(path, models);
  const auto loaded = load_models(path);
  ASSERT_EQ(loaded.size(), 1u);
  EXPECT_DOUBLE_EQ(loaded[0].model.d, 12.47);
}

TEST(ModelIo, MissingColumnRejected) {
  EXPECT_THROW(models_from_csv("task,a,b,c\nx,1,0,1\n"), ContractViolation);
}

}  // namespace
}  // namespace hslb::perf
