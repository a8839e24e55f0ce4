#include <gtest/gtest.h>

#include <functional>
#include <string>

#include "common/json.h"
#include "common/rng.h"

namespace popdb {
namespace {

class FuzzTest : public ::testing::TestWithParam<int> {};

/// parse → WriteTo → parse fuzz over random writer-built documents: the
/// wire protocol and the dist subplan encoding both rely on re-serialized
/// JSON being a semantic fixpoint.
TEST_P(FuzzTest, JsonReserializationIsAFixpoint) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 2654435761u + 31337);
  for (int round = 0; round < 20; ++round) {
    JsonWriter w;
    // Random tree, scalars past depth 5.
    std::function<void(int)> emit = [&](int depth) {
      switch (depth >= 5 ? rng.UniformInt(0, 3) : rng.UniformInt(0, 5)) {
        case 0:
          w.Null();
          break;
        case 1:
          w.Int(rng.UniformInt(-1000000, 1000000));
          break;
        case 2:
          w.Double((rng.UniformDouble() - 0.5) * 1e12);
          break;
        case 3: {
          std::string s;
          for (int64_t i = rng.UniformInt(0, 6); i > 0; --i) {
            s += static_cast<char>(rng.UniformInt(1, 126));
          }
          w.String(s);
          break;
        }
        case 4: {
          w.BeginArray();
          for (int64_t i = rng.UniformInt(0, 3); i > 0; --i) {
            emit(depth + 1);
          }
          w.EndArray();
          break;
        }
        default: {
          w.BeginObject();
          for (int64_t i = rng.UniformInt(0, 3); i > 0; --i) {
            w.Key("f" + std::to_string(i));
            emit(depth + 1);
          }
          w.EndObject();
          break;
        }
      }
    };
    emit(0);
    Result<JsonValue> first = JsonParse(w.str());
    ASSERT_TRUE(first.ok())
        << "seed=" << GetParam() << " round=" << round << ": " << w.str()
        << ": " << first.status().ToString();
    const std::string canonical = first.value().ToJsonString();
    Result<JsonValue> second = JsonParse(canonical);
    ASSERT_TRUE(second.ok())
        << "seed=" << GetParam() << " round=" << round << ": " << canonical;
    EXPECT_EQ(canonical, second.value().ToJsonString())
        << "seed=" << GetParam() << " round=" << round;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzTest, ::testing::Range(0, 25));

}  // namespace
}  // namespace popdb
