// Golden engine-outcome table: every query of the TPC-H paper subset
// (plain and parameter-marker, scale 0.002), the marker Q10 selectivity
// sweep and the DMV workload (scale 0.05), each under five POP
// configurations, pinned to the outcome captured at execution batch size 1:
//   - status, a digest of the returned row multiset,
//   - re-optimizations and attempts, total work units,
//   - a digest of every CHECK evaluation (edge set, flavor, site, count,
//     fired),
//   - a digest of the feedback harvested into the cross-query store.
// Every tested batch size must reproduce every field, so a batch of one
// row and a batch of 1024 are the same engine as far as POP can tell. One
// test instance per batch size (named rows<N>, rowsRandom for the seeded
// random size), so a sanitizer run can pick sizes with --gtest_filter.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/string_util.h"
#include "core/pop.h"
#include "tests/test_util.h"

namespace popdb {
namespace {

struct GoldenOutcome {
  const char* label;
  const char* status;
  uint64_t rows;
  int reopts;
  int attempts;
  int64_t work;
  uint64_t checks;
  uint64_t feedback;
};

// Regenerate by running this test at batch size 1 and pasting the table
// it prints on a mismatch, after confirming the change is intended.
constexpr GoldenOutcome kGoldenOutcomes[] = {
    {"tpch/q2@default", "OK", 0x14650fb0739d0383ull, 0, 1, 525, 0x764601ea03f172a7ull, 0x513b9eb7edeb666eull},
    {"tpch/q2m@default", "OK", 0x14650fb0739d0383ull, 0, 1, 525, 0x764601ea03f172a7ull, 0x513b9eb7edeb666eull},
    {"tpch/q3@default", "OK", 0x5b37ed163b835aedull, 0, 1, 3399, 0xca57b75e2c6415baull, 0xfc2b3e992fd09d7bull},
    {"tpch/q3m@default", "OK", 0x5b37ed163b835aedull, 0, 1, 4037, 0x354067512466c08dull, 0xfc2b3e992fd09d7bull},
    {"tpch/q4@default", "OK", 0x2d9b6413b7588bbbull, 0, 1, 3643, 0x14650fb0739d0383ull, 0x2654520a9d41263dull},
    {"tpch/q4m@default", "OK", 0x2d9b6413b7588bbbull, 0, 1, 3643, 0x14650fb0739d0383ull, 0x2654520a9d41263dull},
    {"tpch/q5@default", "OK", 0x00c704335d7e4316ull, 0, 1, 571, 0x247ce5efe6281320ull, 0xe9eab1f3af946a1cull},
    {"tpch/q5m@default", "OK", 0x00c704335d7e4316ull, 0, 1, 571, 0x247ce5efe6281320ull, 0xe9eab1f3af946a1cull},
    {"tpch/q7@default", "OK", 0x1b31b10803a7ea74ull, 0, 1, 687, 0xb0090282d5b6b3acull, 0xf07d7e8a7ea11c44ull},
    {"tpch/q7m@default", "OK", 0x1b31b10803a7ea74ull, 0, 1, 687, 0xb0090282d5b6b3acull, 0xf07d7e8a7ea11c44ull},
    {"tpch/q8@default", "OK", 0x7b7178c68ab8a0fbull, 0, 1, 746, 0xc252314f42276cd3ull, 0x27090d5aad2cf72dull},
    {"tpch/q8m@default", "OK", 0x7b7178c68ab8a0fbull, 0, 1, 1799, 0xdce69449e59b78f8ull, 0xa32e312443a93e3full},
    {"tpch/q9@default", "OK", 0x6a4f6a3cf091d7b5ull, 1, 2, 15500, 0xeb6630c8e218ee69ull, 0x6e59f35eb2a35affull},
    {"tpch/q9m@default", "OK", 0x6a4f6a3cf091d7b5ull, 1, 2, 15500, 0xeb6630c8e218ee69ull, 0x6e59f35eb2a35affull},
    {"tpch/q10@default", "OK", 0xfdca553a62135007ull, 0, 1, 4476, 0x59284311ad0ad26bull, 0x3baabd14d42d2b05ull},
    {"tpch/q10m@default", "OK", 0xfdca553a62135007ull, 1, 2, 4784, 0x4d31afef9e82ddaeull, 0x8ef1b5c1723874dcull},
    {"tpch/q11@default", "OK", 0xa6b11114da1fdbf6ull, 0, 1, 267, 0x867308170b089131ull, 0xc00e0f4a4c0bf966ull},
    {"tpch/q11m@default", "OK", 0xa6b11114da1fdbf6ull, 0, 1, 267, 0x867308170b089131ull, 0xc00e0f4a4c0bf966ull},
    {"tpch/q18@default", "OK", 0x1f7bbc12f087a3e1ull, 0, 1, 17638, 0xc09eb95810f03856ull, 0x5e52362b1100302bull},
    {"tpch/q18m@default", "OK", 0x1f7bbc12f087a3e1ull, 0, 1, 21862, 0xb5a8c882ec428605ull, 0x6253823bc79514e0ull},
    {"tpch/q10m_sel1@default", "OK", 0x49a71fb949be2c7full, 0, 1, 19434, 0xb5a8c882ec428605ull, 0x302d8fdfade6273cull},
    {"tpch/q10m_sel10@default", "OK", 0xba505876c73fd61full, 0, 1, 21579, 0xb5a8c882ec428605ull, 0x331041880366948eull},
    {"tpch/q10m_sel50@default", "OK", 0x3fabed165f16ec4bull, 0, 1, 31177, 0xb5a8c882ec428605ull, 0xa5551f2e2d3cb72cull},
    {"tpch/q10m_sel90@default", "OK", 0x36859ce583814fd7ull, 0, 1, 40857, 0xb5a8c882ec428605ull, 0x1a3e97ba16aa4746ull},
    {"dmv/dmv_q01@default", "OK", 0x14650fb0739d0383ull, 0, 1, 450, 0x09b47d62ac133eeaull, 0x2b1f1b457fb149c9ull},
    {"dmv/dmv_q02@default", "OK", 0x0e19ac10d8d86d2dull, 0, 1, 1016, 0x8f3ba318c3ed6205ull, 0x198f83ec0a28baaeull},
    {"dmv/dmv_q03@default", "OK", 0x14650fb0739d0383ull, 0, 1, 450, 0xe107f246bfc9182full, 0x1a4f7226305ee15bull},
    {"dmv/dmv_q04@default", "OK", 0x14650fb0739d0383ull, 0, 1, 1036, 0x5999780a3fb04f52ull, 0x9a62617edecd50f5ull},
    {"dmv/dmv_q05@default", "OK", 0x14650fb0739d0383ull, 1, 2, 1021, 0xe3fe1a49006bf238ull, 0x493114f48e51bd62ull},
    {"dmv/dmv_q06@default", "OK", 0x14650fb0739d0383ull, 0, 1, 688, 0xe4d63f9174abb209ull, 0x49d871ed754cdf59ull},
    {"dmv/dmv_q07@default", "OK", 0x14650fb0739d0383ull, 0, 1, 614, 0xa255203672e61cc5ull, 0x910a0362e9229676ull},
    {"dmv/dmv_q08@default", "OK", 0x14650fb0739d0383ull, 0, 1, 544, 0xf5989c14ca6d80daull, 0xfbb60fd2d6d3798bull},
    {"dmv/dmv_q09@default", "OK", 0x14650fb0739d0383ull, 0, 1, 500, 0xe9c456c8b88d339aull, 0x653c92d06acd4961ull},
    {"dmv/dmv_q10@default", "OK", 0x14650fb0739d0383ull, 0, 1, 664, 0x7f50978febe86ffaull, 0xbb30ac6678a83dfeull},
    {"dmv/dmv_q11@default", "OK", 0x14650fb0739d0383ull, 0, 1, 560, 0xba7b391426b3f9b6ull, 0x5f7abac555cc6326ull},
    {"dmv/dmv_q12@default", "OK", 0x14650fb0739d0383ull, 0, 1, 1008, 0x3e64f94fe1e0b5f3ull, 0x19dba785c94f932dull},
    {"dmv/dmv_q13@default", "OK", 0x22162ce56ec49529ull, 0, 1, 4196, 0x9acb4ce585a875cdull, 0xf3b069ff0c3ed73bull},
    {"dmv/dmv_q14@default", "OK", 0x923131fb3b28fb07ull, 0, 1, 3997, 0xf0d34ca306efb9b4ull, 0x3799be18a325f1afull},
    {"dmv/dmv_q15@default", "OK", 0x14650fb0739d0383ull, 0, 1, 450, 0xb66777638861a648ull, 0x10f7592a72f2f833ull},
    {"dmv/dmv_q16@default", "OK", 0x482900e0ef190ef2ull, 1, 2, 3353, 0x3e587f56eb72b6beull, 0x06c92321c542f0a6ull},
    {"dmv/dmv_q17@default", "OK", 0x14650fb0739d0383ull, 0, 1, 1685, 0x925d1e48dd076a43ull, 0x870305e30c2d33faull},
    {"dmv/dmv_q18@default", "OK", 0xa91fb49b6a1e0dd5ull, 2, 3, 3164, 0x1dd1df7089972bf3ull, 0xf9dd98ac783bee7cull},
    {"dmv/dmv_q19@default", "OK", 0x14650fb0739d0383ull, 0, 1, 450, 0xc6fb3f97d88cc252ull, 0x3313ea909bdfcd09ull},
    {"dmv/dmv_q20@default", "OK", 0x14650fb0739d0383ull, 1, 2, 1879, 0x50a9d39e5281f4a0ull, 0xe0ef1971f774a3a6ull},
    {"dmv/dmv_q21@default", "OK", 0x14650fb0739d0383ull, 0, 1, 500, 0x65bc311a84edd2daull, 0x991e06ccb762e2b1ull},
    {"dmv/dmv_q22@default", "OK", 0x14650fb0739d0383ull, 0, 1, 1799, 0xdbc73ae79991af6eull, 0x8e639d873d02214dull},
    {"dmv/dmv_q23@default", "OK", 0x14650fb0739d0383ull, 0, 1, 15, 0xf88b57b8de5c16aaull, 0x35e7c965c45f8153ull},
    {"dmv/dmv_q24@default", "OK", 0x14650fb0739d0383ull, 1, 2, 1027, 0x5dc9fa1c6856260cull, 0x4640964611060d91ull},
    {"dmv/dmv_q25@default", "OK", 0x14650fb0739d0383ull, 1, 2, 500, 0x2307c0ca9c66943cull, 0xfe76f11aa01e6506ull},
    {"dmv/dmv_q26@default", "OK", 0x14650fb0739d0383ull, 0, 1, 664, 0x954c127b2c1b2705ull, 0xd4bed8446b4216e4ull},
    {"dmv/dmv_q27@default", "OK", 0x14650fb0739d0383ull, 0, 1, 529, 0xd063f6820bc1cb1full, 0xce281b67f0e53f72ull},
    {"dmv/dmv_q28@default", "OK", 0x14650fb0739d0383ull, 0, 1, 888, 0x8eb74eed3e67baa3ull, 0x636e1834735d2406ull},
    {"dmv/dmv_q29@default", "OK", 0x14650fb0739d0383ull, 0, 1, 1700, 0x6f02b1619dbd6bbeull, 0x9adce77cd2e53e91ull},
    {"dmv/dmv_q30@default", "OK", 0x14650fb0739d0383ull, 0, 1, 542, 0x88ce0e47d076ec07ull, 0xdbbfa4c791555fafull},
    {"dmv/dmv_q31@default", "OK", 0x0a28bdb198fa1fa1ull, 0, 1, 1455, 0x0e201e18e556e5fbull, 0x0469cf6726f47860ull},
    {"dmv/dmv_q32@default", "OK", 0x14650fb0739d0383ull, 2, 3, 3614, 0x33881069776798f4ull, 0x12eebd2038802b66ull},
    {"dmv/dmv_q33@default", "OK", 0x14650fb0739d0383ull, 0, 1, 2006, 0x9ced217a2f8ccf25ull, 0x0d201d883c1bd838ull},
    {"dmv/dmv_q34@default", "OK", 0x14650fb0739d0383ull, 0, 1, 1018, 0x36f6c07e4ab350d7ull, 0xab4a1f23eda726feull},
    {"dmv/dmv_q35@default", "OK", 0x14650fb0739d0383ull, 0, 1, 2257, 0x8f3ba318c3ed6205ull, 0x441bb440b18388aeull},
    {"dmv/dmv_q36@default", "OK", 0x14650fb0739d0383ull, 1, 2, 608, 0x2f42dc70931f4e79ull, 0x068c396646d34db4ull},
    {"dmv/dmv_q37@default", "OK", 0x14650fb0739d0383ull, 0, 1, 520, 0x888e17e064e16b1eull, 0xf89a49bc84701294ull},
    {"dmv/dmv_q38@default", "OK", 0x14650fb0739d0383ull, 0, 1, 500, 0x802bf3b9cdcfdc99ull, 0x4630210eb532eb27ull},
    {"dmv/dmv_q39@default", "OK", 0x14650fb0739d0383ull, 0, 1, 519, 0xf52dbfc6a59b44beull, 0x4b1abc8b7935f122ull},
    {"tpch/q2@mgjn_only", "OK", 0x14650fb0739d0383ull, 0, 1, 6433, 0x14650fb0739d0383ull, 0x8246a77cdc8f34f5ull},
    {"tpch/q2m@mgjn_only", "OK", 0x14650fb0739d0383ull, 0, 1, 6364, 0x14650fb0739d0383ull, 0xa7ebe2a87b4e5ea5ull},
    {"tpch/q3@mgjn_only", "OK", 0x5b37ed163b835aedull, 0, 1, 41605, 0x14650fb0739d0383ull, 0x1bddf8d12fb0a1f8ull},
    {"tpch/q3m@mgjn_only", "OK", 0x5b37ed163b835aedull, 0, 1, 41605, 0x14650fb0739d0383ull, 0x1bddf8d12fb0a1f8ull},
    {"tpch/q4@mgjn_only", "OK", 0x2d9b6413b7588bbbull, 0, 1, 26054, 0x14650fb0739d0383ull, 0x2fff29bb85a563f3ull},
    {"tpch/q4m@mgjn_only", "OK", 0x2d9b6413b7588bbbull, 0, 1, 26054, 0x14650fb0739d0383ull, 0x2fff29bb85a563f3ull},
    {"tpch/q5@mgjn_only", "OK", 0x00c704335d7e4316ull, 0, 1, 53619, 0x14650fb0739d0383ull, 0x7b8fc39d049018ffull},
    {"tpch/q5m@mgjn_only", "OK", 0x00c704335d7e4316ull, 0, 1, 53619, 0x14650fb0739d0383ull, 0x7b8fc39d049018ffull},
    {"tpch/q7@mgjn_only", "OK", 0x1b31b10803a7ea74ull, 0, 1, 29958, 0x14650fb0739d0383ull, 0x60dd08fcdf930cc2ull},
    {"tpch/q7m@mgjn_only", "OK", 0x1b31b10803a7ea74ull, 0, 1, 29958, 0x14650fb0739d0383ull, 0x60dd08fcdf930cc2ull},
    {"tpch/q8@mgjn_only", "OK", 0x7b7178c68ab8a0fbull, 0, 1, 38642, 0x14650fb0739d0383ull, 0xf57bcb716b9ad327ull},
    {"tpch/q8m@mgjn_only", "OK", 0x7b7178c68ab8a0fbull, 0, 1, 38790, 0x14650fb0739d0383ull, 0xe1f55e9683a872c2ull},
    {"tpch/q9@mgjn_only", "OK", 0x6a4f6a3cf091d7b5ull, 0, 1, 76415, 0x14650fb0739d0383ull, 0x4c93969f66cbdbc5ull},
    {"tpch/q9m@mgjn_only", "OK", 0x6a4f6a3cf091d7b5ull, 0, 1, 76415, 0x14650fb0739d0383ull, 0x4c93969f66cbdbc5ull},
    {"tpch/q10@mgjn_only", "OK", 0xfdca553a62135007ull, 0, 1, 29587, 0x14650fb0739d0383ull, 0x3e2f026195c75884ull},
    {"tpch/q10m@mgjn_only", "OK", 0xfdca553a62135007ull, 0, 1, 29671, 0x14650fb0739d0383ull, 0xf684681f87af4261ull},
    {"tpch/q11@mgjn_only", "OK", 0xa6b11114da1fdbf6ull, 0, 1, 5166, 0x14650fb0739d0383ull, 0x35ddc579089e41f2ull},
    {"tpch/q11m@mgjn_only", "OK", 0xa6b11114da1fdbf6ull, 0, 1, 5166, 0x14650fb0739d0383ull, 0x35ddc579089e41f2ull},
    {"tpch/q18@mgjn_only", "OK", 0x1f7bbc12f087a3e1ull, 0, 1, 33792, 0x14650fb0739d0383ull, 0xaf00e3bdf19a8a61ull},
    {"tpch/q18m@mgjn_only", "OK", 0x1f7bbc12f087a3e1ull, 0, 1, 39228, 0x14650fb0739d0383ull, 0x7370bab3caf5a0b6ull},
    {"tpch/q10m_sel1@mgjn_only", "OK", 0x49a71fb949be2c7full, 0, 1, 34602, 0x14650fb0739d0383ull, 0x30d13fcd9597e322ull},
    {"tpch/q10m_sel10@mgjn_only", "OK", 0xba505876c73fd61full, 0, 1, 38927, 0x14650fb0739d0383ull, 0x624225c4d8b14e7cull},
    {"tpch/q10m_sel50@mgjn_only", "OK", 0x3fabed165f16ec4bull, 0, 1, 58129, 0x14650fb0739d0383ull, 0x15f28ea501d36392ull},
    {"tpch/q10m_sel90@mgjn_only", "OK", 0x36859ce583814fd7ull, 0, 1, 77489, 0x14650fb0739d0383ull, 0x106e54e7a53a3a94ull},
    {"dmv/dmv_q01@mgjn_only", "OK", 0x14650fb0739d0383ull, 0, 1, 5930, 0x14650fb0739d0383ull, 0xc9a95381259de68full},
    {"dmv/dmv_q02@mgjn_only", "OK", 0x0e19ac10d8d86d2dull, 0, 1, 3647, 0x14650fb0739d0383ull, 0x62efe2d12d3f24bbull},
    {"dmv/dmv_q03@mgjn_only", "OK", 0x14650fb0739d0383ull, 0, 1, 7805, 0x14650fb0739d0383ull, 0x1597525e32112723ull},
    {"dmv/dmv_q04@mgjn_only", "OK", 0x14650fb0739d0383ull, 0, 1, 4313, 0x14650fb0739d0383ull, 0x9e051e50c7ef5bbdull},
    {"dmv/dmv_q05@mgjn_only", "OK", 0x14650fb0739d0383ull, 0, 1, 3944, 0x14650fb0739d0383ull, 0xe5f2243c02828b25ull},
    {"dmv/dmv_q06@mgjn_only", "OK", 0x14650fb0739d0383ull, 0, 1, 9209, 0x14650fb0739d0383ull, 0x8253f59a6eddbd22ull},
    {"dmv/dmv_q07@mgjn_only", "OK", 0x14650fb0739d0383ull, 0, 1, 3901, 0x14650fb0739d0383ull, 0x7f6308a4a42e32baull},
    {"dmv/dmv_q08@mgjn_only", "OK", 0x14650fb0739d0383ull, 0, 1, 4569, 0x14650fb0739d0383ull, 0x8d374182c65b55c3ull},
    {"dmv/dmv_q09@mgjn_only", "OK", 0x14650fb0739d0383ull, 0, 1, 6793, 0x14650fb0739d0383ull, 0x1336602100dfa3a9ull},
    {"dmv/dmv_q10@mgjn_only", "OK", 0x14650fb0739d0383ull, 0, 1, 3594, 0x14650fb0739d0383ull, 0xd4bf003ef957a472ull},
    {"dmv/dmv_q11@mgjn_only", "OK", 0x14650fb0739d0383ull, 0, 1, 7445, 0x14650fb0739d0383ull, 0x5bf1a3f1fe634e94ull},
    {"dmv/dmv_q12@mgjn_only", "OK", 0x14650fb0739d0383ull, 0, 1, 1840, 0x14650fb0739d0383ull, 0xdd2a9ae49066cb5bull},
    {"dmv/dmv_q13@mgjn_only", "OK", 0x22162ce56ec49529ull, 0, 1, 9254, 0x14650fb0739d0383ull, 0x8dbabad37837c2c4ull},
    {"dmv/dmv_q14@mgjn_only", "OK", 0x923131fb3b28fb07ull, 0, 1, 6798, 0x14650fb0739d0383ull, 0xbbf78dcaf68f49e7ull},
    {"dmv/dmv_q15@mgjn_only", "OK", 0x14650fb0739d0383ull, 0, 1, 4442, 0x14650fb0739d0383ull, 0x3ce64776df643536ull},
    {"dmv/dmv_q16@mgjn_only", "OK", 0x482900e0ef190ef2ull, 0, 1, 10843, 0x14650fb0739d0383ull, 0xe50657bd128e8f57ull},
    {"dmv/dmv_q17@mgjn_only", "OK", 0x14650fb0739d0383ull, 0, 1, 5759, 0x14650fb0739d0383ull, 0x641270f90072a26full},
    {"dmv/dmv_q18@mgjn_only", "OK", 0xa91fb49b6a1e0dd5ull, 0, 1, 8430, 0x14650fb0739d0383ull, 0x08f1609658c5eebeull},
    {"dmv/dmv_q19@mgjn_only", "OK", 0x14650fb0739d0383ull, 0, 1, 2870, 0x14650fb0739d0383ull, 0x8805832eb86e47ceull},
    {"dmv/dmv_q20@mgjn_only", "OK", 0x14650fb0739d0383ull, 0, 1, 2993, 0x14650fb0739d0383ull, 0x517793acd36df65aull},
    {"dmv/dmv_q21@mgjn_only", "OK", 0x14650fb0739d0383ull, 0, 1, 2203, 0x14650fb0739d0383ull, 0x24bc85a1e02a30d0ull},
    {"dmv/dmv_q22@mgjn_only", "OK", 0x14650fb0739d0383ull, 0, 1, 5461, 0x14650fb0739d0383ull, 0xe9082f131ea3b84bull},
    {"dmv/dmv_q23@mgjn_only", "OK", 0x14650fb0739d0383ull, 0, 1, 4267, 0x14650fb0739d0383ull, 0x691a1ac401156950ull},
    {"dmv/dmv_q24@mgjn_only", "OK", 0x14650fb0739d0383ull, 0, 1, 9642, 0x14650fb0739d0383ull, 0xd7e8c96fd327adaaull},
    {"dmv/dmv_q25@mgjn_only", "OK", 0x14650fb0739d0383ull, 0, 1, 3569, 0x14650fb0739d0383ull, 0xfd4b24435441eea1ull},
    {"dmv/dmv_q26@mgjn_only", "OK", 0x14650fb0739d0383ull, 0, 1, 3993, 0x14650fb0739d0383ull, 0x517d6a64977b3395ull},
    {"dmv/dmv_q27@mgjn_only", "OK", 0x14650fb0739d0383ull, 0, 1, 2053, 0x14650fb0739d0383ull, 0x50c187754a66923cull},
    {"dmv/dmv_q28@mgjn_only", "OK", 0x14650fb0739d0383ull, 0, 1, 2436, 0x14650fb0739d0383ull, 0x17d1ba96a93e7f16ull},
    {"dmv/dmv_q29@mgjn_only", "OK", 0x14650fb0739d0383ull, 0, 1, 4301, 0x14650fb0739d0383ull, 0x2f856ae98db8b329ull},
    {"dmv/dmv_q30@mgjn_only", "OK", 0x14650fb0739d0383ull, 0, 1, 7290, 0x14650fb0739d0383ull, 0xafbf1c64e7c84540ull},
    {"dmv/dmv_q31@mgjn_only", "OK", 0x0a28bdb198fa1fa1ull, 0, 1, 4815, 0x14650fb0739d0383ull, 0xfbc50a57c62f4957ull},
    {"dmv/dmv_q32@mgjn_only", "OK", 0x14650fb0739d0383ull, 0, 1, 5706, 0x14650fb0739d0383ull, 0x75090b82ebef3499ull},
    {"dmv/dmv_q33@mgjn_only", "OK", 0x14650fb0739d0383ull, 0, 1, 9456, 0x14650fb0739d0383ull, 0xe7e5573355199b18ull},
    {"dmv/dmv_q34@mgjn_only", "OK", 0x14650fb0739d0383ull, 0, 1, 6068, 0x14650fb0739d0383ull, 0x132f98a4c849b4d7ull},
    {"dmv/dmv_q35@mgjn_only", "OK", 0x14650fb0739d0383ull, 0, 1, 6955, 0x14650fb0739d0383ull, 0x273bb7d4d7c212dfull},
    {"dmv/dmv_q36@mgjn_only", "OK", 0x14650fb0739d0383ull, 0, 1, 5761, 0x14650fb0739d0383ull, 0xe508561f5b12e609ull},
    {"dmv/dmv_q37@mgjn_only", "OK", 0x14650fb0739d0383ull, 0, 1, 2084, 0x14650fb0739d0383ull, 0x364504e1fec2e6ecull},
    {"dmv/dmv_q38@mgjn_only", "OK", 0x14650fb0739d0383ull, 0, 1, 5577, 0x14650fb0739d0383ull, 0x1bfdc8b3c741db8aull},
    {"dmv/dmv_q39@mgjn_only", "OK", 0x14650fb0739d0383ull, 0, 1, 7405, 0x14650fb0739d0383ull, 0x432f00dba539a188ull},
    {"tpch/q2@ecb", "OK", 0x14650fb0739d0383ull, 0, 1, 553, 0x1c29aa93123c3e61ull, 0x513b9eb7edeb666eull},
    {"tpch/q2m@ecb", "OK", 0x14650fb0739d0383ull, 0, 1, 553, 0x1c29aa93123c3e61ull, 0x513b9eb7edeb666eull},
    {"tpch/q3@ecb", "OK", 0x5b37ed163b835aedull, 0, 1, 3787, 0x85c67cd63c99b34eull, 0xfc2b3e992fd09d7bull},
    {"tpch/q3m@ecb", "OK", 0x5b37ed163b835aedull, 0, 1, 4425, 0xae337bcb094d6fb1ull, 0xfc2b3e992fd09d7bull},
    {"tpch/q4@ecb", "OK", 0x2d9b6413b7588bbbull, 0, 1, 3750, 0x1f2feaa7702a7e2aull, 0x2654520a9d41263dull},
    {"tpch/q4m@ecb", "OK", 0x2d9b6413b7588bbbull, 0, 1, 3750, 0x1f2feaa7702a7e2aull, 0x2654520a9d41263dull},
    {"tpch/q5@ecb", "OK", 0x00c704335d7e4316ull, 0, 1, 629, 0xc6ad991df95229dcull, 0xe9eab1f3af946a1cull},
    {"tpch/q5m@ecb", "OK", 0x00c704335d7e4316ull, 0, 1, 629, 0xc6ad991df95229dcull, 0xe9eab1f3af946a1cull},
    {"tpch/q7@ecb", "OK", 0x1b31b10803a7ea74ull, 0, 1, 797, 0x3700b647013ba5adull, 0xf07d7e8a7ea11c44ull},
    {"tpch/q7m@ecb", "OK", 0x1b31b10803a7ea74ull, 0, 1, 797, 0x3700b647013ba5adull, 0xf07d7e8a7ea11c44ull},
    {"tpch/q8@ecb", "OK", 0x7b7178c68ab8a0fbull, 0, 1, 844, 0x7e233e3f322b53deull, 0x27090d5aad2cf72dull},
    {"tpch/q8m@ecb", "OK", 0x7b7178c68ab8a0fbull, 0, 1, 1892, 0x82a7f8eb229df7d9ull, 0xa32e312443a93e3full},
    {"tpch/q9@ecb", "OK", 0x6a4f6a3cf091d7b5ull, 1, 2, 16092, 0xc619a4c77566fe2cull, 0x6e59f35eb2a35affull},
    {"tpch/q9m@ecb", "OK", 0x6a4f6a3cf091d7b5ull, 1, 2, 16092, 0xc619a4c77566fe2cull, 0x6e59f35eb2a35affull},
    {"tpch/q10@ecb", "OK", 0xfdca553a62135007ull, 0, 1, 4686, 0x9f757d2f551b831full, 0x3baabd14d42d2b05ull},
    {"tpch/q10m@ecb", "OK", 0xfdca553a62135007ull, 1, 2, 4967, 0x4ae1d9c01c596facull, 0x8ef1b5c1723874dcull},
    {"tpch/q11@ecb", "OK", 0xa6b11114da1fdbf6ull, 0, 1, 269, 0xc6456a29474a463bull, 0xc00e0f4a4c0bf966ull},
    {"tpch/q11m@ecb", "OK", 0xa6b11114da1fdbf6ull, 0, 1, 269, 0xc6456a29474a463bull, 0xc00e0f4a4c0bf966ull},
    {"tpch/q18@ecb", "OK", 0x1f7bbc12f087a3e1ull, 0, 1, 18826, 0x5ab408debd264bbeull, 0x5e52362b1100302bull},
    {"tpch/q18m@ecb", "OK", 0x1f7bbc12f087a3e1ull, 0, 1, 22162, 0x9482be643209cd4dull, 0x6253823bc79514e0ull},
    {"tpch/q10m_sel1@ecb", "OK", 0x49a71fb949be2c7full, 0, 1, 19734, 0x9482be643209cd4dull, 0x302d8fdfade6273cull},
    {"tpch/q10m_sel10@ecb", "OK", 0xba505876c73fd61full, 0, 1, 21879, 0x9482be643209cd4dull, 0x331041880366948eull},
    {"tpch/q10m_sel50@ecb", "OK", 0x3fabed165f16ec4bull, 0, 1, 31477, 0x9482be643209cd4dull, 0xa5551f2e2d3cb72cull},
    {"tpch/q10m_sel90@ecb", "OK", 0x36859ce583814fd7ull, 0, 1, 41157, 0x9482be643209cd4dull, 0x1a3e97ba16aa4746ull},
    {"dmv/dmv_q01@ecb", "OK", 0x14650fb0739d0383ull, 0, 1, 550, 0x65702578c1a87cd6ull, 0x2b1f1b457fb149c9ull},
    {"dmv/dmv_q02@ecb", "OK", 0x0e19ac10d8d86d2dull, 0, 1, 1018, 0x31600b5e12de51e3ull, 0x198f83ec0a28baaeull},
    {"dmv/dmv_q03@ecb", "OK", 0x14650fb0739d0383ull, 0, 1, 550, 0x42eca4973c81381eull, 0x1a4f7226305ee15bull},
    {"dmv/dmv_q04@ecb", "OK", 0x14650fb0739d0383ull, 0, 1, 1038, 0x75fde95778f88d78ull, 0x9a62617edecd50f5ull},
    {"dmv/dmv_q05@ecb", "OK", 0x14650fb0739d0383ull, 1, 2, 1075, 0x7ddaecef72486d21ull, 0x493114f48e51bd62ull},
    {"dmv/dmv_q06@ecb", "OK", 0x14650fb0739d0383ull, 0, 1, 895, 0x6e478edf81f36d5aull, 0x49d871ed754cdf59ull},
    {"dmv/dmv_q07@ecb", "OK", 0x14650fb0739d0383ull, 0, 1, 796, 0xc16b8863ae85c2a4ull, 0x910a0362e9229676ull},
    {"dmv/dmv_q08@ecb", "OK", 0x14650fb0739d0383ull, 0, 1, 553, 0xeafe27426be923f5ull, 0xfbb60fd2d6d3798bull},
    {"dmv/dmv_q09@ecb", "OK", 0x14650fb0739d0383ull, 0, 1, 500, 0x98683ccf33d33ad4ull, 0x653c92d06acd4961ull},
    {"dmv/dmv_q10@ecb", "OK", 0x14650fb0739d0383ull, 0, 1, 871, 0xf8fd01be75579c2eull, 0xbb30ac6678a83dfeull},
    {"dmv/dmv_q11@ecb", "OK", 0x14650fb0739d0383ull, 0, 1, 715, 0x5c2bc2bc20d22999ull, 0x5f7abac555cc6326ull},
    {"dmv/dmv_q12@ecb", "OK", 0x14650fb0739d0383ull, 0, 1, 1010, 0x9354a11dc4bd635bull, 0x19dba785c94f932dull},
    {"dmv/dmv_q13@ecb", "OK", 0x22162ce56ec49529ull, 0, 1, 4547, 0xa25c36b4f2b05e84ull, 0xf3b069ff0c3ed73bull},
    {"dmv/dmv_q14@ecb", "OK", 0x923131fb3b28fb07ull, 0, 1, 4121, 0x91bc1ea99f9c3ccdull, 0x3799be18a325f1afull},
    {"dmv/dmv_q15@ecb", "OK", 0x14650fb0739d0383ull, 0, 1, 550, 0xf8974331c9cb6c40ull, 0x10f7592a72f2f833ull},
    {"dmv/dmv_q16@ecb", "OK", 0x482900e0ef190ef2ull, 1, 2, 3704, 0x8c49cc7afe41f407ull, 0xc30e54462e2d4beaull},
    {"dmv/dmv_q17@ecb", "OK", 0x14650fb0739d0383ull, 0, 1, 1704, 0x6e9d9b2152b0cd35ull, 0x870305e30c2d33faull},
    {"dmv/dmv_q18@ecb", "OK", 0xa91fb49b6a1e0dd5ull, 2, 3, 3176, 0x141cbebae20f30edull, 0x90145cf739365e39ull},
    {"dmv/dmv_q19@ecb", "OK", 0x14650fb0739d0383ull, 0, 1, 550, 0x50a28a0ded105c99ull, 0x3313ea909bdfcd09ull},
    {"dmv/dmv_q20@ecb", "OK", 0x14650fb0739d0383ull, 2, 3, 2260, 0xffe13ae5bd950029ull, 0x7e89f23afd240a89ull},
    {"dmv/dmv_q21@ecb", "OK", 0x14650fb0739d0383ull, 0, 1, 500, 0xde2acdb9a7446bf7ull, 0x991e06ccb762e2b1ull},
    {"dmv/dmv_q22@ecb", "OK", 0x14650fb0739d0383ull, 0, 1, 1809, 0x56ea5b3ce8818737ull, 0x8e639d873d02214dull},
    {"dmv/dmv_q23@ecb", "OK", 0x14650fb0739d0383ull, 0, 1, 15, 0x0b44574ec9e31a8cull, 0x35e7c965c45f8153ull},
    {"dmv/dmv_q24@ecb", "OK", 0x14650fb0739d0383ull, 1, 2, 1917, 0xabd6c1c245827d3bull, 0x4640964611060d91ull},
    {"dmv/dmv_q25@ecb", "OK", 0x14650fb0739d0383ull, 1, 2, 500, 0x235963a057062709ull, 0xfe76f11aa01e6506ull},
    {"dmv/dmv_q26@ecb", "OK", 0x14650fb0739d0383ull, 0, 1, 871, 0x1f14f580ac36dc6bull, 0xd4bed8446b4216e4ull},
    {"dmv/dmv_q27@ecb", "OK", 0x14650fb0739d0383ull, 0, 1, 535, 0x53e6fb97ff3083e4ull, 0xce281b67f0e53f72ull},
    {"dmv/dmv_q28@ecb", "OK", 0x14650fb0739d0383ull, 0, 1, 1044, 0x5576a70a8b846590ull, 0x636e1834735d2406ull},
    {"dmv/dmv_q29@ecb", "OK", 0x14650fb0739d0383ull, 0, 1, 1700, 0x752253bca8830e62ull, 0x9adce77cd2e53e91ull},
    {"dmv/dmv_q30@ecb", "OK", 0x14650fb0739d0383ull, 0, 1, 550, 0x695132007c2bf1b4ull, 0xdbbfa4c791555fafull},
    {"dmv/dmv_q31@ecb", "OK", 0x0a28bdb198fa1fa1ull, 0, 1, 1459, 0xe2e706f482445cc7ull, 0x0469cf6726f47860ull},
    {"dmv/dmv_q32@ecb", "OK", 0x14650fb0739d0383ull, 2, 3, 1434, 0x96de46785364bcb6ull, 0xa2cfdae7e4d4479aull},
    {"dmv/dmv_q33@ecb", "OK", 0x14650fb0739d0383ull, 0, 1, 2273, 0x63f6562f38284421ull, 0x0d201d883c1bd838ull},
    {"dmv/dmv_q34@ecb", "OK", 0x14650fb0739d0383ull, 0, 1, 1019, 0xf1039f8ec6e1b805ull, 0xab4a1f23eda726feull},
    {"dmv/dmv_q35@ecb", "OK", 0x14650fb0739d0383ull, 0, 1, 2259, 0x31600b5e12de51e3ull, 0x441bb440b18388aeull},
    {"dmv/dmv_q36@ecb", "OK", 0x14650fb0739d0383ull, 1, 2, 610, 0x806d81a7a460661aull, 0xebc67fc51cc3952cull},
    {"dmv/dmv_q37@ecb", "OK", 0x14650fb0739d0383ull, 0, 1, 524, 0x0601cd25175f31a7ull, 0xf89a49bc84701294ull},
    {"dmv/dmv_q38@ecb", "OK", 0x14650fb0739d0383ull, 0, 1, 500, 0x03dcffe44c615fcfull, 0x4630210eb532eb27ull},
    {"dmv/dmv_q39@ecb", "OK", 0x14650fb0739d0383ull, 0, 1, 519, 0xb4b19a6ce370a1a1ull, 0x4b1abc8b7935f122ull},
    {"tpch/q2@fig14", "OK", 0x14650fb0739d0383ull, 0, 1, 553, 0x1c29aa93123c3e61ull, 0x513b9eb7edeb666eull},
    {"tpch/q2m@fig14", "OK", 0x14650fb0739d0383ull, 0, 1, 553, 0x1c29aa93123c3e61ull, 0x513b9eb7edeb666eull},
    {"tpch/q3@fig14", "OK", 0x5b37ed163b835aedull, 0, 1, 3787, 0x85c67cd63c99b34eull, 0xfc2b3e992fd09d7bull},
    {"tpch/q3m@fig14", "OK", 0x5b37ed163b835aedull, 0, 1, 4425, 0xae337bcb094d6fb1ull, 0xfc2b3e992fd09d7bull},
    {"tpch/q4@fig14", "OK", 0x2d9b6413b7588bbbull, 0, 1, 3750, 0x1f2feaa7702a7e2aull, 0x2654520a9d41263dull},
    {"tpch/q4m@fig14", "OK", 0x2d9b6413b7588bbbull, 0, 1, 3750, 0x1f2feaa7702a7e2aull, 0x2654520a9d41263dull},
    {"tpch/q5@fig14", "OK", 0x00c704335d7e4316ull, 0, 1, 629, 0xc6ad991df95229dcull, 0xe9eab1f3af946a1cull},
    {"tpch/q5m@fig14", "OK", 0x00c704335d7e4316ull, 0, 1, 629, 0xc6ad991df95229dcull, 0xe9eab1f3af946a1cull},
    {"tpch/q7@fig14", "OK", 0x1b31b10803a7ea74ull, 0, 1, 797, 0x3700b647013ba5adull, 0xf07d7e8a7ea11c44ull},
    {"tpch/q7m@fig14", "OK", 0x1b31b10803a7ea74ull, 0, 1, 797, 0x3700b647013ba5adull, 0xf07d7e8a7ea11c44ull},
    {"tpch/q8@fig14", "OK", 0x7b7178c68ab8a0fbull, 0, 1, 844, 0x7e233e3f322b53deull, 0x27090d5aad2cf72dull},
    {"tpch/q8m@fig14", "OK", 0x7b7178c68ab8a0fbull, 0, 1, 1892, 0x82a7f8eb229df7d9ull, 0xa32e312443a93e3full},
    {"tpch/q9@fig14", "OK", 0x6a4f6a3cf091d7b5ull, 0, 1, 11286, 0xa39480101e255738ull, 0x6e59f35eb2a35affull},
    {"tpch/q9m@fig14", "OK", 0x6a4f6a3cf091d7b5ull, 0, 1, 11286, 0xa39480101e255738ull, 0x6e59f35eb2a35affull},
    {"tpch/q10@fig14", "OK", 0xfdca553a62135007ull, 0, 1, 4686, 0x9f757d2f551b831full, 0x3baabd14d42d2b05ull},
    {"tpch/q10m@fig14", "OK", 0xfdca553a62135007ull, 0, 1, 5103, 0x99c2ac05e87470abull, 0x7dc9656062054b7aull},
    {"tpch/q11@fig14", "OK", 0xa6b11114da1fdbf6ull, 0, 1, 269, 0xc6456a29474a463bull, 0xc00e0f4a4c0bf966ull},
    {"tpch/q11m@fig14", "OK", 0xa6b11114da1fdbf6ull, 0, 1, 269, 0xc6456a29474a463bull, 0xc00e0f4a4c0bf966ull},
    {"tpch/q18@fig14", "OK", 0x1f7bbc12f087a3e1ull, 0, 1, 18826, 0x5ab408debd264bbeull, 0x5e52362b1100302bull},
    {"tpch/q18m@fig14", "OK", 0x1f7bbc12f087a3e1ull, 0, 1, 22162, 0x9482be643209cd4dull, 0x6253823bc79514e0ull},
    {"tpch/q10m_sel1@fig14", "OK", 0x49a71fb949be2c7full, 0, 1, 19734, 0x9482be643209cd4dull, 0x302d8fdfade6273cull},
    {"tpch/q10m_sel10@fig14", "OK", 0xba505876c73fd61full, 0, 1, 21879, 0x9482be643209cd4dull, 0x331041880366948eull},
    {"tpch/q10m_sel50@fig14", "OK", 0x3fabed165f16ec4bull, 0, 1, 31477, 0x9482be643209cd4dull, 0xa5551f2e2d3cb72cull},
    {"tpch/q10m_sel90@fig14", "OK", 0x36859ce583814fd7ull, 0, 1, 41157, 0x9482be643209cd4dull, 0x1a3e97ba16aa4746ull},
    {"dmv/dmv_q01@fig14", "OK", 0x14650fb0739d0383ull, 0, 1, 550, 0x65702578c1a87cd6ull, 0x2b1f1b457fb149c9ull},
    {"dmv/dmv_q02@fig14", "OK", 0x0e19ac10d8d86d2dull, 0, 1, 1018, 0x31600b5e12de51e3ull, 0x198f83ec0a28baaeull},
    {"dmv/dmv_q03@fig14", "OK", 0x14650fb0739d0383ull, 0, 1, 550, 0x42eca4973c81381eull, 0x1a4f7226305ee15bull},
    {"dmv/dmv_q04@fig14", "OK", 0x14650fb0739d0383ull, 0, 1, 1038, 0x75fde95778f88d78ull, 0x9a62617edecd50f5ull},
    {"dmv/dmv_q05@fig14", "OK", 0x14650fb0739d0383ull, 0, 1, 2076, 0x0552e8661b06f831ull, 0x4fa78a2272ed00f3ull},
    {"dmv/dmv_q06@fig14", "OK", 0x14650fb0739d0383ull, 0, 1, 895, 0x6e478edf81f36d5aull, 0x49d871ed754cdf59ull},
    {"dmv/dmv_q07@fig14", "OK", 0x14650fb0739d0383ull, 0, 1, 796, 0xc16b8863ae85c2a4ull, 0x910a0362e9229676ull},
    {"dmv/dmv_q08@fig14", "OK", 0x14650fb0739d0383ull, 0, 1, 553, 0xeafe27426be923f5ull, 0xfbb60fd2d6d3798bull},
    {"dmv/dmv_q09@fig14", "OK", 0x14650fb0739d0383ull, 0, 1, 500, 0x98683ccf33d33ad4ull, 0x653c92d06acd4961ull},
    {"dmv/dmv_q10@fig14", "OK", 0x14650fb0739d0383ull, 0, 1, 871, 0xf8fd01be75579c2eull, 0xbb30ac6678a83dfeull},
    {"dmv/dmv_q11@fig14", "OK", 0x14650fb0739d0383ull, 0, 1, 715, 0x5c2bc2bc20d22999ull, 0x5f7abac555cc6326ull},
    {"dmv/dmv_q12@fig14", "OK", 0x14650fb0739d0383ull, 0, 1, 1010, 0x9354a11dc4bd635bull, 0x19dba785c94f932dull},
    {"dmv/dmv_q13@fig14", "OK", 0x22162ce56ec49529ull, 0, 1, 4547, 0xa25c36b4f2b05e84ull, 0xf3b069ff0c3ed73bull},
    {"dmv/dmv_q14@fig14", "OK", 0x923131fb3b28fb07ull, 0, 1, 4121, 0x91bc1ea99f9c3ccdull, 0x3799be18a325f1afull},
    {"dmv/dmv_q15@fig14", "OK", 0x14650fb0739d0383ull, 0, 1, 550, 0xf8974331c9cb6c40ull, 0x10f7592a72f2f833ull},
    {"dmv/dmv_q16@fig14", "OK", 0x482900e0ef190ef2ull, 0, 1, 31489, 0xacd67af1dd240537ull, 0x14fc3f17ecaa1352ull},
    {"dmv/dmv_q17@fig14", "OK", 0x14650fb0739d0383ull, 0, 1, 1704, 0x6e9d9b2152b0cd35ull, 0x870305e30c2d33faull},
    {"dmv/dmv_q18@fig14", "OK", 0xa91fb49b6a1e0dd5ull, 0, 1, 5581, 0xdfa052e809c257b5ull, 0x36a61918e6cec55full},
    {"dmv/dmv_q19@fig14", "OK", 0x14650fb0739d0383ull, 0, 1, 550, 0x50a28a0ded105c99ull, 0x3313ea909bdfcd09ull},
    {"dmv/dmv_q20@fig14", "OK", 0x14650fb0739d0383ull, 0, 1, 2508, 0xd71465af8f7d008full, 0x883eedf38b55f9a2ull},
    {"dmv/dmv_q21@fig14", "OK", 0x14650fb0739d0383ull, 0, 1, 500, 0xde2acdb9a7446bf7ull, 0x991e06ccb762e2b1ull},
    {"dmv/dmv_q22@fig14", "OK", 0x14650fb0739d0383ull, 0, 1, 1809, 0x56ea5b3ce8818737ull, 0x8e639d873d02214dull},
    {"dmv/dmv_q23@fig14", "OK", 0x14650fb0739d0383ull, 0, 1, 15, 0x0b44574ec9e31a8cull, 0x35e7c965c45f8153ull},
    {"dmv/dmv_q24@fig14", "OK", 0x14650fb0739d0383ull, 0, 1, 1038, 0xacdfd300675e6354ull, 0x13d5ddeec6c6d5dfull},
    {"dmv/dmv_q25@fig14", "OK", 0x14650fb0739d0383ull, 0, 1, 1615, 0xa0be57644fc22c9dull, 0xeb35aacaa69c071aull},
    {"dmv/dmv_q26@fig14", "OK", 0x14650fb0739d0383ull, 0, 1, 871, 0x1f14f580ac36dc6bull, 0xd4bed8446b4216e4ull},
    {"dmv/dmv_q27@fig14", "OK", 0x14650fb0739d0383ull, 0, 1, 535, 0x53e6fb97ff3083e4ull, 0xce281b67f0e53f72ull},
    {"dmv/dmv_q28@fig14", "OK", 0x14650fb0739d0383ull, 0, 1, 1044, 0x5576a70a8b846590ull, 0x636e1834735d2406ull},
    {"dmv/dmv_q29@fig14", "OK", 0x14650fb0739d0383ull, 0, 1, 1700, 0x752253bca8830e62ull, 0x9adce77cd2e53e91ull},
    {"dmv/dmv_q30@fig14", "OK", 0x14650fb0739d0383ull, 0, 1, 550, 0x695132007c2bf1b4ull, 0xdbbfa4c791555fafull},
    {"dmv/dmv_q31@fig14", "OK", 0x0a28bdb198fa1fa1ull, 0, 1, 1459, 0xe2e706f482445cc7ull, 0x0469cf6726f47860ull},
    {"dmv/dmv_q32@fig14", "OK", 0x14650fb0739d0383ull, 0, 1, 4170, 0xc6ca0d44a87e6f3cull, 0x2266a05656f525b5ull},
    {"dmv/dmv_q33@fig14", "OK", 0x14650fb0739d0383ull, 0, 1, 2273, 0x63f6562f38284421ull, 0x0d201d883c1bd838ull},
    {"dmv/dmv_q34@fig14", "OK", 0x14650fb0739d0383ull, 0, 1, 1019, 0xf1039f8ec6e1b805ull, 0xab4a1f23eda726feull},
    {"dmv/dmv_q35@fig14", "OK", 0x14650fb0739d0383ull, 0, 1, 2259, 0x31600b5e12de51e3ull, 0x441bb440b18388aeull},
    {"dmv/dmv_q36@fig14", "OK", 0x14650fb0739d0383ull, 0, 1, 697, 0x8616cba57b5bce42ull, 0x8dfac0d897201e0dull},
    {"dmv/dmv_q37@fig14", "OK", 0x14650fb0739d0383ull, 0, 1, 524, 0x0601cd25175f31a7ull, 0xf89a49bc84701294ull},
    {"dmv/dmv_q38@fig14", "OK", 0x14650fb0739d0383ull, 0, 1, 500, 0x03dcffe44c615fcfull, 0x4630210eb532eb27ull},
    {"dmv/dmv_q39@fig14", "OK", 0x14650fb0739d0383ull, 0, 1, 519, 0xb4b19a6ce370a1a1ull, 0x4b1abc8b7935f122ull},
    {"tpch/q2@workbound", "OK", 0x14650fb0739d0383ull, 0, 1, 525, 0x764601ea03f172a7ull, 0x513b9eb7edeb666eull},
    {"tpch/q2m@workbound", "OK", 0x14650fb0739d0383ull, 0, 1, 525, 0x764601ea03f172a7ull, 0x513b9eb7edeb666eull},
    {"tpch/q3@workbound", "OK", 0x5b37ed163b835aedull, 0, 1, 3399, 0xca57b75e2c6415baull, 0xfc2b3e992fd09d7bull},
    {"tpch/q3m@workbound", "OK", 0x5b37ed163b835aedull, 1, 2, 4190, 0x354067512466c08dull, 0xfc2b3e992fd09d7bull},
    {"tpch/q4@workbound", "OK", 0x2d9b6413b7588bbbull, 0, 1, 3643, 0x14650fb0739d0383ull, 0x2654520a9d41263dull},
    {"tpch/q4m@workbound", "OK", 0x2d9b6413b7588bbbull, 0, 1, 3643, 0x14650fb0739d0383ull, 0x2654520a9d41263dull},
    {"tpch/q5@workbound", "OK", 0x00c704335d7e4316ull, 0, 1, 571, 0x247ce5efe6281320ull, 0xe9eab1f3af946a1cull},
    {"tpch/q5m@workbound", "OK", 0x00c704335d7e4316ull, 1, 2, 633, 0x247ce5efe6281320ull, 0xe9eab1f3af946a1cull},
    {"tpch/q7@workbound", "OK", 0x1b31b10803a7ea74ull, 0, 1, 687, 0xb0090282d5b6b3acull, 0xf07d7e8a7ea11c44ull},
    {"tpch/q7m@workbound", "OK", 0x1b31b10803a7ea74ull, 0, 1, 687, 0xb0090282d5b6b3acull, 0xf07d7e8a7ea11c44ull},
    {"tpch/q8@workbound", "OK", 0x7b7178c68ab8a0fbull, 0, 1, 746, 0xc252314f42276cd3ull, 0x27090d5aad2cf72dull},
    {"tpch/q8m@workbound", "OK", 0x7b7178c68ab8a0fbull, 0, 1, 1799, 0xdce69449e59b78f8ull, 0xa32e312443a93e3full},
    {"tpch/q9@workbound", "OK", 0x6a4f6a3cf091d7b5ull, 1, 2, 15500, 0xeb6630c8e218ee69ull, 0x6e59f35eb2a35affull},
    {"tpch/q9m@workbound", "OK", 0x6a4f6a3cf091d7b5ull, 1, 2, 15500, 0xeb6630c8e218ee69ull, 0x6e59f35eb2a35affull},
    {"tpch/q10@workbound", "OK", 0xfdca553a62135007ull, 0, 1, 4476, 0x59284311ad0ad26bull, 0x3baabd14d42d2b05ull},
    {"tpch/q10m@workbound", "OK", 0xfdca553a62135007ull, 1, 2, 4784, 0x4d31afef9e82ddaeull, 0x8ef1b5c1723874dcull},
    {"tpch/q11@workbound", "OK", 0xa6b11114da1fdbf6ull, 0, 1, 267, 0x867308170b089131ull, 0xc00e0f4a4c0bf966ull},
    {"tpch/q11m@workbound", "OK", 0xa6b11114da1fdbf6ull, 0, 1, 267, 0x867308170b089131ull, 0xc00e0f4a4c0bf966ull},
    {"tpch/q18@workbound", "OK", 0x1f7bbc12f087a3e1ull, 0, 1, 17638, 0xc09eb95810f03856ull, 0x5e52362b1100302bull},
    {"tpch/q18m@workbound", "OK", 0x1f7bbc12f087a3e1ull, 0, 1, 21862, 0xb5a8c882ec428605ull, 0x6253823bc79514e0ull},
    {"tpch/q10m_sel1@workbound", "OK", 0x49a71fb949be2c7full, 0, 1, 19434, 0xb5a8c882ec428605ull, 0x302d8fdfade6273cull},
    {"tpch/q10m_sel10@workbound", "OK", 0xba505876c73fd61full, 0, 1, 21579, 0xb5a8c882ec428605ull, 0x331041880366948eull},
    {"tpch/q10m_sel50@workbound", "OK", 0x3fabed165f16ec4bull, 0, 1, 31177, 0xb5a8c882ec428605ull, 0xa5551f2e2d3cb72cull},
    {"tpch/q10m_sel90@workbound", "OK", 0x36859ce583814fd7ull, 0, 1, 40857, 0xb5a8c882ec428605ull, 0x1a3e97ba16aa4746ull},
    {"dmv/dmv_q01@workbound", "OK", 0x14650fb0739d0383ull, 0, 1, 450, 0x09b47d62ac133eeaull, 0x2b1f1b457fb149c9ull},
    {"dmv/dmv_q02@workbound", "OK", 0x0e19ac10d8d86d2dull, 0, 1, 1016, 0x8f3ba318c3ed6205ull, 0x198f83ec0a28baaeull},
    {"dmv/dmv_q03@workbound", "OK", 0x14650fb0739d0383ull, 0, 1, 450, 0xe107f246bfc9182full, 0x1a4f7226305ee15bull},
    {"dmv/dmv_q04@workbound", "OK", 0x14650fb0739d0383ull, 0, 1, 1036, 0x5999780a3fb04f52ull, 0x9a62617edecd50f5ull},
    {"dmv/dmv_q05@workbound", "OK", 0x14650fb0739d0383ull, 1, 2, 1021, 0xe3fe1a49006bf238ull, 0x493114f48e51bd62ull},
    {"dmv/dmv_q06@workbound", "OK", 0x14650fb0739d0383ull, 0, 1, 688, 0xe4d63f9174abb209ull, 0x49d871ed754cdf59ull},
    {"dmv/dmv_q07@workbound", "OK", 0x14650fb0739d0383ull, 0, 1, 614, 0xa255203672e61cc5ull, 0x910a0362e9229676ull},
    {"dmv/dmv_q08@workbound", "OK", 0x14650fb0739d0383ull, 0, 1, 544, 0xf5989c14ca6d80daull, 0xfbb60fd2d6d3798bull},
    {"dmv/dmv_q09@workbound", "OK", 0x14650fb0739d0383ull, 0, 1, 500, 0xe9c456c8b88d339aull, 0x653c92d06acd4961ull},
    {"dmv/dmv_q10@workbound", "OK", 0x14650fb0739d0383ull, 0, 1, 664, 0x7f50978febe86ffaull, 0xbb30ac6678a83dfeull},
    {"dmv/dmv_q11@workbound", "OK", 0x14650fb0739d0383ull, 0, 1, 560, 0xba7b391426b3f9b6ull, 0x5f7abac555cc6326ull},
    {"dmv/dmv_q12@workbound", "OK", 0x14650fb0739d0383ull, 0, 1, 1008, 0x3e64f94fe1e0b5f3ull, 0x19dba785c94f932dull},
    {"dmv/dmv_q13@workbound", "OK", 0x22162ce56ec49529ull, 0, 1, 4196, 0x9acb4ce585a875cdull, 0xf3b069ff0c3ed73bull},
    {"dmv/dmv_q14@workbound", "OK", 0x923131fb3b28fb07ull, 0, 1, 3997, 0xf0d34ca306efb9b4ull, 0x3799be18a325f1afull},
    {"dmv/dmv_q15@workbound", "OK", 0x14650fb0739d0383ull, 0, 1, 450, 0xb66777638861a648ull, 0x10f7592a72f2f833ull},
    {"dmv/dmv_q16@workbound", "OK", 0x482900e0ef190ef2ull, 1, 2, 3353, 0x3e587f56eb72b6beull, 0x06c92321c542f0a6ull},
    {"dmv/dmv_q17@workbound", "OK", 0x14650fb0739d0383ull, 0, 1, 1685, 0x925d1e48dd076a43ull, 0x870305e30c2d33faull},
    {"dmv/dmv_q18@workbound", "OK", 0xa91fb49b6a1e0dd5ull, 3, 4, 3167, 0x1dd1df7089972bf3ull, 0xf9dd98ac783bee7cull},
    {"dmv/dmv_q19@workbound", "OK", 0x14650fb0739d0383ull, 0, 1, 450, 0xc6fb3f97d88cc252ull, 0x3313ea909bdfcd09ull},
    {"dmv/dmv_q20@workbound", "OK", 0x14650fb0739d0383ull, 1, 2, 1879, 0x50a9d39e5281f4a0ull, 0xe0ef1971f774a3a6ull},
    {"dmv/dmv_q21@workbound", "OK", 0x14650fb0739d0383ull, 0, 1, 500, 0x65bc311a84edd2daull, 0x991e06ccb762e2b1ull},
    {"dmv/dmv_q22@workbound", "OK", 0x14650fb0739d0383ull, 0, 1, 1799, 0xdbc73ae79991af6eull, 0x8e639d873d02214dull},
    {"dmv/dmv_q23@workbound", "OK", 0x14650fb0739d0383ull, 0, 1, 15, 0xf88b57b8de5c16aaull, 0x35e7c965c45f8153ull},
    {"dmv/dmv_q24@workbound", "OK", 0x14650fb0739d0383ull, 1, 2, 1027, 0x5dc9fa1c6856260cull, 0x4640964611060d91ull},
    {"dmv/dmv_q25@workbound", "OK", 0x14650fb0739d0383ull, 1, 2, 500, 0x2307c0ca9c66943cull, 0xfe76f11aa01e6506ull},
    {"dmv/dmv_q26@workbound", "OK", 0x14650fb0739d0383ull, 0, 1, 664, 0x954c127b2c1b2705ull, 0xd4bed8446b4216e4ull},
    {"dmv/dmv_q27@workbound", "OK", 0x14650fb0739d0383ull, 0, 1, 529, 0xd063f6820bc1cb1full, 0xce281b67f0e53f72ull},
    {"dmv/dmv_q28@workbound", "OK", 0x14650fb0739d0383ull, 0, 1, 888, 0x8eb74eed3e67baa3ull, 0x636e1834735d2406ull},
    {"dmv/dmv_q29@workbound", "OK", 0x14650fb0739d0383ull, 0, 1, 1700, 0x6f02b1619dbd6bbeull, 0x9adce77cd2e53e91ull},
    {"dmv/dmv_q30@workbound", "OK", 0x14650fb0739d0383ull, 0, 1, 542, 0x88ce0e47d076ec07ull, 0xdbbfa4c791555fafull},
    {"dmv/dmv_q31@workbound", "OK", 0x0a28bdb198fa1fa1ull, 0, 1, 1455, 0x0e201e18e556e5fbull, 0x0469cf6726f47860ull},
    {"dmv/dmv_q32@workbound", "OK", 0x14650fb0739d0383ull, 2, 3, 3614, 0x33881069776798f4ull, 0x12eebd2038802b66ull},
    {"dmv/dmv_q33@workbound", "OK", 0x14650fb0739d0383ull, 0, 1, 2006, 0x9ced217a2f8ccf25ull, 0x0d201d883c1bd838ull},
    {"dmv/dmv_q34@workbound", "OK", 0x14650fb0739d0383ull, 0, 1, 1018, 0x36f6c07e4ab350d7ull, 0xab4a1f23eda726feull},
    {"dmv/dmv_q35@workbound", "OK", 0x14650fb0739d0383ull, 0, 1, 2257, 0x8f3ba318c3ed6205ull, 0x441bb440b18388aeull},
    {"dmv/dmv_q36@workbound", "OK", 0x14650fb0739d0383ull, 1, 2, 608, 0x2f42dc70931f4e79ull, 0x068c396646d34db4ull},
    {"dmv/dmv_q37@workbound", "OK", 0x14650fb0739d0383ull, 0, 1, 520, 0x888e17e064e16b1eull, 0xf89a49bc84701294ull},
    {"dmv/dmv_q38@workbound", "OK", 0x14650fb0739d0383ull, 0, 1, 500, 0x802bf3b9cdcfdc99ull, 0x4630210eb532eb27ull},
    {"dmv/dmv_q39@workbound", "OK", 0x14650fb0739d0383ull, 0, 1, 519, 0xf52dbfc6a59b44beull, 0x4b1abc8b7935f122ull},
};

uint64_t Fnv1a(const std::string& s) {
  uint64_t h = 1469598103934665603ull;  // FNV-1a offset basis.
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

struct EngineConfig {
  const char* name;
  OptimizerConfig opt;
  PopConfig pop;
};

std::vector<EngineConfig> Configs() {
  std::vector<EngineConfig> configs(5);
  configs[0].name = "default";
  configs[1].name = "mgjn_only";
  configs[1].opt.methods.enable_hsjn = false;
  configs[1].opt.methods.enable_nljn = false;
  configs[2].name = "ecb";
  configs[2].pop.enable_ecb = true;
  // The Figure 14 opportunity analysis: observed, never enforced.
  configs[3].name = "fig14";
  configs[3].pop.enable_ecb = true;
  configs[3].pop.observe_only = true;
  configs[3].pop.require_narrowed_range = false;
  configs[4].name = "workbound";
  configs[4].pop.work_bound_factor = 1.5;
  return configs;
}

struct Actual {
  std::string label;
  std::string status;
  uint64_t rows = 0;
  int reopts = 0;
  int attempts = 0;
  int64_t work = 0;
  uint64_t checks = 0;
  uint64_t feedback = 0;
  // Not pinned; summed per configuration to show the corpus exercises it.
  int merge_joins = 0;
  int fired = 0;
};

Actual RunOnce(const Catalog& catalog, const QuerySpec& query,
               const EngineConfig& config, int64_t batch_rows) {
  ProgressiveExecutor exec(catalog, config.opt, config.pop);
  QueryFeedbackStore store;
  exec.set_cross_query_store(&store);
  exec.set_batch_rows(batch_rows);
  ExecutionStats stats;
  Result<std::vector<Row>> rows = exec.Execute(query, &stats);

  Actual a;
  a.status = rows.ok() ? "OK" : rows.status().ToString();
  std::string text;
  if (rows.ok()) {
    for (const std::string& r : testing::Canonicalize(rows.value())) {
      text += r;
      text += '\n';
    }
  }
  a.rows = Fnv1a(text);
  a.reopts = stats.reopts;
  a.attempts = static_cast<int>(stats.attempts.size());
  a.work = stats.total_work;
  for (const AttemptInfo& attempt : stats.attempts) {
    for (size_t pos = attempt.plan_text.find("MGJN"); pos != std::string::npos;
         pos = attempt.plan_text.find("MGJN", pos + 1)) {
      ++a.merge_joins;
    }
  }
  text.clear();
  for (const CheckEvent& ev : stats.check_events) {
    if (ev.fired) ++a.fired;
    text += StrFormat("%llu,%d,%d,%lld,%d\n",
                      static_cast<unsigned long long>(ev.edge_set),
                      static_cast<int>(ev.flavor), static_cast<int>(ev.site),
                      static_cast<long long>(ev.count), ev.fired ? 1 : 0);
  }
  a.checks = Fnv1a(text);
  text.clear();
  for (const auto& [sig, fb] : store.Dump()) {
    text += StrFormat("%s=%.17g/%.17g\n", sig.c_str(), fb.exact,
                      fb.lower_bound);
  }
  a.feedback = Fnv1a(text);
  return a;
}

std::string FormatTable(const std::vector<Actual>& actual) {
  std::string table;
  for (const Actual& a : actual) {
    table += StrFormat(
        "    {\"%s\", \"%s\", 0x%016llxull, %d, %d, %lld, 0x%016llxull, "
        "0x%016llxull},\n",
        a.label.c_str(), a.status.c_str(),
        static_cast<unsigned long long>(a.rows), a.reopts, a.attempts,
        static_cast<long long>(a.work),
        static_cast<unsigned long long>(a.checks),
        static_cast<unsigned long long>(a.feedback));
  }
  return table;
}

/// Compares `actual` (one batch size) against the golden table; on any
/// mismatch prints the actual table so an intended change can be pasted.
void CheckGolden(const std::vector<Actual>& actual, int64_t batch_rows) {
  SCOPED_TRACE("batch_rows=" + std::to_string(batch_rows));
  std::map<std::string, const GoldenOutcome*> golden;
  for (const GoldenOutcome& g : kGoldenOutcomes) golden[g.label] = &g;
  bool mismatch = golden.size() != actual.size();
  if (mismatch) {
    ADD_FAILURE() << "golden table has " << golden.size()
                  << " entries, the corpus " << actual.size();
  }
  for (const Actual& a : actual) {
    auto it = golden.find(a.label);
    if (it == golden.end()) {
      ADD_FAILURE() << a.label << ": missing from the golden table";
      mismatch = true;
      continue;
    }
    const GoldenOutcome& g = *it->second;
    const bool same = g.status == a.status && g.rows == a.rows &&
                      g.reopts == a.reopts && g.attempts == a.attempts &&
                      g.work == a.work && g.checks == a.checks &&
                      g.feedback == a.feedback;
    EXPECT_EQ(std::string(g.status), a.status) << a.label;
    EXPECT_EQ(g.rows, a.rows) << a.label << ": result rows differ";
    EXPECT_EQ(g.reopts, a.reopts) << a.label << ": re-opts differ";
    EXPECT_EQ(g.attempts, a.attempts) << a.label << ": attempts differ";
    EXPECT_EQ(g.work, a.work) << a.label << ": work units differ";
    EXPECT_EQ(g.checks, a.checks) << a.label << ": CHECK events differ";
    EXPECT_EQ(g.feedback, a.feedback)
        << a.label << ": harvested feedback differs";
    if (!same) mismatch = true;
  }
  if (mismatch) {
    ADD_FAILURE() << "golden engine-outcome table mismatch at batch_rows="
                  << batch_rows << "; actual values:\n"
                  << FormatTable(actual);
  }
}

std::vector<Actual> RunCorpus(const testing::EngineCorpus& corpus,
                              int64_t batch_rows) {
  std::vector<Actual> out;
  for (const EngineConfig& config : Configs()) {
    for (const testing::CorpusQuery& q : corpus.queries) {
      Actual a = RunOnce(*q.catalog, q.query, config, batch_rows);
      a.label = q.label + "@" + config.name;
      out.push_back(std::move(a));
    }
  }
  return out;
}

class EngineGoldenTest : public ::testing::TestWithParam<int64_t> {
 protected:
  static void SetUpTestSuite() {
    corpus_ = new testing::EngineCorpus();
    ASSERT_TRUE(testing::BuildEngineCorpus(/*dmv_scale=*/0.05, corpus_).ok());
  }
  static void TearDownTestSuite() {
    delete corpus_;
    corpus_ = nullptr;
  }

  static testing::EngineCorpus* corpus_;
};

testing::EngineCorpus* EngineGoldenTest::corpus_ = nullptr;

TEST_P(EngineGoldenTest, OutcomesArePinned) {
  const int64_t batch_rows = GetParam();
  const std::vector<Actual> actual = RunCorpus(*corpus_, batch_rows);
  CheckGolden(actual, batch_rows);
  if (batch_rows != 1) return;
  // The corpus reaches what it pins: merge joins, enforced re-opts under
  // every enforcing configuration, and observed-only firings.
  std::map<std::string, Actual> per_config;
  for (const Actual& a : actual) {
    Actual& sum = per_config[a.label.substr(a.label.find('@') + 1)];
    sum.merge_joins += a.merge_joins;
    sum.reopts += a.reopts;
    sum.fired += a.fired;
  }
  EXPECT_GT(per_config["mgjn_only"].merge_joins, 200);
  for (const char* enforcing : {"default", "ecb", "workbound"}) {
    EXPECT_GT(per_config[enforcing].reopts, 0) << enforcing;
  }
  EXPECT_EQ(0, per_config["fig14"].reopts);
  EXPECT_GT(per_config["fig14"].fired, 0);
}

/// One row, pathological small sizes that land CHECK thresholds
/// mid-batch, the default, and a seeded random size.
INSTANTIATE_TEST_SUITE_P(
    BatchSizes, EngineGoldenTest,
    ::testing::Values(int64_t{1}, int64_t{2}, int64_t{3}, int64_t{7},
                      kDefaultBatchRows, testing::kRandomBatchRows),
    [](const ::testing::TestParamInfo<int64_t>& info) {
      return info.param == testing::kRandomBatchRows
                 ? std::string("rowsRandom")
                 : "rows" + std::to_string(info.param);
    });

}  // namespace
}  // namespace popdb
