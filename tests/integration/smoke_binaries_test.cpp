// smoke_binaries_test.cpp — build-surface smoke test.
//
// Asserts that every bench and example binary produced by this build exits 0
// when invoked with --help, that spindown_run's help names every scenario
// key, and that the quickstart example completes a tiny end-to-end
// simulation.  The binary directories and names are injected by
// tests/CMakeLists.txt at configure time.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "sys/scenario.h"

namespace {

std::vector<std::string> split_csv(const std::string& csv) {
  std::vector<std::string> out;
  std::stringstream ss{csv};
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

// Runs a command line, discarding stdout, and returns the process exit
// status (or -1 if it could not be spawned / died on a signal).
int run(const std::string& command) {
  const std::string quiet = command + " > /dev/null 2>&1";
  const int raw = std::system(quiet.c_str());
  if (raw == -1) return -1;
#if defined(WIFEXITED)
  if (!WIFEXITED(raw)) return -1;
  return WEXITSTATUS(raw);
#else
  return raw;
#endif
}

// Runs a command line and returns everything it wrote to stdout.
std::string capture(const std::string& command) {
  std::string out;
  FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) return out;
  char buf[4096];
  for (std::size_t n; (n = std::fread(buf, 1, sizeof buf, pipe)) > 0;) {
    out.append(buf, n);
  }
  pclose(pipe);
  return out;
}

class SmokeTest : public ::testing::TestWithParam<std::string> {};

TEST_P(SmokeTest, HelpExitsZero) {
  const std::string& path = GetParam();
  EXPECT_EQ(run("\"" + path + "\" --help"), 0) << "binary: " << path;
}

std::vector<std::string> all_binaries() {
  std::vector<std::string> paths;
  for (const auto& name : split_csv(SPINDOWN_BENCH_BINARIES)) {
    paths.push_back(std::string{SPINDOWN_BENCH_BIN_DIR} + "/" + name);
  }
  for (const auto& name : split_csv(SPINDOWN_EXAMPLE_BINARIES)) {
    paths.push_back(std::string{SPINDOWN_EXAMPLE_BIN_DIR} + "/" + name);
  }
  return paths;
}

std::string test_name(const ::testing::TestParamInfo<std::string>& info) {
  const auto slash = info.param.find_last_of('/');
  std::string name =
      slash == std::string::npos ? info.param : info.param.substr(slash + 1);
  for (char& c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(Binaries, SmokeTest,
                         ::testing::ValuesIn(all_binaries()), test_name);

TEST(SpindownRunHelp, NamesEveryScenarioKey) {
  // ScenarioSpec::parse lists every key it accepts in its unknown-key
  // error; --help must document each one as `key=`.
  std::string message;
  try {
    (void)spindown::sys::ScenarioSpec::parse("no-such-key=1");
  } catch (const std::invalid_argument& e) {
    message = e.what();
  }
  const auto open = message.find("(want ");
  const auto close = message.find(')', open);
  ASSERT_NE(open, std::string::npos) << message;
  ASSERT_NE(close, std::string::npos) << message;
  std::vector<std::string> keys;
  std::stringstream list{message.substr(open + 6, close - open - 6)};
  for (std::string key; std::getline(list, key, '|');) keys.push_back(key);
  ASSERT_FALSE(keys.empty());

  const std::string help = capture(
      "\"" + std::string{SPINDOWN_EXAMPLE_BIN_DIR} + "/spindown_run\" --help");
  for (const auto& key : keys) {
    EXPECT_NE(help.find(key + "="), std::string::npos)
        << "spindown_run --help omits the scenario key '" << key << "'";
  }
}

TEST(QuickstartSmoke, TinyEndToEndRunExitsZero) {
  // 500 files is the smallest round catalog whose hottest Zipf file still
  // fits one disk's service capacity (the normalizer rejects tinier ones).
  const std::string quickstart =
      std::string{SPINDOWN_EXAMPLE_BIN_DIR} + "/quickstart";
  EXPECT_EQ(run("\"" + quickstart + "\" --files 500 --rate 1.0 --seed 1"), 0);
}

}  // namespace
