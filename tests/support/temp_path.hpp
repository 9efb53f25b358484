// Shared test helper: a scratch-file path of the running test's own. It
// joins the test suite and test name with the process id, so cases that
// ctest runs in parallel (one process per case) never share, overwrite or
// delete each other's file.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <string>

namespace rtopex::test {

/// TempDir()/rtopex_<suite>_<test>_<pid><suffix>; call it from a running
/// test (a fixture's SetUp or the test body).
inline std::string temp_path_for_this_test(const std::string& suffix) {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  std::string name =
      std::string(info->test_suite_name()) + "_" + info->name();
  for (char& c : name)
    if (c == '/') c = '_';  // parameterized names
  return ::testing::TempDir() + "/rtopex_" + name + "_" +
         std::to_string(::getpid()) + suffix;
}

}  // namespace rtopex::test
