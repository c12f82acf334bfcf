// Stale-citation check for the documentation. A bench program or a
// committed result file that a document names must exist: every
// `bench_<name>` program and `./build/bench/<name>` path must be one that
// bench/CMakeLists.txt builds, and every `BENCH_<name>.json` must be in
// the repo. Deleting a bench without its citations fails here instead of
// leaving a reader a command that cannot run.
//
// Scanned: every *.md below the repo's subdirectories (build trees and
// hidden directories skipped) and the top-level documents in
// kTopLevelDocs. ROADMAP.md and CHANGES.md are not among them: they
// record plans and history, which name programs that are gone.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace sopr {
namespace {

namespace fs = std::filesystem;

const char* const kTopLevelDocs[] = {"README.md",  "DESIGN.md",
                                     "EXPERIMENTS.md", "PAPER.md",
                                     "PAPERS.md",  "SNIPPETS.md"};

std::string ReadFile(const fs::path& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// The programs bench/CMakeLists.txt builds: the first argument of every
/// uncommented sopr_add_bench(...) or add_executable(...).
std::set<std::string> BuiltBenchPrograms(const fs::path& root) {
  std::set<std::string> programs;
  std::istringstream lines(ReadFile(root / "bench" / "CMakeLists.txt"));
  static const std::regex kTarget(
      R"(^\s*(sopr_add_bench|add_executable)\(\s*([A-Za-z0-9_]+))");
  std::string line;
  std::smatch m;
  while (std::getline(lines, line)) {
    if (std::regex_search(line, m, kTarget)) programs.insert(m[2]);
  }
  return programs;
}

std::vector<fs::path> Documents(const fs::path& root) {
  std::vector<fs::path> docs;
  for (const char* name : kTopLevelDocs) {
    if (fs::exists(root / name)) docs.push_back(root / name);
  }
  for (const auto& top : fs::directory_iterator(root)) {
    const std::string dir = top.path().filename().string();
    if (!top.is_directory() || dir.rfind('.', 0) == 0 ||
        dir.rfind("build", 0) == 0) {
      continue;
    }
    for (const auto& entry : fs::recursive_directory_iterator(top.path())) {
      if (entry.is_regular_file() && entry.path().extension() == ".md") {
        docs.push_back(entry.path());
      }
    }
  }
  std::sort(docs.begin(), docs.end());
  return docs;
}

TEST(DocCitations, EveryCitedBenchProgramAndResultFileExists) {
  const fs::path root(SOPR_REPO_SOURCE_DIR);
  ASSERT_TRUE(fs::is_directory(root / "bench")) << root;
  const std::set<std::string> built = BuiltBenchPrograms(root);
  ASSERT_FALSE(built.empty()) << "no programs parsed from bench/CMakeLists.txt";

  // `bench_<name>` not inside a longer identifier or a dotted name
  // (.bench_build is perfbench's build tree); a ".h" suffix is a header.
  static const std::regex kProgram(
      R"((^|[^A-Za-z0-9_.])(bench_[A-Za-z0-9_]+)(\.[A-Za-z]+)?)");
  static const std::regex kBuildPath(R"(build/bench/([A-Za-z0-9_]+))");
  static const std::regex kResult(R"(BENCH_[A-Za-z0-9_]+\.json)");

  std::map<std::string, std::set<std::string>> stale;  // citation -> docs
  size_t checked = 0;
  for (const fs::path& doc : Documents(root)) {
    const std::string text = ReadFile(doc);
    const std::string where = fs::relative(doc, root).string();
    for (std::sregex_iterator it(text.begin(), text.end(), kProgram), end;
         it != end; ++it) {
      if ((*it)[3] == ".h") continue;
      ++checked;
      if (built.count((*it)[2]) == 0) stale[(*it)[2]].insert(where);
    }
    for (std::sregex_iterator it(text.begin(), text.end(), kBuildPath), end;
         it != end; ++it) {
      ++checked;
      if (built.count((*it)[1]) == 0) stale[(*it)[0]].insert(where);
    }
    for (std::sregex_iterator it(text.begin(), text.end(), kResult), end;
         it != end; ++it) {
      ++checked;
      if (!fs::exists(root / it->str())) stale[it->str()].insert(where);
    }
  }
  EXPECT_GT(checked, 0u) << "the scan found no citations at all — the "
                            "extraction is broken";
  for (const auto& [citation, docs] : stale) {
    std::string in;
    for (const std::string& d : docs) in += d + " ";
    ADD_FAILURE() << in << "cite \"" << citation
                  << "\", which bench/CMakeLists.txt does not build or "
                     "the repo does not hold";
  }
}

}  // namespace
}  // namespace sopr
