#include "bench_util.h"

#include <array>
#include <cstdio>
#include <optional>
#include <string>

#include "io/json_writer.h"
#include "util/flags.h"
#include "util/status.h"

namespace infoshield {
namespace bench {

std::string GitDescribe() {
  // popen over a library binding: the benches are leaf binaries and
  // "unknown" is an acceptable answer everywhere git is missing
  // (extracted tarballs, hermetic CI sandboxes).
  FILE* pipe =
      ::popen("git describe --always --dirty --tags 2>/dev/null", "r");
  if (pipe == nullptr) return "unknown";
  std::string out;
  std::array<char, 256> buf;
  size_t n = 0;
  while ((n = fread(buf.data(), 1, buf.size(), pipe)) > 0) {
    out.append(buf.data(), n);
  }
  const int status = ::pclose(pipe);
  while (!out.empty() && (out.back() == '\n' || out.back() == '\r')) {
    out.pop_back();
  }
  if (status != 0 || out.empty()) return "unknown";
  return out;
}

BenchJson::BenchJson(const std::string& schema) {
  writer_.BeginObject();
  writer_.Key("schema").String(schema);
  writer_.Key("git_describe").String(GitDescribe());
}

void BenchJson::Metrics(const std::map<std::string, double>& metrics) {
  for (const auto& [name, value] : metrics) {
    writer_.Key(name).Double(value);
  }
}

int BenchJson::Finish(const std::string& path) {
  writer_.EndObject();
  const Status status = WriteJsonFile(path, writer_.str() + "\n");
  if (!status.ok()) {
    std::fprintf(stderr, "cannot write %s: %s\n", path.c_str(),
                 status.ToString().c_str());
    return 1;
  }
  std::printf("wrote %s\n", path.c_str());
  return 0;
}

int UsageError(const FlagParser& flags, const std::string& program,
               const std::string& error) {
  std::fprintf(stderr, "error: %s\n\n%s", error.c_str(),
               flags.Usage(program).c_str());
  return 2;
}

std::optional<int> ParseBenchFlags(FlagParser* flags, int argc,
                                   const char* const* argv,
                                   const std::string& program) {
  flags->AddBool("help", false, "show usage");
  const Status status = flags->Parse(argc, argv);
  if (!status.ok()) return UsageError(*flags, program, status.ToString());
  if (!flags->positional().empty()) {
    return UsageError(*flags, program,
                      "unexpected argument '" +
                          flags->positional().front() + "'");
  }
  if (flags->GetBool("help")) {
    std::fputs(flags->Usage(program).c_str(), stdout);
    return 0;
  }
  return std::nullopt;
}

}  // namespace bench
}  // namespace infoshield
