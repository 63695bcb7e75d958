// Corpus replay for a libFuzzer-style harness: feeds every file named on
// the command line, or found directly inside a named directory, to
// `LLVMFuzzerTestOneInput` once, in sorted order. A harness aborts on a
// finding, so the replay passes when every input returns.
//
//   fuzz_decode_block tests/fuzz/corpus/decode_block

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size);

int main(int argc, char** argv) {
  namespace fs = std::filesystem;
  std::vector<fs::path> inputs;
  for (int i = 1; i < argc; ++i) {
    const fs::path path(argv[i]);
    if (fs::is_directory(path)) {
      for (const fs::directory_entry& entry : fs::directory_iterator(path))
        if (entry.is_regular_file()) inputs.push_back(entry.path());
    } else {
      inputs.push_back(path);
    }
  }
  std::sort(inputs.begin(), inputs.end());
  if (inputs.empty()) {
    std::fprintf(stderr, "usage: %s <corpus file or directory>...\n",
                 argv[0]);
    return 2;
  }
  for (const fs::path& path : inputs) {
    std::ifstream is(path, std::ios::binary);
    if (!is) {
      std::fprintf(stderr, "cannot read %s\n", path.c_str());
      return 1;
    }
    const std::string bytes{std::istreambuf_iterator<char>(is),
                            std::istreambuf_iterator<char>()};
    std::printf("%s (%zu bytes)\n", path.c_str(), bytes.size());
    std::fflush(stdout);
    LLVMFuzzerTestOneInput(reinterpret_cast<const std::uint8_t*>(bytes.data()),
                           bytes.size());
  }
  std::printf("replayed %zu inputs\n", inputs.size());
  return 0;
}
