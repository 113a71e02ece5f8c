// Fixture: fires binary-file-io — a src/ file outside
// src/util/serialize.* opening a binary file stream itself.
#include <fstream>
#include <string>

void FixtureBinaryFileIo(const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  out << "bytes";
}
