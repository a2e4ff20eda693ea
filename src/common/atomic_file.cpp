#include "common/atomic_file.hpp"

#include <cstdio>
#include <fstream>

namespace ag {

bool write_file_atomically(const std::string& path, std::string_view body) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream os(tmp);
    if (!os) return false;
    os << body;
    os.flush();
    if (!os) return false;
  }
  return std::rename(tmp.c_str(), path.c_str()) == 0;
}

}  // namespace ag
