// Whole-file publication that readers never see half-written.
#pragma once

#include <string>
#include <string_view>

namespace ag {

/// Writes `body` to `path` + ".tmp", flushes it, then renames it over
/// `path`. rename(2) within a directory is atomic on POSIX, so a
/// concurrent reader sees the previous complete file or the new complete
/// file, never a torn prefix. Returns false when the open, the write, the
/// flush or the rename fails.
bool write_file_atomically(const std::string& path, std::string_view body);

}  // namespace ag
