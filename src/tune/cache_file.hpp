// Persistent tuning-cache file: schema "armgemm-tune/1".
//
// The file is one JSON object:
//
//   {
//     "schema": "armgemm-tune/1",
//     "fingerprint": {"arch": "avx2-64bit", "cores": 8},
//     "entries": [ {per-key configurations, see TunedConfig fields} ]
//   }
//
// `bench/abl_autotune --native` writes it; the library only reads it. A
// cache is only trusted when its fingerprint matches the running host:
// same arch string (best-kernel ISA + pointer width) and same logical
// core count. Both are read without timing anything, so every process on
// a host agrees on whether the file applies. Keys the parser does not
// know (older files also carry calibrated constants, prefetch distances
// and probe timings) are ignored. Everything else — wrong schema, parse
// errors, truncation, entries with impossible blockings — rejects the
// file or entry without touching the caller's state, so a corrupt cache
// degrades to a cold start, never a crash.
//
// Writes publish atomically: the document goes to <path>.tmp and renames
// over <path>, so concurrent readers (another process starting up) see
// either the old or the new complete file.
#pragma once

#include <string>
#include <vector>

#include "tune/tune.hpp"

namespace ag::tune {

struct HostFingerprint {
  std::string arch;  // "<isa>-<bits>bit" of the best 8x6 kernel
  int cores = 0;

  /// True when `other` describes this machine (see header).
  bool compatible(const HostFingerprint& other) const;
};

/// The running host's fingerprint.
HostFingerprint host_fingerprint();

struct TuneCacheData {
  HostFingerprint fingerprint;
  std::vector<TunedConfig> entries;
};

enum class CacheLoadStatus {
  kOk = 0,
  kMissing,              // no file at the path
  kParseError,           // unreadable / truncated / not JSON
  kSchemaMismatch,       // wrong or absent schema tag
  kFingerprintMismatch,  // a different machine wrote it
};
const char* to_string(CacheLoadStatus s);

/// Serializes through common/json's JsonWriter.
std::string render_cache_json(const TuneCacheData& data);

/// Parses and validates `text` against `host`. On kOk, `out` holds the
/// accepted entries (each validated: positive blocking, known kind, a
/// registered kernel — bad entries are dropped and counted in
/// *rejected_entries when non-null). Other statuses leave `out` empty.
CacheLoadStatus parse_cache_json(const std::string& text, const HostFingerprint& host,
                                 TuneCacheData* out,
                                 std::uint64_t* rejected_entries = nullptr);

/// Reads + parses the file at `path`.
CacheLoadStatus load_cache_file(const std::string& path, const HostFingerprint& host,
                                TuneCacheData* out,
                                std::uint64_t* rejected_entries = nullptr);

/// Atomic publish (.tmp + rename). False on any I/O failure.
bool write_cache_file(const std::string& path, const TuneCacheData& data);

}  // namespace ag::tune
