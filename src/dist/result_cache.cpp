#include "dist/result_cache.hpp"

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <system_error>
#include <thread>

namespace profisched::dist {

namespace fs = std::filesystem;

namespace {

constexpr const char* kMagic = "profisched-cache";

void append_hex64(std::string& out, std::uint64_t v) {
  static constexpr char kDigits[] = "0123456789abcdef";
  for (int shift = 60; shift >= 0; shift -= 4) out += kDigits[(v >> shift) & 0xf];
}

}  // namespace

std::string ResultCache::entry_name(const engine::CacheKey& key) {
  std::string name;
  name.reserve(32);
  append_hex64(name, key.scenario);
  append_hex64(name, key.params);
  return name;
}

std::string ResultCache::entry_path(const engine::CacheKey& key) const {
  const std::string name = entry_name(key);
  return dir_ + '/' + name.substr(0, 2) + '/' + name;
}

ResultCache::ResultCache(std::string dir, std::chrono::seconds orphan_min_age)
    : dir_(std::move(dir)) {
  std::error_code ec;
  fs::create_directories(dir_, ec);
  if (!fs::is_directory(dir_, ec)) {
    throw std::runtime_error("ResultCache: cannot create cache directory '" + dir_ + "'");
  }
  sweep_orphaned_tmp(orphan_min_age);
}

void ResultCache::sweep_orphaned_tmp(std::chrono::seconds min_age) {
  // A writer that died between create and rename() leaves its scratch file
  // behind forever — nothing else ever opens a `*.tmp.*` name. The age gate
  // is what makes the sweep safe against writers that are merely alive in
  // another process right now: their scratch files are seconds old.
  std::error_code ec;
  const auto now = fs::file_time_type::clock::now();
  fs::recursive_directory_iterator it(dir_, fs::directory_options::skip_permission_denied, ec);
  const fs::recursive_directory_iterator end;
  while (!ec && it != end) {
    const fs::path path = it->path();
    const bool is_file = it->is_regular_file(ec);
    if (!ec && is_file && path.filename().string().find(".tmp.") != std::string::npos) {
      const auto mtime = fs::last_write_time(path, ec);
      if (!ec && now - mtime >= min_age) {
        std::error_code rm_ec;
        if (fs::remove(path, rm_ec)) obs_orphans_.add(1);
      }
    }
    ec.clear();
    it.increment(ec);
  }
}

bool ResultCache::load(const engine::CacheKey& key, std::string& payload) {
  // `heal` distinguishes "no entry" from "entry present but refused": the
  // refused file will be recomputed and overwritten — a self-heal worth
  // counting separately from cold misses.
  const auto miss = [this](bool heal = false) {
    obs_misses_.add(1);
    if (heal) obs_heals_.add(1);
    return false;
  };
  std::ifstream is(entry_path(key), std::ios::binary);
  if (!is) return miss();

  // Header: "<magic> v<version>\nkey <32 hex>\nlen <bytes>\n<payload>".
  // Every mismatch — wrong version, foreign key (hash collision or renamed
  // file), bad length, short read, trailing junk — rejects the entry.
  std::string magic, version, kw, key_hex, len_str;
  if (!(is >> magic >> version >> kw >> key_hex) || magic != kMagic ||
      version != 'v' + std::to_string(kFormatVersion) || kw != "key" ||
      key_hex != entry_name(key)) {
    return miss(true);
  }
  std::size_t len = 0;
  if (!(is >> kw >> len_str) || kw != "len") return miss(true);
  try {
    len = std::stoul(len_str);
  } catch (...) {
    return miss(true);
  }
  if (is.get() != '\n' || len > (std::size_t{1} << 30)) return miss(true);

  std::string body(len, '\0');
  is.read(body.data(), static_cast<std::streamsize>(len));
  if (static_cast<std::size_t>(is.gcount()) != len ||
      is.get() != std::ifstream::traits_type::eof()) {
    return miss(true);
  }
  payload = std::move(body);
  obs_hits_.add(1);
  obs_bytes_read_.add(len);
  return true;
}

void ResultCache::store(const engine::CacheKey& key, const std::string& payload) {
  try {
    const std::string final_path = entry_path(key);
    // The 2-hex fan-out subdirectory; idempotent and cheap, and keeping it
    // per-store (rather than 256 mkdirs up front) leaves an unused cache
    // directory empty.
    std::error_code dir_ec;
    fs::create_directories(fs::path(final_path).parent_path(), dir_ec);
    // Temp name unique across threads AND processes sharing the directory —
    // the pid is what separates two single-threaded processes whose main
    // threads can hash identically and whose counters both start at 0.
    std::ostringstream tmp;
    tmp << final_path << ".tmp." << ::getpid() << '.'
        << std::hash<std::thread::id>{}(std::this_thread::get_id()) << '.'
        << tmp_seq_.fetch_add(1);
    const std::string tmp_path = tmp.str();
    {
      std::ofstream os(tmp_path, std::ios::binary | std::ios::trunc);
      os << kMagic << " v" << kFormatVersion << '\n'
         << "key " << entry_name(key) << '\n'
         << "len " << payload.size() << '\n'
         << payload;
      os.flush();
      if (!os.good()) {
        os.close();
        std::error_code ec;
        fs::remove(tmp_path, ec);
        return;  // advisory: a failed store is just a future miss
      }
    }
    std::error_code ec;
    fs::rename(tmp_path, final_path, ec);
    if (ec) {
      fs::remove(tmp_path, ec);
      return;
    }
    obs_stores_.add(1);
    obs_bytes_written_.add(payload.size());
  } catch (...) {
    // Never let cache I/O take down the sweep.
  }
}

}  // namespace profisched::dist
