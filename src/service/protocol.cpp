#include "service/protocol.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <sstream>
#include <string_view>
#include <vector>

#include "bench_core/sweep.hpp"  // splitmix64
#include "common/base64.hpp"
#include "common/json.hpp"
#include "common/sha256.hpp"
#include "sim/config.hpp"

namespace am::service {

namespace {

/// Canonical number rendering: integers print without a fraction, other
/// values go through the writer's %.12g convention. Keeps "16", "16.0" and
/// "1.6e1" canonically identical.
std::string canon_number(double v) {
  if (std::isfinite(v) && v == std::floor(v) && std::abs(v) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.0f", v);
    return buf;
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.12g", v);
  return buf;
}

/// The value canon_number(@p v) spells. Requests store numbers at this value
/// so handlers compute on exactly what the cache key names: two spellings
/// that differ past the 12th significant digit share a key, and must
/// therefore share an answer. Integers and values with at most 12
/// significant digits are unchanged.
double canon_value(double v) {
  return std::strtod(canon_number(v).c_str(), nullptr);
}

std::string lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return s;
}

std::string upper(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return std::toupper(c); });
  return s;
}

/// A member name @p obj repeats, if any. JsonValue::find returns the first
/// of equal names, so an object that repeats one is refused rather than read
/// first-wins. Sorting keeps the scan O(n log n) on hostile input.
std::optional<std::string_view> repeated_member(const JsonValue& obj) {
  std::vector<std::string_view> names;
  names.reserve(obj.members().size());
  for (const auto& member : obj.members()) names.push_back(member.first);
  std::sort(names.begin(), names.end());
  const auto dup = std::adjacent_find(names.begin(), names.end());
  if (dup == names.end()) return std::nullopt;
  return *dup;
}

/// Field extraction with error accumulation; every getter appends to @p err
/// on type/domain violations so one parse reports every problem at once.
struct Fields {
  const JsonValue& obj;
  std::string& err;

  void fail(const std::string& m) {
    if (!err.empty()) err += "; ";
    err += m;
  }

  std::string get_string(const char* key, const std::string& def) {
    const JsonValue* v = obj.find(key);
    if (v == nullptr) return def;
    if (v->type() != JsonValue::Type::kString) {
      fail(std::string(key) + " must be a string");
      return def;
    }
    return v->as_string();
  }

  double get_number(const char* key, double def, double lo, double hi) {
    const JsonValue* v = obj.find(key);
    if (v == nullptr) return def;
    if (v->type() != JsonValue::Type::kNumber) {
      fail(std::string(key) + " must be a number");
      return def;
    }
    const double x = canon_value(v->as_number());
    if (!(x >= lo && x <= hi)) {
      fail(std::string(key) + " out of range [" + canon_number(lo) + ", " +
           canon_number(hi) + "]");
      return def;
    }
    return x;
  }

  std::uint64_t get_uint(const char* key, std::uint64_t def,
                         std::uint64_t lo, std::uint64_t hi) {
    const JsonValue* v = obj.find(key);
    if (v == nullptr) return def;
    if (v->type() != JsonValue::Type::kNumber ||
        v->as_number() != std::floor(v->as_number()) || v->as_number() < 0) {
      fail(std::string(key) + " must be a non-negative integer");
      return def;
    }
    // Plain digits are taken exactly. Other spellings (4.0, 1e3) went
    // through a double, which is exact only below 2^53; 2^64 and above
    // (infinity included) have no uint64_t value at all.
    std::uint64_t x = 0;
    if (const auto exact = v->as_uint()) {
      x = *exact;
    } else if (v->as_number() >= 0x1p64) {
      fail(std::string(key) + " out of range");
      return def;
    } else if (v->as_number() >= 0x1p53) {
      fail(std::string(key) +
           " is not exact: write integers of 2^53 or more as plain digits");
      return def;
    } else {
      x = static_cast<std::uint64_t>(v->as_number());
    }
    if (x < lo || x > hi) {
      fail(std::string(key) + " out of range");
      return def;
    }
    return x;
  }
};

/// Reads the (lowercased) machine member; it must name a sim preset.
void parse_machine(Fields& f, std::string& machine) {
  machine = lower(f.get_string("machine", machine));
  if (std::ranges::find(sim::kPresetNames, machine) ==
      sim::kPresetNames.end()) {
    f.fail("machine must be " + sim::preset_names("|"));
  }
}

std::optional<Primitive> parse_prim_loose(const std::string& name) {
  return parse_primitive(upper(name));
}

void parse_point(Fields& f, PointQuery& q, bool is_simulate) {
  parse_machine(f, q.machine);
  q.mode = lower(f.get_string("mode", q.mode));
  if (q.mode != "shared" && q.mode != "private" && q.mode != "mixed" &&
      q.mode != "zipf") {
    f.fail("mode must be shared|private|mixed|zipf");
  }
  const std::string prim = f.get_string("prim", to_string(q.prim));
  if (const auto p = parse_prim_loose(prim)) {
    q.prim = *p;
  } else {
    f.fail("unknown prim '" + prim + "'");
  }
  q.threads = static_cast<std::uint32_t>(f.get_uint("threads", 1, 1, 1024));
  q.work = f.get_number("work", 0.0, 0.0, 1e12);
  if (q.mode == "mixed") {
    q.write_fraction = f.get_number("write_fraction", 0.1, 0.0, 1.0);
  }
  if (q.mode == "zipf") {
    q.zipf_lines = f.get_uint("zipf_lines", 64, 1, 1u << 20);
    q.zipf_s = f.get_number("zipf_s", 0.99, 0.0, 10.0);
  }
  if (is_simulate) q.seed = f.get_uint("seed", 1, 0, ~std::uint64_t{0});
}

void parse_advise(Fields& f, AdviseQuery& q) {
  parse_machine(f, q.machine);
  q.target = lower(f.get_string("target", q.target));
  if (q.target != "counter" && q.target != "lock" && q.target != "backoff") {
    f.fail("target must be counter|lock|backoff");
  }
  q.threads = static_cast<std::uint32_t>(f.get_uint("threads", 1, 1, 1024));
  if (q.target == "counter") q.work = f.get_number("work", 0.0, 0.0, 1e12);
  if (q.target == "lock") {
    q.critical = f.get_number("critical", 100.0, 0.0, 1e12);
    q.outside = f.get_number("outside", 0.0, 0.0, 1e12);
  }
}

void parse_calibrate(Fields& f, CalibrateQuery& q) {
  parse_machine(f, q.machine);
  const JsonValue* samples = f.obj.find("samples");
  if (samples == nullptr || samples->type() != JsonValue::Type::kArray) {
    f.fail("samples must be an array");
    return;
  }
  if (samples->size() > 4096) {
    f.fail("too many samples (max 4096)");
    return;
  }
  for (std::size_t i = 0; i < samples->size(); ++i) {
    const JsonValue* s = samples->at(i);
    if (s->type() != JsonValue::Type::kObject) {
      f.fail("samples[" + std::to_string(i) + "] must be an object");
      continue;
    }
    if (const auto dup = repeated_member(*s)) {
      f.fail("samples[" + std::to_string(i) + "] has duplicate member '" +
             std::string(*dup) + "'");
      continue;
    }
    Fields sf{*s, f.err};
    CalibrateSample out;
    out.mode = lower(sf.get_string("mode", "private"));
    if (out.mode != "private" && out.mode != "shared") {
      f.fail("sample mode must be private|shared");
    }
    const std::string prim = sf.get_string("prim", "FAA");
    if (const auto p = parse_prim_loose(prim)) {
      out.prim = *p;
    } else {
      f.fail("unknown sample prim '" + prim + "'");
    }
    out.threads =
        static_cast<std::uint32_t>(sf.get_uint("threads", 1, 1, 1024));
    out.cycles_per_op = sf.get_number("cycles_per_op", 0.0, 1e-9, 1e12);
    q.samples.push_back(std::move(out));
  }
  if (q.samples.empty()) f.fail("samples must not be empty");
}

void parse_guest(Fields& f, GuestQuery& q) {
  parse_machine(f, q.machine);
  q.memory_model = lower(f.get_string("memory_model", q.memory_model));
  if (q.memory_model != "sc" && q.memory_model != "tso") {
    f.fail("memory_model must be sc|tso");
  }
  q.harts = static_cast<std::uint32_t>(f.get_uint("harts", 1, 1, 256));
  q.seed = f.get_uint("seed", 1, 0, ~std::uint64_t{0});
  const std::string b64 = f.get_string("elf", "");
  if (b64.empty()) {
    f.fail("elf (base64) is required");
    return;
  }
  std::string decoded;
  if (!base64_decode(b64, &decoded)) {
    f.fail("elf is not valid base64");
    return;
  }
  if (decoded.empty() || decoded.size() > kMaxGuestElfBytes) {
    f.fail("elf must decode to 1.." + std::to_string(kMaxGuestElfBytes) +
           " bytes");
    return;
  }
  q.elf.assign(decoded.begin(), decoded.end());
  q.elf_sha = guest_elf_sha(decoded);
}

}  // namespace

const char* to_string(RequestKind k) noexcept {
  switch (k) {
    case RequestKind::kPredict: return "predict";
    case RequestKind::kAdvise: return "advise";
    case RequestKind::kCalibrate: return "calibrate";
    case RequestKind::kSimulate: return "simulate";
    case RequestKind::kStats: return "stats";
    case RequestKind::kPing: return "ping";
    case RequestKind::kMetrics: return "metrics";
    case RequestKind::kRunGuest: return "run_guest";
  }
  return "?";
}

std::optional<RequestKind> parse_kind(std::string_view name) noexcept {
  for (RequestKind k :
       {RequestKind::kPredict, RequestKind::kAdvise, RequestKind::kCalibrate,
        RequestKind::kSimulate, RequestKind::kStats, RequestKind::kPing,
        RequestKind::kMetrics, RequestKind::kRunGuest}) {
    if (name == to_string(k)) return k;
  }
  return std::nullopt;
}

std::optional<Request> parse_request(std::string_view line,
                                     std::string* error) {
  auto fail = [&](const std::string& m) -> std::optional<Request> {
    if (error != nullptr) *error = m;
    return std::nullopt;
  };
  std::string parse_err;
  const auto doc = JsonValue::parse(line, &parse_err);
  if (!doc.has_value()) return fail("malformed JSON: " + parse_err);
  if (doc->type() != JsonValue::Type::kObject) {
    return fail("request must be a JSON object");
  }
  if (const auto dup = repeated_member(*doc)) {
    return fail("duplicate member '" + std::string(*dup) + "'");
  }

  std::string err;
  Fields f{*doc, err};
  const std::string version = f.get_string("v", kProtocolVersion);
  if (version != kProtocolVersion) {
    return fail("unsupported protocol version '" + version + "'");
  }

  Request r;
  r.id = f.get_string("id", "");
  const std::string kind = lower(f.get_string("kind", ""));
  const auto k = parse_kind(kind);
  if (!k.has_value()) {
    return fail("unknown kind '" + kind +
                "' (want predict|advise|calibrate|simulate|stats|ping|"
                "metrics|run_guest)");
  }
  r.kind = *k;

  switch (r.kind) {
    case RequestKind::kPredict:
      parse_point(f, r.point, /*is_simulate=*/false);
      break;
    case RequestKind::kSimulate:
      parse_point(f, r.point, /*is_simulate=*/true);
      break;
    case RequestKind::kAdvise:
      parse_advise(f, r.advise);
      break;
    case RequestKind::kCalibrate:
      parse_calibrate(f, r.calibrate);
      break;
    case RequestKind::kRunGuest:
      parse_guest(f, r.guest);
      break;
    case RequestKind::kStats:
    case RequestKind::kPing:
    case RequestKind::kMetrics:
      break;
  }
  if (!err.empty()) return fail(err);
  return r;
}

std::string canonical_request(const Request& r) {
  // Built by hand (not through JsonWriter): every member here is a
  // controlled token, and the canonical form must never drift with writer
  // formatting changes — it is hashed into cache keys.
  std::string s = "{\"kind\":\"";
  s += to_string(r.kind);
  s += '"';
  auto str = [&s](const char* k, const std::string& v) {
    s += ",\"";
    s += k;
    s += "\":\"";
    s += v;
    s += '"';
  };
  auto num = [&s](const char* k, double v) {
    s += ",\"";
    s += k;
    s += "\":";
    s += canon_number(v);
  };
  auto uint = [&s](const char* k, std::uint64_t v) {
    s += ",\"";
    s += k;
    s += "\":";
    s += std::to_string(v);
  };
  switch (r.kind) {
    case RequestKind::kPredict:
    case RequestKind::kSimulate: {
      const PointQuery& q = r.point;
      str("machine", q.machine);
      str("mode", q.mode);
      str("prim", am::to_string(q.prim));
      uint("threads", q.threads);
      num("work", q.work);
      if (q.mode == "mixed") num("write_fraction", q.write_fraction);
      if (q.mode == "zipf") {
        uint("zipf_lines", q.zipf_lines);
        num("zipf_s", q.zipf_s);
      }
      if (r.kind == RequestKind::kSimulate) uint("seed", q.seed);
      break;
    }
    case RequestKind::kAdvise: {
      const AdviseQuery& q = r.advise;
      str("machine", q.machine);
      str("target", q.target);
      uint("threads", q.threads);
      if (q.target == "counter") num("work", q.work);
      if (q.target == "lock") {
        num("critical", q.critical);
        num("outside", q.outside);
      }
      break;
    }
    case RequestKind::kCalibrate: {
      const CalibrateQuery& q = r.calibrate;
      str("machine", q.machine);
      s += ",\"samples\":[";
      for (std::size_t i = 0; i < q.samples.size(); ++i) {
        const CalibrateSample& sm = q.samples[i];
        if (i > 0) s += ',';
        s += "{\"mode\":\"" + sm.mode + "\",\"prim\":\"";
        s += am::to_string(sm.prim);
        s += "\",\"threads\":" + std::to_string(sm.threads) +
             ",\"cycles_per_op\":" + canon_number(sm.cycles_per_op) + "}";
      }
      s += ']';
      break;
    }
    case RequestKind::kRunGuest: {
      const GuestQuery& q = r.guest;
      str("machine", q.machine);
      str("memory_model", q.memory_model);
      uint("harts", q.harts);
      uint("seed", q.seed);
      // The binary participates via its content hash, not its (possibly
      // re-encoded) base64 spelling — see GuestQuery.
      str("elf_sha", q.elf_sha);
      break;
    }
    case RequestKind::kStats:
    case RequestKind::kPing:
    case RequestKind::kMetrics:
      break;
  }
  s += '}';
  return s;
}

std::string guest_elf_sha(std::string_view elf_bytes) {
  return sha256_hex(elf_bytes, 16);
}

std::uint64_t chain_hash(std::string_view bytes,
                         std::uint64_t seed_salt) noexcept {
  // splitmix64 chaining in 8-byte chunks: the same finalizer the sweep
  // engine uses for per-point seeds, applied as a running mix.
  std::uint64_t h = bench::splitmix64(seed_salt ^ bytes.size());
  std::size_t i = 0;
  while (i + 8 <= bytes.size()) {
    std::uint64_t chunk = 0;
    for (int b = 0; b < 8; ++b) {
      chunk |= static_cast<std::uint64_t>(
                   static_cast<unsigned char>(bytes[i + b]))
               << (8 * b);
    }
    h = bench::splitmix64(h ^ chunk);
    i += 8;
  }
  std::uint64_t tail = 0;
  int shift = 0;
  for (; i < bytes.size(); ++i, shift += 8) {
    tail |= static_cast<std::uint64_t>(static_cast<unsigned char>(bytes[i]))
            << shift;
  }
  return bench::splitmix64(h ^ tail);
}

std::string request_cache_key(const Request& r) {
  return sha256_hex(canonical_request(r), 16);
}

std::string make_result_response(const Request& r,
                                 const std::string& result_json) {
  std::string out = "{\"v\":\"";
  out += kProtocolVersion;
  out += "\"";
  if (!r.id.empty()) {
    out += ",\"id\":\"" + json_escape(r.id) + "\"";
  }
  out += ",\"kind\":\"";
  out += to_string(r.kind);
  out += "\",\"ok\":true,\"result\":";
  out += result_json;
  out += "}\n";
  return out;
}

std::string make_error_response(const std::string& id,
                                const std::string& message) {
  std::string out = "{\"v\":\"";
  out += kProtocolVersion;
  out += "\"";
  if (!id.empty()) out += ",\"id\":\"" + json_escape(id) + "\"";
  out += ",\"ok\":false,\"error\":\"" + json_escape(message) + "\"}\n";
  return out;
}

std::string make_error_response(const std::string& id, const std::string& code,
                                const std::string& message) {
  std::string out = "{\"v\":\"";
  out += kProtocolVersion;
  out += "\"";
  if (!id.empty()) out += ",\"id\":\"" + json_escape(id) + "\"";
  out += ",\"ok\":false,\"code\":\"" + json_escape(code) +
         "\",\"error\":\"" + json_escape(message) + "\"}\n";
  return out;
}

std::string response_error_code(std::string_view response_line) {
  const auto doc = JsonValue::parse(std::string(response_line));
  if (!doc.has_value()) return "";
  const JsonValue* ok = doc->find("ok");
  if (ok == nullptr || ok->as_bool()) return "";
  const JsonValue* code = doc->find("code");
  if (code == nullptr || code->type() != JsonValue::Type::kString) return "";
  return code->as_string();
}

}  // namespace am::service
