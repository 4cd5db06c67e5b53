// serve_hot and serve_cold: closed loops against an in-process Server +
// ServiceCore over loopback TCP.
//
// Each client connection is one closed loop (it sends its next request only
// after the previous reply arrived) over an endless seed-generated request
// stream cut into blocks. A block balances the mix exactly, so every seed
// offers the same load shape; connections stop only at block ends.
//   serve_hot : blocks of 9 requests for a resident hot set of predict and
//               advise keys (warmed during set-up) plus 1 never-seen predict
//               key. The LRU holds the hot set but is smaller than the miss
//               stream, so misses evict.
//   serve_cold: blocks of 24 never-seen requests (8 simulate shapes: both
//               presets x four sharing modes; 16 run_guest shapes: the four
//               corpus kernels x 2/4 harts x sc/tso), each with a unique
//               seed, plus 3 repeats of earlier requests of the same block.
//
// Checks (they feed error_ratio; any failure makes the run incorrect):
//   - every reply is an ok envelope;
//   - a repeated key gets the same bytes as before (id aside);
//   - every run_guest hart exits 0 (the corpus kernels check themselves);
//   - in a traced run, replies rebuilt in-process from the public calls are
//     byte-equal to what the server sent.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <thread>

#include "bench.hpp"
#include "bench_core/sim_backend.hpp"
#include "bench_core/sweep.hpp"
#include "common/base64.hpp"
#include "common/json.hpp"
#include "common/random.hpp"
#include "guest/corpus.hpp"
#include "guest/elf.hpp"
#include "guest/runner.hpp"
#include "model/advisor.hpp"
#include "model/bouncing_model.hpp"
#include "model/params.hpp"
#include "obs/metrics.hpp"
#include "service/client.hpp"
#include "service/lru_cache.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"
#include "sim/config.hpp"

namespace perfbench {
namespace {

using am::service::HandleResult;
using am::service::Request;
using am::service::RequestKind;

constexpr unsigned kConnections = 2;     // client threads
constexpr unsigned kServiceThreads = 2;  // server workers; sum <= nproc
constexpr int kSetups = 5;               // set-up repetitions (median reported)

// --- request streams -----------------------------------------------------------

struct Line {
  std::string text;   ///< the request line (no '\n')
  std::string id;
  RequestKind kind = RequestKind::kPing;
  int repeat_of = -1;  ///< index in the block of the request this repeats
  bool hot = false;    ///< serve_hot: a key of the resident set
  int hot_index = -1;
};

const char* const kPrims[] = {"FAA", "SWP", "CAS", "CASLOOP", "LOAD"};
const char* const kModes[] = {"shared", "private", "mixed", "zipf"};
const char* const kMachines[] = {"xeon", "knl"};

std::string predict_body(const char* machine, const char* mode,
                         const char* prim, std::uint64_t threads, double work) {
  std::ostringstream os;
  os.precision(17);
  os << "\"kind\":\"predict\",\"machine\":\"" << machine << "\",\"mode\":\""
     << mode << "\",\"prim\":\"" << prim << "\",\"threads\":" << threads
     << ",\"work\":" << work;
  return os.str();
}

std::string with_id(const std::string& id, const std::string& body) {
  return "{\"v\":\"am-serve/1\",\"id\":\"" + id + "\"," + body + "}";
}

/// The resident hot set of serve_hot: 48 predict + 16 advise keys.
std::vector<std::pair<RequestKind, std::string>> hot_set(std::uint64_t seed) {
  am::Xoshiro256 rng(mix(seed, 0x407));
  std::vector<std::pair<RequestKind, std::string>> out;
  for (int i = 0; i < 48; ++i) {
    const char* machine = kMachines[i % 2];
    out.emplace_back(
        RequestKind::kPredict,
        predict_body(machine, kModes[(i / 2) % 4], kPrims[(i / 8) % 5],
                     2 + rng.next_below(31),
                     static_cast<double>(rng.next_below(2000))));
  }
  const char* const targets[] = {"counter", "lock", "backoff"};
  for (int i = 0; i < 16; ++i) {
    std::ostringstream os;
    const char* target = targets[i % 3];
    os << "\"kind\":\"advise\",\"machine\":\"" << kMachines[i % 2]
       << "\",\"target\":\"" << target
       << "\",\"threads\":" << 2 + rng.next_below(31);
    if (std::string(target) == "counter") {
      os << ",\"work\":" << rng.next_below(2000);
    } else if (std::string(target) == "lock") {
      os << ",\"critical\":" << 50 + rng.next_below(500)
         << ",\"outside\":" << rng.next_below(2000);
    }
    out.emplace_back(RequestKind::kAdvise, os.str());
  }
  return out;
}

struct GuestKernel {
  std::string name;
  std::string elf_b64;
};

/// One block of a connection's stream. @p block counts blocks of this
/// connection; ids are "<c>-<block>-<i>".
std::vector<Line> hot_block(std::uint64_t seed, unsigned c, std::uint64_t block,
                            const std::vector<std::pair<RequestKind, std::string>>& hot) {
  am::Xoshiro256 rng(mix(mix(seed, c), block));
  std::vector<Line> out(10);
  const std::uint64_t cold_pos = rng.next_below(10);
  const std::string prefix =
      std::to_string(c) + "-" + std::to_string(block) + "-";
  for (std::uint64_t i = 0; i < 10; ++i) {
    Line& l = out[i];
    l.id = prefix + std::to_string(i);
    if (i == cold_pos) {
      // Never seen: the work value encodes (connection, block). The shape
      // cycles with k, thread count (the main cost driver) fastest, so
      // every seed and every second of the run gets the same mix of miss
      // costs.
      const std::uint64_t k = block * kConnections + c;
      const double work = 1e6 + static_cast<double>(k) + 0.5;
      l.kind = RequestKind::kPredict;
      l.text = with_id(l.id, predict_body(kMachines[(k / 31) % 2],
                                          kModes[(k / 62) % 4],
                                          kPrims[(k / 248) % 5], 2 + k % 31,
                                          work));
    } else {
      l.hot = true;
      l.hot_index = static_cast<int>(rng.next_below(hot.size()));
      l.kind = hot[static_cast<std::size_t>(l.hot_index)].first;
      l.text = with_id(l.id, hot[static_cast<std::size_t>(l.hot_index)].second);
    }
  }
  return out;
}

constexpr std::size_t kColdFresh = 24;
constexpr std::size_t kColdRepeats = 3;

std::vector<Line> cold_block(std::uint64_t seed, unsigned c, std::uint64_t block,
                             const std::vector<GuestKernel>& kernels) {
  am::Xoshiro256 rng(mix(mix(seed, c + 100), block));
  std::vector<std::string> bodies;
  std::vector<RequestKind> kinds;
  const char* const sim_prims[] = {"FAA", "SWP", "CAS", "CASLOOP"};
  for (int m = 0; m < 2; ++m) {
    for (int mode = 0; mode < 4; ++mode) {
      std::ostringstream os;
      os << "\"kind\":\"simulate\",\"machine\":\"" << kMachines[m]
         << "\",\"mode\":\"" << kModes[mode] << "\",\"prim\":\""
         << sim_prims[mode] << "\",\"threads\":8,\"work\":100,\"seed\":"
         << (rng.next() | 1);
      bodies.push_back(os.str());
      kinds.push_back(RequestKind::kSimulate);
    }
  }
  for (const GuestKernel& k : kernels) {
    for (const unsigned harts : {2u, 4u}) {
      for (const char* mm : {"sc", "tso"}) {
        std::ostringstream os;
        os << "\"kind\":\"run_guest\",\"machine\":\""
           << (harts == 2 ? "xeon" : "knl") << "\",\"memory_model\":\"" << mm
           << "\",\"harts\":" << harts << ",\"seed\":" << (rng.next() | 1)
           << ",\"elf\":\"" << k.elf_b64 << "\"";
        bodies.push_back(os.str());
        kinds.push_back(RequestKind::kRunGuest);
      }
    }
  }
  // Seeded order inside the block.
  std::vector<std::size_t> order(bodies.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.next_below(i)]);
  }
  const std::string prefix =
      std::to_string(c) + "-" + std::to_string(block) + "-";
  std::vector<Line> out;
  for (std::size_t i = 0; i < order.size(); ++i) {
    Line l;
    l.id = prefix + std::to_string(i);
    l.kind = kinds[order[i]];
    l.text = with_id(l.id, bodies[order[i]]);
    out.push_back(std::move(l));
  }
  for (std::size_t r = 0; r < kColdRepeats; ++r) {
    // Repeat one of the fresh requests already answered in this block; the
    // repeats sit at the block's end, so every original came first.
    const std::size_t of = rng.next_below(kColdFresh);
    Line l = out[of];
    l.repeat_of = static_cast<int>(of);
    out.push_back(std::move(l));
  }
  return out;
}

// --- response helpers ------------------------------------------------------------

/// The reply with its id member removed, for comparing replies to one key.
std::string strip_id(const std::string& reply, const std::string& id) {
  const std::string member = ",\"id\":\"" + id + "\"";
  const std::size_t at = reply.find(member);
  if (at == std::string::npos) return reply;
  return reply.substr(0, at) + reply.substr(at + member.size());
}

bool is_ok(const std::string& reply) {
  return reply.find("\"ok\":true") != std::string::npos;
}

/// The serialized result object inside a success envelope, or "".
std::string result_of(std::string reply) {
  if (!reply.empty() && reply.back() == '\n') reply.pop_back();
  const std::string marker = "\"ok\":true,\"result\":";
  const std::size_t at = reply.find(marker);
  if (at == std::string::npos || reply.empty() || reply.back() != '}') return "";
  return reply.substr(at + marker.size(),
                      reply.size() - 1 - (at + marker.size()));
}

/// Checks a run_guest reply: every hart exited with code 0. Returns the
/// retired guest instructions (0 when the check fails).
std::uint64_t guest_reply_instructions(const std::string& reply) {
  const auto doc = am::JsonValue::parse(reply);
  if (!doc) return 0;
  const am::JsonValue* result = doc->find("result");
  if (result == nullptr) return 0;
  const am::JsonValue* harts = result->find("hart_reports");
  const am::JsonValue* instr = result->find("instructions");
  if (harts == nullptr || instr == nullptr || harts->size() == 0) return 0;
  for (std::size_t i = 0; i < harts->size(); ++i) {
    const am::JsonValue* code = harts->at(i)->find("exit_code");
    if (code == nullptr || code->as_number() != 0.0) return 0;
  }
  return static_cast<std::uint64_t>(instr->as_number());
}

// --- the service under test --------------------------------------------------------

struct Service {
  std::unique_ptr<am::service::ServiceCore> core;
  std::unique_ptr<TimedHandler> timed;
  std::unique_ptr<am::service::Server> server;
  am::service::Endpoint endpoint;

  ~Service() { stop(); }
  Service() = default;
  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  /// Binds a server (over the plain core, or over a timing decorator).
  bool start(bool timed_handler, std::string* error) {
    am::service::ServerConfig sc;
    am::service::Endpoint ep;
    ep.host = "127.0.0.1";
    ep.port = 0;
    sc.listen.push_back(ep);
    sc.service_threads = kServiceThreads;
    am::service::RequestHandler* handler = core.get();
    if (timed_handler) {
      timed = std::make_unique<TimedHandler>(*core);
      handler = timed.get();
    }
    server = std::make_unique<am::service::Server>(*handler, sc);
    if (!server->start(error)) return false;
    endpoint = server->bound_endpoints().front();
    return true;
  }
  void stop() {
    if (server != nullptr) {
      am::service::Server::request_shutdown();
      server->wait();
      server.reset();
    }
  }
};

std::unique_ptr<am::service::ServiceCore> make_core(bool hot) {
  am::service::ServiceConfig cfg;
  // serve_hot: room for the 64-key hot set, far less than the miss stream.
  cfg.cache_capacity = hot ? 1024 : 4096;
  cfg.cache_shards = 16;
  return std::make_unique<am::service::ServiceCore>(cfg);
}

struct Sample {
  float t_s = 0.0f;        ///< completion, seconds since the phase began
  float ms = 0.0f;         ///< client round trip
  float handle_us = 0.0f;  ///< traced phase: ServiceCore::handle span
  std::uint32_t guest_instructions = 0;
  RequestKind kind = RequestKind::kPing;
  bool repeat = false;       ///< expected to be a cache hit
  bool traced = false;       ///< a handler span was joined to it
  bool handler_hit = false;  ///< traced phase: the handler hit the LRU
};

/// Samples kept per connection; the memory is touched up front.
constexpr std::size_t kMaxSamples = 100'000;

struct ConnResult {
  std::vector<Sample> samples;
  std::uint64_t requests = 0;  ///< completed round trips
  std::uint64_t blocks = 0;
  Report checks;  ///< attempted/failed/problems of this connection
  std::vector<std::pair<std::string, std::string>> first_replies;  ///< (line, reply)
};

struct Workload {
  bool hot = false;
  std::uint64_t seed = 1;
  std::vector<std::pair<RequestKind, std::string>> hot_keys;
  std::vector<std::string> hot_expected;  ///< stripped reply per hot key
  std::vector<GuestKernel> kernels;

  std::vector<Line> block(unsigned c, std::uint64_t b) const {
    return hot ? hot_block(seed, c, b, hot_keys) : cold_block(seed, c, b, kernels);
  }
};

/// One connection's closed loop from block @p first_block until @p deadline.
void client_loop(const Workload& wl, const am::service::Endpoint& ep, unsigned c,
                 std::uint64_t first_block, Clock::time_point start,
                 Clock::time_point deadline,
                 TimedHandler* timed, SpanRecorder* spans, std::size_t keep_first,
                 ConnResult* out) {
  am::service::ServiceClient client;
  std::string error;
  if (!client.connect(ep, &error)) {
    out->checks.fail("connect: " + error);
    return;
  }
  std::uint64_t b = first_block;
  do {
    const std::vector<Line> lines = wl.block(c, b);
    std::vector<std::string> replies(lines.size());
    for (std::size_t i = 0; i < lines.size(); ++i) {
      const Line& l = lines[i];
      const auto t0 = Clock::now();
      const auto reply = client.roundtrip(l.text, &error);
      const auto t1 = Clock::now();
      ++out->checks.attempted;
      if (!reply.has_value()) {
        out->checks.fail("transport: " + error);
        return;
      }
      Sample s;
      s.kind = l.kind;
      s.repeat = l.hot || l.repeat_of >= 0;
      s.t_s = static_cast<float>(seconds_between(start, t1));
      s.ms = static_cast<float>(micros_between(t0, t1) / 1000.0);
      replies[i] = *reply;
      if (!is_ok(*reply)) {
        out->checks.fail("error reply to " + l.id + ": " + reply->substr(0, 200));
      } else if (l.hot) {
        if (strip_id(*reply, l.id) !=
            wl.hot_expected[static_cast<std::size_t>(l.hot_index)]) {
          out->checks.fail("hot key reply differs from its first reply: " + l.id);
        }
      } else if (l.repeat_of >= 0) {
        const Line& orig = lines[static_cast<std::size_t>(l.repeat_of)];
        if (strip_id(*reply, l.id) !=
            strip_id(replies[static_cast<std::size_t>(l.repeat_of)], orig.id)) {
          out->checks.fail("repeated key reply differs: " + l.id);
        }
      } else if (l.kind == RequestKind::kRunGuest) {
        s.guest_instructions =
            static_cast<std::uint32_t>(guest_reply_instructions(*reply));
        if (s.guest_instructions == 0) {
          out->checks.fail("run_guest hart did not exit 0: " + l.id);
        }
      }
      if (timed != nullptr) {
        TimedHandler::Sample hs;
        if (!timed->take(l.id, &hs)) {
          out->checks.fail("no handler span for request " + l.id);
        } else {
          s.traced = true;
          s.handle_us = static_cast<float>(hs.handle_us);
          s.handler_hit = hs.cache_hit;
          const std::uint64_t req = (std::uint64_t{c} << 48) | (b << 8) | i;
          const std::int64_t parent =
              spans->add("client.roundtrip", req, t0, t1, -1, c);
          spans->add(std::string("handlers.") + am::service::to_string(l.kind),
                     req, hs.start, hs.end, parent, c);
        }
      }
      if (out->first_replies.size() < keep_first) {
        out->first_replies.emplace_back(l.text, *reply);
      }
      ++out->requests;
      if (out->samples.size() < kMaxSamples) out->samples.push_back(s);
    }
    ++b;
    ++out->blocks;
  } while (Clock::now() < deadline);
}

struct Phase {
  std::vector<Sample> samples;
  std::uint64_t requests = 0;  ///< completed, including unsampled ones
  double rss_mb = 0.0;
  std::uint64_t blocks = 0;
  double elapsed_s = 0.0;
  std::vector<std::pair<std::string, std::string>> first_replies;
};

/// Runs every connection from @p first_block for @p seconds.
Phase run_phase(const Workload& wl, Service& svc, std::uint64_t first_block,
                double seconds, SpanRecorder* spans, std::size_t keep_first,
                Report& rep) {
  std::vector<ConnResult> results(kConnections);
  for (ConnResult& r : results) preallocate(r.samples, kMaxSamples);
  const auto t0 = Clock::now();
  const auto deadline = t0 + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(seconds));
  {
    std::vector<std::thread> threads;
    for (unsigned c = 0; c < kConnections; ++c) {
      threads.emplace_back(client_loop, std::cref(wl), svc.endpoint, c,
                           first_block, t0, deadline, svc.timed.get(), spans,
                           c == 0 ? keep_first : 0, &results[c]);
    }
    for (std::thread& t : threads) t.join();
  }
  Phase ph;
  ph.elapsed_s = seconds_between(t0, Clock::now());
  ph.rss_mb = peak_rss_mb();
  for (ConnResult& r : results) {
    ph.samples.insert(ph.samples.end(), r.samples.begin(), r.samples.end());
    ph.blocks = std::max(ph.blocks, r.blocks);
    ph.requests += r.requests;
    rep.attempted += r.checks.attempted;
    rep.failed += r.checks.failed;
    if (!r.checks.correct) rep.correct = false;
    for (const std::string& p : r.checks.problems) {
      if (rep.problems.size() < 8) rep.problems.push_back(p);
    }
    if (!r.first_replies.empty()) ph.first_replies = std::move(r.first_replies);
  }
  return ph;
}

// --- set-up ------------------------------------------------------------------------

std::vector<GuestKernel> assemble_corpus() {
  std::vector<GuestKernel> out;
  for (const std::string& name : am::guest::corpus::names()) {
    const std::vector<std::uint8_t> elf = am::guest::corpus::build(name);
    out.push_back({name, am::base64_encode(std::string_view(
                             reinterpret_cast<const char*>(elf.data()), elf.size()))});
  }
  return out;
}

/// Builds the workload inputs and a running, warmed service.
bool set_up(const Options& opt, bool hot, Workload* wl, Service* svc,
            Report& rep) {
  wl->hot = hot;
  wl->seed = opt.seed;
  wl->hot_keys.clear();
  wl->hot_expected.clear();
  wl->kernels.clear();
  if (hot) {
    wl->hot_keys = hot_set(opt.seed);
  } else {
    wl->kernels = assemble_corpus();
  }
  svc->core = make_core(hot);
  std::string error;
  if (!svc->start(false, &error)) {
    rep.fail("cannot start the server: " + error);
    return false;
  }
  am::service::ServiceClient client;
  if (!client.connect(svc->endpoint, &error)) {
    rep.fail("connect: " + error);
    return false;
  }
  if (hot) {
    // Warm the resident set and record each key's reply.
    for (std::size_t i = 0; i < wl->hot_keys.size(); ++i) {
      const std::string id = "warm-" + std::to_string(i);
      const auto reply =
          client.roundtrip(with_id(id, wl->hot_keys[i].second), &error);
      if (!reply.has_value() || !is_ok(*reply)) {
        rep.fail("warm-up request " + id + " failed");
        return false;
      }
      wl->hot_expected.push_back(strip_id(*reply, id));
    }
  } else {
    // Warm-up: one request of every shape, from a stream no timed
    // connection uses (connection index kConnections).
    for (const Line& l : wl->block(kConnections, 0)) {
      const auto reply = client.roundtrip(l.text, &error);
      if (!reply.has_value() || !is_ok(*reply)) {
        rep.fail("warm-up request " + l.id + " failed");
        return false;
      }
    }
  }
  return true;
}

// --- traced decomposition ------------------------------------------------------------

struct Decomposition {
  std::vector<double> parse_us;
  std::vector<double> parse_guest_us;
  std::vector<double> key_us;
  std::vector<double> envelope_us;
  std::vector<double> get_us;
  std::vector<double> put_us;
  std::vector<double> model_construct_us;
  std::vector<double> model_predict_us;
  std::vector<double> engine_overhead_us;
  std::vector<double> sim_build_us;
  std::vector<double> sim_run_ms;
  std::vector<double> guest_load_us;
  std::vector<double> guest_run_ms;
  std::map<std::string, std::vector<double>> ns_per_op;
  double guest_ns = 0.0;
  std::uint64_t sim_events = 0;
  std::uint64_t guest_instructions = 0;
  std::uint64_t guest_atomics = 0;
  std::uint64_t guest_yields = 0;
  std::uint64_t guest_sc_failures = 0;
  std::uint64_t guest_events = 0;
  std::uint64_t failed_points = 0;
  SimCounters sim;  ///< am_sim_* deltas over the rebuilt simulate requests
  double checksum = 0.0;
};

/// Rebuilds a simulate reply from the public calls, timing the sweep engine
/// and the simulator separately.
std::string rebuild_simulate(const Request& r, Decomposition& d) {
  const am::service::PointQuery& q = r.point;
  const am::sim::MachineConfig mc = am::sim::preset_by_name(q.machine);
  const am::bench::WorkloadConfig workload = am::service::simulate_workload(q);
  am::bench::SweepOptions so;
  so.jobs = 1;
  so.base_seed = q.seed;
  std::vector<TimedBackend::Sample> samples;
  std::mutex mu;
  std::vector<double> build_us;
  auto t0 = Clock::now();
  am::bench::SweepEngine engine(
      [&](std::uint64_t seed) -> std::unique_ptr<am::bench::ExecutionBackend> {
        // The handler's watchdog (auto budget); it never changes a result.
        am::bench::SimBackendOptions options;
        options.watchdog.max_cycles =
            64 * (options.warmup_cycles + options.measure_cycles);
        options.watchdog.progress_events = 1'000'000;
        const auto b0 = Clock::now();
        auto sim = std::make_unique<am::bench::SimBackend>(mc, options, seed);
        build_us.push_back(micros_between(b0, Clock::now()));
        auto sink = std::make_unique<CountingSink>();
        sim->set_sink(sink.get());
        return std::make_unique<TimedBackend>(std::move(sim), std::move(sink),
                                              &samples, &mu);
      },
      so);
  const std::size_t index = engine.submit(workload);
  engine.drain();
  const double total_us = micros_between(t0, Clock::now());
  am::bench::clear_run_log();
  const am::bench::MeasuredRun* run = engine.result_or_null(index);
  if (run == nullptr || samples.size() != 1) {
    ++d.failed_points;
    return "";
  }
  const double build = build_us.empty() ? 0.0 : build_us.front();
  d.sim_build_us.push_back(build);
  d.sim_run_ms.push_back(samples[0].run_us / 1000.0);
  d.engine_overhead_us.push_back(total_us - samples[0].run_us - build);
  d.sim_events += samples[0].events;
  if (samples[0].ops > 0) {
    d.ns_per_op[q.mode].push_back(samples[0].run_us * 1000.0 /
                                  static_cast<double>(samples[0].ops));
  }
  return am::service::render_simulate_result(q, *run);
}

void time_model(const Request& r, Decomposition& d) {
  const std::string& machine =
      r.kind == RequestKind::kPredict ? r.point.machine : r.advise.machine;
  const am::sim::MachineConfig mc = am::sim::preset_by_name(machine);
  const auto t0 = Clock::now();
  const am::model::BouncingModel model(am::model::ModelParams::from_machine(mc));
  const auto t1 = Clock::now();
  double sink = 0.0;
  if (r.kind == RequestKind::kPredict) {
    const am::service::PointQuery& q = r.point;
    if (q.mode == "private") {
      sink = model.predict_private(q.prim, q.threads, q.work).throughput_mops;
    } else if (q.mode == "mixed") {
      sink = model.predict_mixed(q.prim, q.write_fraction, q.threads, q.work)
                 .throughput_mops;
    } else if (q.mode == "zipf") {
      sink = model.predict_zipf(q.prim, q.threads, q.work,
                                static_cast<std::size_t>(q.zipf_lines), q.zipf_s)
                 .throughput_mops;
    } else {
      sink = model.predict(q.prim, q.threads, q.work).throughput_mops;
    }
  } else {
    const am::service::AdviseQuery& q = r.advise;
    if (q.target == "backoff") {
      sink = am::model::recommended_backoff_cycles(model, q.threads);
    } else if (q.target == "lock") {
      sink = static_cast<double>(
          am::model::advise_lock(model, q.threads, q.critical, q.outside)
              .options.size());
    } else {
      sink = static_cast<double>(
          am::model::advise_counter(model, q.threads, q.work).options.size());
    }
  }
  const auto t2 = Clock::now();
  d.checksum += sink;  // keeps the model calls observable
  d.model_construct_us.push_back(micros_between(t0, t1));
  d.model_predict_us.push_back(micros_between(t1, t2));
}

/// Times one run_guest request's loader and interpreter, mirroring the
/// service's limits, with an event-counting sink attached.
void time_guest(const Request& r, Decomposition& d, Report& rep) {
  const am::service::GuestQuery& q = r.guest;
  am::guest::GuestRunConfig config;
  config.backend = "sim:" + q.machine + ":" + q.memory_model;
  config.harts = q.harts;
  config.seed = q.seed;
  const am::service::ServiceConfig service_defaults;
  config.max_cycles = service_defaults.guest_max_cycles;
  config.guest.max_instructions = service_defaults.guest_max_instructions;
  config.guest.max_stdout_bytes = 4096;
  CountingSink sink;
  config.trace = &sink;

  am::guest::GuestImage image;
  const auto l0 = Clock::now();
  const am::guest::GuestError load = am::guest::load_elf32(
      q.elf.data(), q.elf.size(), config.limits,
      static_cast<std::uint32_t>(config.guest.stack_bytes * q.harts), &image);
  d.guest_load_us.push_back(micros_between(l0, Clock::now()));
  if (!load.ok()) {
    rep.fail("guest load failed: " + load.message);
    return;
  }
  const auto t0 = Clock::now();
  const am::guest::GuestRunResult result =
      am::guest::run_guest(q.elf.data(), q.elf.size(), config);
  const auto t1 = Clock::now();
  if (!result.error.ok()) {
    rep.fail("guest run failed: " + result.error.message);
    return;
  }
  for (const am::guest::HartReport& h : result.hart_reports) {
    if (h.exit_code != 0) rep.fail("guest hart exited nonzero");
  }
  d.guest_run_ms.push_back(micros_between(t0, t1) / 1000.0);
  d.guest_ns += micros_between(t0, t1) * 1000.0;
  d.guest_instructions += result.total_instructions;
  d.guest_atomics += result.total_atomics;
  d.guest_yields += result.total_yields;
  d.guest_sc_failures += result.total_sc_failures;
  d.guest_events += sink.events();
}

/// Re-executes @p replies' requests in-process through each layer's public
/// call, timing every layer and checking the rebuilt bytes against the
/// server's.
void decompose(const std::vector<std::pair<std::string, std::string>>& replies,
               bool hot, Decomposition& d, Report& rep) {
  am::service::ShardedLruCache cache(hot ? 1024 : 4096, 16);
  am::service::ServiceConfig ref_cfg;
  ref_cfg.cache_capacity = 0;
  ref_cfg.metrics = false;
  am::service::ServiceCore reference(ref_cfg);
  for (const auto& [line, reply] : replies) {
    ++rep.attempted;
    std::string error;
    const auto p0 = Clock::now();
    const std::optional<Request> parsed = am::service::parse_request(line, &error);
    const auto p1 = Clock::now();
    if (!parsed) {
      rep.fail("rebuild: parse failed: " + error);
      continue;
    }
    const Request& r = *parsed;
    (r.kind == RequestKind::kRunGuest ? d.parse_guest_us : d.parse_us)
        .push_back(micros_between(p0, p1));
    const auto k0 = Clock::now();
    const std::string key = am::service::request_cache_key(r);
    const auto k1 = Clock::now();
    d.key_us.push_back(micros_between(k0, k1));
    const auto g0 = Clock::now();
    const std::optional<std::string> cached = cache.get(key);
    d.get_us.push_back(micros_between(g0, Clock::now()));

    std::string result;
    if (cached) {
      result = *cached;
    } else if (r.kind == RequestKind::kSimulate) {
      const SimCounters before = SimCounters::read();
      result = rebuild_simulate(r, d);
      const SimCounters delta = SimCounters::read().minus(before);
      d.sim.ops += delta.ops;
      d.sim.cycles += delta.cycles;
      d.sim.grants += delta.grants;
      d.sim.mesi_transitions += delta.mesi_transitions;
      d.sim.invalidations += delta.invalidations;
    } else {
      if (r.kind == RequestKind::kRunGuest) {
        time_guest(r, d, rep);
      } else {
        time_model(r, d);
      }
      // The handlers render predict/advise/run_guest results privately;
      // the reference core (no cache) produces the same bytes.
      result = result_of(reference.handle(r).response);
    }
    if (!cached) {
      const auto u0 = Clock::now();
      cache.put(key, result);
      d.put_us.push_back(micros_between(u0, Clock::now()));
    }
    const auto e0 = Clock::now();
    const std::string envelope = am::service::make_result_response(r, result);
    d.envelope_us.push_back(micros_between(e0, Clock::now()));
    if (result.empty() || envelope != reply + "\n") {
      rep.fail("rebuilt reply differs from the server's for " + r.id);
    }
  }
}

Report run_serve(const Options& opt, bool hot) {
  Report rep;
  Workload wl;
  auto svc = std::make_unique<Service>();
  std::vector<double> setups;
  for (int i = 0; i < kSetups; ++i) {
    svc = std::make_unique<Service>();  // the previous one drains here
    const auto t0 = Clock::now();
    if (!set_up(opt, hot, &wl, svc.get(), rep)) return rep;
    setups.push_back(seconds_between(t0, Clock::now()));
  }

  const std::size_t keep_first = hot ? 300 : 2 * (kColdFresh + kColdRepeats);
  const double budget = opt.trace ? opt.seconds / 2.0 : opt.seconds;
  const auto counters0 = svc->core->cache().counters();
  const SimCounters sim0 = SimCounters::read();
  Phase ph = run_phase(wl, *svc, 0, budget, nullptr, keep_first, rep);
  const SimCounters sim_done = SimCounters::read().minus(sim0);

  std::vector<Completion> all;
  std::vector<double> sim_ms;
  std::vector<double> guest_ms;
  double guest_instr = 0.0;
  double guest_s = 0.0;
  for (const Sample& s : ph.samples) {
    all.push_back({s.t_s, s.ms});
    if (s.repeat) continue;
    if (s.kind == RequestKind::kSimulate) sim_ms.push_back(s.ms);
    if (s.kind == RequestKind::kRunGuest) {
      guest_ms.push_back(s.ms);
      guest_instr += static_cast<double>(s.guest_instructions);
      guest_s += s.ms / 1000.0;
    }
  }
  set_latency_metrics(rep, all, ph.requests, ph.elapsed_s,
                      median(setups), ph.rss_mb);
  if (!hot) {
    rep.set("sim_ops_per_s", static_cast<double>(sim_done.ops) / ph.elapsed_s,
            "1/s");
    rep.set("simulate_p50_ms", pct(sim_ms, 50.0), "ms");
    rep.set("simulate_p99_ms", pct(sim_ms, 99.0), "ms");
    rep.set("simulate_samples", static_cast<double>(sim_ms.size()), "count");
    rep.set("run_guest_p50_ms", pct(guest_ms, 50.0), "ms");
    rep.set("run_guest_p99_ms", pct(guest_ms, 99.0), "ms");
    rep.set("run_guest_samples", static_cast<double>(guest_ms.size()), "count");
    rep.set("guest_minstr_per_s", guest_s > 0 ? guest_instr / guest_s / 1e6 : 0,
            "M/s");
  }
  const double untraced_ops_per_s =
      static_cast<double>(ph.requests) / ph.elapsed_s;

  if (opt.trace) {
    // Traced phase: the same stream, continued, through a server whose
    // handler is the timing decorator.
    svc->stop();
    std::string error;
    if (!svc->start(true, &error)) {
      rep.fail("cannot restart the server traced: " + error);
      return rep;
    }
    SpanRecorder spans;
    Phase tp = run_phase(wl, *svc, ph.blocks + 1, budget, &spans, 0, rep);
    const auto counters = svc->core->cache().counters();

    std::vector<double> outside_us;
    double outside_sum = 0.0;
    double rt_sum = 0.0;
    std::vector<double> hit_us;
    std::vector<double> miss_predict_us;
    std::vector<double> miss_sim_ms;
    std::vector<double> miss_guest_ms;
    for (const Sample& s : tp.samples) {
      if (!s.traced) continue;
      const double rt = s.ms * 1000.0;
      const double outside = rt - s.handle_us;
      outside_us.push_back(outside);
      outside_sum += outside;
      rt_sum += rt;
      if (s.handler_hit) {
        hit_us.push_back(s.handle_us);
      } else if (s.kind == RequestKind::kPredict) {
        miss_predict_us.push_back(s.handle_us);
      } else if (s.kind == RequestKind::kSimulate) {
        miss_sim_ms.push_back(s.handle_us / 1000.0);
      } else if (s.kind == RequestKind::kRunGuest) {
        miss_guest_ms.push_back(s.handle_us / 1000.0);
      }
      if (s.handler_hit != s.repeat) rep.fail("cache hit where none was due");
    }
    // The handler span must nest in the client's round trip of the same
    // request id; then the layer self times (outside the handler, inside
    // it) add up to the traced round-trip time.
    double self_sum = 0.0;
    for (const auto& [name, us] : spans.self_time_us()) self_sum += us;
    const double root_us = spans.root_time_us();
    const double accounted_ratio = root_us > 0 ? self_sum / root_us : 0.0;
    if (std::abs(accounted_ratio - 1.0) > 0.01) {
      rep.fail("layer self times do not add up to the traced latency");
    }
    rep.set("server.outside_handler_us_p50", pct(outside_us, 50.0), "us");
    rep.set("server.outside_handler_us_p99", pct(outside_us, 99.0), "us");
    rep.set("server.outside_handler_share", rt_sum > 0 ? outside_sum / rt_sum : 0,
            "ratio");
    rep.set("handlers.hit_us_p50", median(hit_us), "us");
    rep.set("handlers.miss_us_p50.predict", median(miss_predict_us), "us");
    rep.set("handlers.miss_ms_p50.simulate", median(miss_sim_ms), "ms");
    rep.set("handlers.miss_ms_p50.run_guest", median(miss_guest_ms), "ms");
    const std::uint64_t hits = counters.hits - counters0.hits;
    const std::uint64_t lookups = hits + counters.misses - counters0.misses;
    rep.set("lru_cache.hit_ratio",
            lookups > 0 ? static_cast<double>(hits) / static_cast<double>(lookups)
                        : 0.0,
            "ratio");
    rep.set("lru_cache.evictions",
            static_cast<double>(counters.evictions - counters0.evictions),
            "count");
    rep.set("trace.accounted_ratio", accounted_ratio, "ratio");
    rep.set("trace.overhead_ratio",
            (static_cast<double>(tp.requests) / tp.elapsed_s) /
                untraced_ops_per_s,
            "ratio");
    svc->stop();

    // Serial decomposition of the first requests of connection 0.
    Decomposition d;
    decompose(ph.first_replies, hot, d, rep);
    const SimCounters& counts = d.sim;
    rep.set("protocol.parse_us_p50", median(d.parse_us), "us");
    rep.set("protocol.parse_run_guest_us_p50", median(d.parse_guest_us), "us");
    rep.set("protocol.key_us_p50", median(d.key_us), "us");
    rep.set("protocol.envelope_us_p50", median(d.envelope_us), "us");
    rep.set("lru_cache.get_us_p50", median(d.get_us), "us");
    rep.set("lru_cache.put_us_p50", median(d.put_us), "us");
    rep.set("model.construct_us_p50", median(d.model_construct_us), "us");
    rep.set("model.predict_us_p50", median(d.model_predict_us), "us");
    rep.set("sweep.engine_overhead_us_p50", median(d.engine_overhead_us), "us");
    rep.set("sweep.failed_points", static_cast<double>(d.failed_points), "count");
    rep.set("sim.build_us_p50", median(d.sim_build_us), "us");
    rep.set("sim.run_ms_p50", median(d.sim_run_ms), "ms");
    for (const char* k : {"shared", "private", "mixed", "zipf"}) {
      rep.set(std::string("sim.host_ns_per_op.") + k, median(d.ns_per_op[k]),
              "ns");
    }
    rep.set("sim.ops", static_cast<double>(counts.ops), "count");
    rep.set("sim.cycles", static_cast<double>(counts.cycles), "count");
    rep.set("sim.grants", static_cast<double>(counts.grants), "count");
    rep.set("sim.mesi_transitions", static_cast<double>(counts.mesi_transitions),
            "count");
    rep.set("sim.invalidations", static_cast<double>(counts.invalidations),
            "count");
    rep.set("sim.trace_events", static_cast<double>(d.sim_events), "count");
    rep.set("guest.load_us_p50", median(d.guest_load_us), "us");
    rep.set("guest.run_ms_p50", median(d.guest_run_ms), "ms");
    rep.set("guest.host_ns_per_instr",
            d.guest_instructions > 0
                ? d.guest_ns / static_cast<double>(d.guest_instructions)
                : 0.0,
            "ns");
    rep.set("guest.instructions", static_cast<double>(d.guest_instructions),
            "count");
    rep.set("guest.atomics", static_cast<double>(d.guest_atomics), "count");
    rep.set("guest.yields", static_cast<double>(d.guest_yields), "count");
    rep.set("guest.sc_failures", static_cast<double>(d.guest_sc_failures),
            "count");
    rep.set("guest.sim_events", static_cast<double>(d.guest_events), "count");
    spans.write_perfetto(opt.out_dir + "/trace-" + opt.workload + "-seed" +
                         std::to_string(opt.seed) + ".json");
  }
  return rep;
}

}  // namespace

Report run_serve_hot(const Options& opt) { return run_serve(opt, true); }
Report run_serve_cold(const Options& opt) { return run_serve(opt, false); }

}  // namespace perfbench
