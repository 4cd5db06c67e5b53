#include "bench_core/backend.hpp"

#include <mutex>
#include <stdexcept>
#include <thread>

#include "bench_core/hw_backend.hpp"
#include "bench_core/sim_backend.hpp"

namespace am::bench {

namespace {
std::mutex& run_log_mutex() {
  static std::mutex m;
  return m;
}

std::vector<RecordedRun>& mutable_run_log() {
  static std::vector<RecordedRun> log;
  return log;
}
}  // namespace

const std::vector<RecordedRun>& run_log() { return mutable_run_log(); }

void clear_run_log() {
  const std::lock_guard<std::mutex> lock(run_log_mutex());
  mutable_run_log().clear();
}

void append_run_log(RecordedRun rec) {
  const std::lock_guard<std::mutex> lock(run_log_mutex());
  mutable_run_log().push_back(std::move(rec));
}

MeasuredRun ExecutionBackend::run(const WorkloadConfig& config) {
  MeasuredRun result = do_run(config);
  if (recorder_ != nullptr) {
    recorder_->push_back(RecordedRun{config, result});
  } else {
    append_run_log(RecordedRun{config, result});
  }
  return result;
}

const char* to_string(WorkloadMode m) noexcept {
  switch (m) {
    case WorkloadMode::kHighContention: return "high-contention";
    case WorkloadMode::kLowContention: return "low-contention";
    case WorkloadMode::kZipf: return "zipf";
    case WorkloadMode::kMixedReadWrite: return "mixed-rw";
    case WorkloadMode::kSharded: return "sharded";
    case WorkloadMode::kPrivateWalk: return "private-walk";
  }
  return "?";
}

std::string WorkloadConfig::describe() const {
  std::string s = std::string(am::to_string(prim)) + " " +
                  am::bench::to_string(mode) + " threads=" +
                  std::to_string(threads) + " work=" + std::to_string(work);
  if (mode == WorkloadMode::kZipf) {
    s += " lines=" + std::to_string(zipf_lines) + " s=" + std::to_string(zipf_s);
  }
  if (mode == WorkloadMode::kMixedReadWrite) {
    s += " wr=" + std::to_string(write_fraction);
  }
  return s;
}

BackendSpec parse_backend_spec(const std::string& spec) {
  BackendSpec out;
  if (spec == "hw" ||
      (spec == "auto" && std::thread::hardware_concurrency() >= 8)) {
    out.hw = true;
    return out;
  }
  // "sim[:<preset>[:<memory model>]]"; "auto" on a small host is bare "sim".
  const std::string text = spec == "auto" ? "sim" : spec;
  const std::size_t colon = text.find(':', 4);
  const std::string model =
      colon == std::string::npos ? "sc" : text.substr(colon + 1);
  try {
    if (text != "sim" && text.rfind("sim:", 0) != 0) {
      throw std::invalid_argument("want sim[:<preset>[:sc|:tso]], hw or auto");
    }
    out.preset = text == "sim" ? "xeon" : text.substr(4, colon - 4);
    out.machine = sim::preset_by_name(out.preset);
    // The model rides in MachineConfig::fingerprint(), so sweep/service
    // cache identities split TSO rows from SC rows automatically.
    const auto memory_model = sim::parse_memory_model(model);
    if (!memory_model) {
      throw std::invalid_argument("unknown memory model '" + model +
                                  "' (want sc | tso)");
    }
    out.machine.memory_model = *memory_model;
  } catch (const std::invalid_argument& e) {
    throw std::invalid_argument("backend spec '" + spec + "': " + e.what());
  }
  return out;
}

std::unique_ptr<ExecutionBackend> make_backend(const BackendSpec& spec,
                                               std::uint64_t seed) {
  if (spec.hw) return std::make_unique<HardwareBackend>();
  return std::make_unique<SimBackend>(spec.machine, SimBackendOptions{}, seed);
}

std::unique_ptr<ExecutionBackend> make_backend(const std::string& spec,
                                               std::uint64_t seed) {
  return make_backend(parse_backend_spec(spec), seed);
}

}  // namespace am::bench
