// am_client: one-shot CLI client for an am_serve daemon.
//
// Builds one am-serve/1 request from flags (or sends --raw verbatim),
// prints each response line to stdout and exits 0 iff every response was a
// success envelope.
//
//   am_client --connect=127.0.0.1:7787 --kind=ping
//   am_client --kind=predict --machine=xeon --mode=shared --prim=FAA
//             --threads=16 --work=100
//   am_client --kind=advise --target=lock --threads=32 --critical=200
//   am_client --kind=simulate --prim=CAS --threads=8 --repeat=2
//   am_client --raw='{"kind":"calibrate","machine":"xeon","samples":[...]}'
//   am_client --file=request.json            # request line from disk
//   am_client --kind=run_guest --elf=prog.elf --harts=8 --memory-model=tso

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

#include "common/base64.hpp"
#include "common/cli.hpp"
#include "common/json.hpp"
#include "service/client.hpp"

namespace {

bool read_file(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  *out = ss.str();
  return static_cast<bool>(in);
}

std::optional<std::string> build_request(const am::CliParser& cli,
                                         std::string* error) {
  const std::string kind = cli.get("kind");
  std::ostringstream os;
  am::JsonWriter w(os);
  w.begin_object();
  w.kv("v", "am-serve/1");
  w.kv("kind", kind);
  if (!cli.get("id").empty()) w.kv("id", cli.get("id"));
  if (kind == "predict" || kind == "simulate") {
    w.kv("machine", cli.get("machine"));
    w.kv("mode", cli.get("mode"));
    w.kv("prim", cli.get("prim"));
    w.kv("threads", static_cast<std::uint64_t>(cli.get_int("threads")));
    w.kv("work", cli.get_double("work"));
    if (cli.get("mode") == "mixed") {
      w.kv("write_fraction", cli.get_double("write-fraction"));
    }
    if (cli.get("mode") == "zipf") {
      w.kv("zipf_lines", cli.get_uint64("zipf-lines"));
      w.kv("zipf_s", cli.get_double("zipf-s"));
    }
    if (kind == "simulate") w.kv("seed", cli.get_uint64("seed"));
  } else if (kind == "advise") {
    w.kv("machine", cli.get("machine"));
    w.kv("target", cli.get("target"));
    w.kv("threads", static_cast<std::uint64_t>(cli.get_int("threads")));
    if (cli.get("target") == "lock") {
      w.kv("critical", cli.get_double("critical"));
      w.kv("outside", cli.get_double("outside"));
    } else {
      w.kv("work", cli.get_double("work"));
    }
  } else if (kind == "run_guest") {
    if (cli.get("elf").empty()) {
      *error = "--kind=run_guest needs --elf=<path>";
      return std::nullopt;
    }
    std::string elf;
    if (!read_file(cli.get("elf"), &elf)) {
      *error = "cannot read " + cli.get("elf");
      return std::nullopt;
    }
    w.kv("machine", cli.get("machine"));
    w.kv("memory_model", cli.get("memory-model"));
    w.kv("harts", static_cast<std::uint64_t>(cli.get_int("harts")));
    w.kv("seed", cli.get_uint64("seed"));
    w.kv("elf", am::base64_encode(elf));
  }
  w.end_object();
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  using am::CliParser;
  CliParser cli("one-shot client for the am-serve/1 protocol");
  cli.add_flag("connect", "daemon endpoint (host:port or unix:path)",
               "127.0.0.1:7787", CliParser::FlagKind::kEndpoint);
  cli.add_flag("kind",
               "request kind: "
               "ping|stats|metrics|predict|advise|simulate|run_guest",
               "ping");
  cli.add_flag("metrics",
               "shortcut for --kind=metrics; prints the decoded Prometheus "
               "text instead of the JSON envelope",
               "false", CliParser::FlagKind::kBool);
  cli.add_flag("id", "request id echoed back by the daemon", "");
  cli.add_flag("machine", "sim preset: xeon|knl|test", "xeon");
  cli.add_flag("mode", "workload mode: shared|private|mixed|zipf", "shared");
  cli.add_flag("prim", "primitive (LOAD|STORE|SWP|TAS|FAA|CAS|CASLOOP)",
               "FAA");
  cli.add_flag("threads", "thread count", "1", CliParser::FlagKind::kInt);
  cli.add_flag("work", "local work between ops, cycles", "0",
               CliParser::FlagKind::kDouble);
  cli.add_flag("write-fraction", "mixed mode write fraction", "0.1",
               CliParser::FlagKind::kDouble);
  cli.add_flag("zipf-lines", "zipf mode line count", "64",
               CliParser::FlagKind::kUint64);
  cli.add_flag("zipf-s", "zipf exponent", "0.99",
               CliParser::FlagKind::kDouble);
  cli.add_flag("seed", "simulate seed", "1", CliParser::FlagKind::kUint64);
  cli.add_flag("target", "advise target: counter|lock|backoff", "counter");
  cli.add_flag("critical", "advise lock: cycles inside the critical section",
               "100", CliParser::FlagKind::kDouble);
  cli.add_flag("outside", "advise lock: cycles between acquisitions", "0",
               CliParser::FlagKind::kDouble);
  cli.add_flag("raw", "send this JSON line verbatim instead of building one",
               "");
  cli.add_flag("file",
               "send the request line read from this file verbatim "
               "(first line; overrides --raw)",
               "");
  cli.add_flag("elf", "run_guest: path to a static rv32ima ELF binary", "");
  cli.add_flag("memory-model", "run_guest: sc|tso", "sc");
  cli.add_flag("harts", "run_guest: guest hart count", "4",
               CliParser::FlagKind::kInt);
  cli.add_flag("repeat", "send the request this many times", "1",
               CliParser::FlagKind::kInt);
  cli.add_flag("timeout-ms",
               "socket send/recv deadline per request (0 = block forever)",
               "0", CliParser::FlagKind::kInt);
  cli.add_flag("retries",
               "reconnect-and-resend attempts after a transport failure "
               "(exponential backoff with jitter)",
               "0", CliParser::FlagKind::kInt);
  cli.add_flag("retry-backoff-ms",
               "initial retry backoff (doubles per attempt, jittered)", "50",
               CliParser::FlagKind::kInt);
  if (!cli.parse(argc, argv)) return 2;

  std::string error;
  const auto endpoint = am::service::parse_endpoint(cli.get("connect"), &error);
  if (!endpoint.has_value()) {
    std::cerr << "am_client: --connect: " << error << "\n";
    return 2;
  }

  const bool metrics_mode = cli.get_bool("metrics");
  std::string line;
  if (metrics_mode) {
    line = "{\"v\":\"am-serve/1\",\"kind\":\"metrics\"}";
  } else if (!cli.get("file").empty()) {
    // Request body from disk: everything up to the first newline is the
    // request line (the wire format is one line per request).
    std::string raw;
    if (!read_file(cli.get("file"), &raw)) {
      std::cerr << "am_client: cannot read " << cli.get("file") << "\n";
      return 2;
    }
    line = raw.substr(0, raw.find('\n'));
    if (!line.empty() && line.back() == '\r') line.pop_back();
  } else if (!cli.get("raw").empty()) {
    line = cli.get("raw");
  } else {
    const auto built = build_request(cli, &error);
    if (!built.has_value()) {
      std::cerr << "am_client: " << error << "\n";
      return 2;
    }
    line = *built;
  }
  const std::int64_t repeat = std::max<std::int64_t>(1, cli.get_int("repeat"));
  const int retries =
      static_cast<int>(std::max<std::int64_t>(0, cli.get_int("retries")));
  const int backoff_ms = static_cast<int>(
      std::max<std::int64_t>(1, cli.get_int("retry-backoff-ms")));

  am::service::ServiceClient client;
  client.set_timeout_ms(
      static_cast<int>(std::max<std::int64_t>(0, cli.get_int("timeout-ms"))));
  if (!client.connect_retry(*endpoint, retries, backoff_ms,
                            static_cast<std::uint64_t>(::getpid()), &error)) {
    std::cerr << "am_client: " << error << "\n";
    return 1;
  }

  // Per-request retry: a transport failure (timeout, reset, worker restart
  // behind a fleet) closes the stream, backs off with jitter, reconnects
  // and resends. Requests are idempotent, so a resend is safe even if the
  // original was served.
  std::uint64_t jitter_state = static_cast<std::uint64_t>(::getpid());
  const auto jittered_sleep_ms = [&jitter_state](int delay_ms) {
    jitter_state += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = jitter_state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    z ^= z >> 31;
    const int jitter =
        static_cast<int>(z % static_cast<std::uint64_t>(std::max(1, delay_ms)));
    std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms + jitter));
  };
  const auto roundtrip_retry =
      [&](const std::string& request,
          std::string* err) -> std::optional<std::string> {
    int delay_ms = backoff_ms;
    for (int attempt = 0;; ++attempt) {
      if (client.connected()) {
        const auto response = client.roundtrip(request, err);
        if (response.has_value()) return response;
        client.close();
      }
      if (attempt >= retries) return std::nullopt;
      jittered_sleep_ms(delay_ms);
      delay_ms = std::min(2000, delay_ms * 2);
      std::string connect_error;  // transient; keep the roundtrip error
      client.connect(*endpoint, &connect_error);
    }
  };

  bool all_ok = true;
  for (std::int64_t i = 0; i < repeat; ++i) {
    const auto response = roundtrip_retry(line, &error);
    if (!response.has_value()) {
      std::cerr << "am_client: " << error << "\n";
      return 1;
    }
    const auto doc = am::JsonValue::parse(*response);
    const am::JsonValue* ok = doc.has_value() ? doc->find("ok") : nullptr;
    if (ok == nullptr || !ok->as_bool()) all_ok = false;
    if (metrics_mode && doc.has_value()) {
      // Unwrap result.text: the scrape payload is Prometheus text, the JSON
      // envelope is just the transport.
      const am::JsonValue* result = doc->find("result");
      const am::JsonValue* text =
          result != nullptr ? result->find("text") : nullptr;
      if (text != nullptr) {
        std::cout << text->as_string();
        continue;
      }
    }
    std::cout << *response << "\n";
  }
  return all_ok ? 0 : 1;
}
