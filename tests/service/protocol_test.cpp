#include <gtest/gtest.h>

#include <iterator>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/base64.hpp"
#include "common/json.hpp"
#include "common/sha256.hpp"
#include "guest/corpus.hpp"
#include "service/handlers.hpp"
#include "service/protocol.hpp"

namespace am::service {
namespace {

Request must_parse(const std::string& line) {
  std::string error;
  const auto r = parse_request(line, &error);
  EXPECT_TRUE(r.has_value()) << line << " -> " << error;
  return r.value_or(Request{});
}

TEST(Protocol, ParsesEveryKind) {
  EXPECT_EQ(must_parse(R"({"kind":"ping"})").kind, RequestKind::kPing);
  EXPECT_EQ(must_parse(R"({"kind":"stats"})").kind, RequestKind::kStats);
  EXPECT_EQ(must_parse(R"({"kind":"metrics"})").kind, RequestKind::kMetrics);
  const Request p = must_parse(
      R"({"kind":"predict","machine":"knl","mode":"shared","prim":"CAS","threads":16,"work":250})");
  EXPECT_EQ(p.kind, RequestKind::kPredict);
  EXPECT_EQ(p.point.machine, "knl");
  EXPECT_EQ(p.point.prim, Primitive::kCas);
  EXPECT_EQ(p.point.threads, 16u);
  EXPECT_DOUBLE_EQ(p.point.work, 250.0);
  const Request a = must_parse(
      R"({"kind":"advise","target":"lock","threads":8,"critical":120,"outside":30})");
  EXPECT_EQ(a.advise.target, "lock");
  EXPECT_DOUBLE_EQ(a.advise.critical, 120.0);
  const Request c = must_parse(
      R"({"kind":"calibrate","machine":"test","samples":[)"
      R"({"mode":"private","prim":"FAA","threads":1,"cycles_per_op":12},)"
      R"({"mode":"shared","prim":"FAA","threads":4,"cycles_per_op":130}]})");
  ASSERT_EQ(c.calibrate.samples.size(), 2u);
  EXPECT_EQ(c.calibrate.samples[1].mode, "shared");
  const Request s = must_parse(
      R"({"kind":"simulate","machine":"test","prim":"FAA","threads":4,"seed":7})");
  EXPECT_EQ(s.point.seed, 7u);
}

TEST(Protocol, MetricsKindRoundTrips) {
  const Request r = must_parse(R"({"v":"am-serve/1","kind":"metrics"})");
  EXPECT_EQ(r.kind, RequestKind::kMetrics);
  EXPECT_STREQ(to_string(RequestKind::kMetrics), "metrics");
  // Canonical form is stable and re-parses to the same kind.
  const std::string canon = canonical_request(r);
  const Request again = must_parse(canon);
  EXPECT_EQ(again.kind, RequestKind::kMetrics);
  EXPECT_EQ(canonical_request(again), canon);
}

TEST(Protocol, VersionGate) {
  EXPECT_EQ(must_parse(R"({"v":"am-serve/1","kind":"ping"})").kind,
            RequestKind::kPing);
  std::string error;
  EXPECT_FALSE(parse_request(R"({"v":"am-serve/2","kind":"ping"})", &error));
  EXPECT_NE(error.find("am-serve/2"), std::string::npos);
}

TEST(Protocol, RejectsMalformedRequests) {
  std::string error;
  EXPECT_FALSE(parse_request("", &error));
  EXPECT_FALSE(parse_request("not json", &error));
  EXPECT_FALSE(parse_request("[1,2]", &error));
  EXPECT_FALSE(parse_request(R"({"kind":"nope"})", &error));
  EXPECT_FALSE(parse_request(R"({"kind":"predict","prim":"XYZ"})", &error));
  EXPECT_FALSE(
      parse_request(R"({"kind":"predict","threads":0})", &error));
  EXPECT_FALSE(
      parse_request(R"({"kind":"predict","threads":100000})", &error));
  EXPECT_FALSE(
      parse_request(R"({"kind":"predict","machine":"mips"})", &error));
  EXPECT_FALSE(
      parse_request(R"({"kind":"predict","mode":"weird"})", &error));
  EXPECT_FALSE(parse_request(R"({"kind":"advise","target":"x"})", &error));
  EXPECT_FALSE(parse_request(R"({"kind":"calibrate","samples":[]})", &error));
  EXPECT_FALSE(parse_request(
      R"({"kind":"calibrate","samples":[{"mode":"private","prim":"FAA","threads":1,"cycles_per_op":-1}]})",
      &error));
}

TEST(Protocol, RejectsSeedsPastUint64) {
  // A value at or past 2^64 has no uint64_t value: each of these is refused
  // with the range error, never served as some other seed.
  for (const char* seed : {"1e300", "18446744073709551616"}) {
    for (const std::string head :
         {R"({"kind":"simulate","machine":"test","prim":"FAA","threads":4,)",
          R"({"kind":"run_guest","machine":"test","harts":1,"elf":"AAAA",)"}) {
      const std::string line = head + R"("seed":)" + seed + "}";
      std::string error;
      EXPECT_FALSE(parse_request(line, &error)) << line;
      EXPECT_NE(error.find("seed out of range"), std::string::npos)
          << line << " -> " << error;
    }
  }
  // The largest seed the double still holds exactly below 2^64 is served.
  EXPECT_EQ(must_parse(R"({"kind":"simulate","seed":18446744073709549568})")
                .point.seed,
            18446744073709549568u);
  // 2^64 - 1 is in range, and plain digits are taken exactly.
  EXPECT_EQ(must_parse(R"({"kind":"simulate","seed":18446744073709551615})")
                .point.seed,
            18446744073709551615u);
}

TEST(Protocol, IntegerMembersAreExact) {
  // 2^53 + 1 is the first integer a double cannot hold; it used to be
  // served as 2^53.
  const std::string exact = "9007199254740993";
  const std::string rounded = "9007199254740992";
  const std::vector<std::uint8_t> elf = guest::corpus::build("faa_counter");
  const std::string b64 = base64_encode(std::string_view(
      reinterpret_cast<const char*>(elf.data()), elf.size()));
  ServiceConfig config;
  config.metrics = false;
  ServiceCore core(config);
  for (const std::string& head :
       {std::string(R"({"kind":"simulate","machine":"test","prim":"FAA",)"
                    R"("threads":2,"seed":)"),
        R"({"kind":"run_guest","machine":"test","harts":2,"elf":")" + b64 +
            R"(","seed":)"}) {
    const Request r = must_parse(head + exact + "}");
    EXPECT_EQ(r.kind == RequestKind::kSimulate ? r.point.seed : r.guest.seed,
              9007199254740993u);
    EXPECT_NE(request_cache_key(r),
              request_cache_key(must_parse(head + rounded + "}")));
    const HandleResult reply = core.handle(r);
    ASSERT_TRUE(reply.ok) << reply.response;
    EXPECT_NE(reply.response.find("\"seed\":" + exact + ","),
              std::string::npos)
        << reply.response;
    // Other spellings go through a double: below 2^53 they keep their
    // value, at or past it they are refused, never rounded.
    std::string error;
    EXPECT_FALSE(parse_request(head + "9.007199254740993e15}", &error));
    EXPECT_NE(error.find("seed is not exact"), std::string::npos) << error;
    EXPECT_FALSE(parse_request(head + "9007199254740992.0}", &error));
    EXPECT_EQ(must_parse(head + "4.0}").kind, r.kind);
  }
  EXPECT_EQ(must_parse(R"({"kind":"predict","threads":1.6e1})").point.threads,
            16u);
  EXPECT_EQ(must_parse(R"({"kind":"simulate","seed":4e3})").point.seed, 4000u);
}

TEST(Protocol, RejectsDuplicateMembers) {
  // A repeated member has no one value to serve: each of these is refused
  // with an error naming the member, never read first-wins.
  const std::pair<const char*, const char*> cases[] = {
      {R"({"kind":"simulate","threads":2,"threads":4})", "'threads'"},
      {R"({"kind":"predict","prim":"FAA","machine":"knl","prim":"CAS"})",
       "'prim'"},
      {R"({"kind":"ping","kind":"stats"})", "'kind'"},
      {R"({"kind":"ping","id":"a","id":"a"})", "'id'"},
      {R"({"kind":"calibrate","machine":"test","samples":[)"
       R"({"mode":"private","prim":"FAA","threads":1,"cycles_per_op":12},)"
       R"({"mode":"shared","threads":2,"cycles_per_op":120,"threads":4}]})",
       "samples[1] has duplicate member 'threads'"},
  };
  for (const auto& [line, named] : cases) {
    std::string error;
    EXPECT_FALSE(parse_request(line, &error)) << line;
    EXPECT_NE(error.find("duplicate member"), std::string::npos)
        << line << " -> " << error;
    EXPECT_NE(error.find(named), std::string::npos) << line << " -> " << error;
  }
  // Equal names in different objects are not repeats.
  must_parse(
      R"({"kind":"calibrate","machine":"test","samples":[)"
      R"({"mode":"private","prim":"FAA","threads":1,"cycles_per_op":12},)"
      R"({"mode":"shared","prim":"FAA","threads":4,"cycles_per_op":130}]})");
}

TEST(Canonical, InsensitiveToOrderWhitespaceAndNumberSpelling) {
  const Request a = must_parse(
      R"({"kind":"predict","machine":"xeon","mode":"shared","prim":"FAA","threads":16,"work":100})");
  const Request b = must_parse(
      R"({ "work": 100.0, "prim": "FAA", "threads": 16.0, "kind": "predict",
           "mode": "shared", "machine": "xeon" })");
  EXPECT_EQ(canonical_request(a), canonical_request(b));
  EXPECT_EQ(request_cache_key(a), request_cache_key(b));
}

TEST(Canonical, IrrelevantMembersDoNotChangeTheKey) {
  // zipf parameters are irrelevant in shared mode; the id never keys.
  const Request a = must_parse(
      R"({"kind":"predict","mode":"shared","prim":"FAA","threads":8})");
  const Request b = must_parse(
      R"({"kind":"predict","mode":"shared","prim":"FAA","threads":8,
          "zipf_lines":999,"zipf_s":1.5,"id":"req-42"})");
  EXPECT_EQ(request_cache_key(a), request_cache_key(b));
  EXPECT_EQ(b.id, "req-42");
  // ...but in zipf mode they are load-bearing.
  const Request z1 = must_parse(
      R"({"kind":"predict","mode":"zipf","prim":"FAA","threads":8,"zipf_lines":64})");
  const Request z2 = must_parse(
      R"({"kind":"predict","mode":"zipf","prim":"FAA","threads":8,"zipf_lines":128})");
  EXPECT_NE(request_cache_key(z1), request_cache_key(z2));
}

TEST(Canonical, DistinctRequestsGetDistinctKeys) {
  const char* lines[] = {
      R"({"kind":"predict","prim":"FAA","threads":8})",
      R"({"kind":"predict","prim":"CAS","threads":8})",
      R"({"kind":"predict","prim":"FAA","threads":9})",
      R"({"kind":"predict","prim":"FAA","threads":8,"work":1})",
      R"({"kind":"simulate","prim":"FAA","threads":8})",
      R"({"kind":"advise","threads":8})",
  };
  std::set<std::string> keys;
  for (const char* line : lines) {
    const std::string key = request_cache_key(must_parse(line));
    EXPECT_EQ(key.size(), 32u);
    keys.insert(key);
  }
  EXPECT_EQ(keys.size(), std::size(lines));
}

TEST(Canonical, FormIsItselfValidJson) {
  const Request r = must_parse(
      R"({"kind":"simulate","mode":"zipf","prim":"CASLOOP","threads":4,
          "work":12.5,"zipf_lines":32,"zipf_s":0.8,"seed":9})");
  const std::string canon = canonical_request(r);
  std::string error;
  const auto doc = JsonValue::parse(canon, &error);
  ASSERT_TRUE(doc.has_value()) << canon << " -> " << error;
  // Canonicalizing the canonical form is a fixed point.
  const Request again = must_parse(canon);
  EXPECT_EQ(canonical_request(again), canon);
}

TEST(Canonical, KeyIsTruncatedSha256OfTheCanonicalForm) {
  for (const char* line : {
           R"({"kind":"predict","prim":"FAA","threads":8,"work":12.5})",
           R"({"kind":"advise","target":"lock","threads":4})",
           R"({"kind":"simulate","machine":"test","prim":"CAS","threads":2})",
       }) {
    const Request r = must_parse(line);
    EXPECT_EQ(request_cache_key(r), sha256_hex(canonical_request(r), 16))
        << line;
  }
}

TEST(ChainHash, SaltsAndContentBothMatter) {
  EXPECT_EQ(chain_hash("abc", 1), chain_hash("abc", 1));
  EXPECT_NE(chain_hash("abc", 1), chain_hash("abc", 2));
  EXPECT_NE(chain_hash("abc", 1), chain_hash("abd", 1));
  EXPECT_NE(chain_hash("", 1), chain_hash("", 2));
  // Length is folded in: a trailing NUL is not invisible.
  EXPECT_NE(chain_hash(std::string("a\0", 2), 1), chain_hash("a", 1));
}

TEST(Envelopes, ResultAndErrorShape) {
  Request r = must_parse(R"({"kind":"ping","id":"p1"})");
  const std::string ok = make_result_response(r, R"({"pong":true})");
  ASSERT_FALSE(ok.empty());
  EXPECT_EQ(ok.back(), '\n');
  const auto doc = JsonValue::parse(std::string_view(ok.data(), ok.size() - 1));
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->find("v")->as_string(), "am-serve/1");
  EXPECT_EQ(doc->find("id")->as_string(), "p1");
  EXPECT_TRUE(doc->find("ok")->as_bool());
  EXPECT_TRUE(doc->find("result")->find("pong")->as_bool());

  const std::string err = make_error_response("", "bad \"thing\"\n");
  const auto edoc =
      JsonValue::parse(std::string_view(err.data(), err.size() - 1));
  ASSERT_TRUE(edoc.has_value()) << err;
  EXPECT_FALSE(edoc->find("ok")->as_bool());
  EXPECT_EQ(edoc->find("error")->as_string(), "bad \"thing\"\n");
  EXPECT_EQ(edoc->find("id"), nullptr);  // empty id omitted
}

}  // namespace
}  // namespace am::service
