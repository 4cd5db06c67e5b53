// Strict base64 contract: round-trips are exact and every malformed or
// non-canonical wire form is refused — two distinct accepted strings never
// decode to the same bytes (the run_guest canonicalization relies on it).

#include <gtest/gtest.h>

#include <string>

#include "common/base64.hpp"

namespace am {
namespace {

std::string decode_ok(const std::string& text) {
  std::string out;
  EXPECT_TRUE(base64_decode(text, &out)) << text;
  return out;
}

TEST(Base64, RoundTripsAllTailLengths) {
  for (const std::string& s :
       {std::string(), std::string("f"), std::string("fo"), std::string("foo"),
        std::string("foob"), std::string("fooba"), std::string("foobar"),
        std::string("\x00\xff\x7f\x80", 4)}) {
    EXPECT_EQ(decode_ok(base64_encode(s)), s);
  }
  EXPECT_EQ(base64_encode("foobar"), "Zm9vYmFy");  // RFC 4648 §10 vector
  EXPECT_EQ(base64_encode("foob"), "Zm9vYg==");
}

TEST(Base64, RejectsMalformedShapes) {
  std::string out;
  EXPECT_FALSE(base64_decode("QQQ", &out));     // length % 4 != 0
  EXPECT_FALSE(base64_decode("QQ=A", &out));    // data after padding
  EXPECT_FALSE(base64_decode("=QQQ", &out));    // leading padding
  EXPECT_FALSE(base64_decode("QQ==QQ==", &out));  // padding not terminal
  EXPECT_FALSE(base64_decode("Zm9v\n", &out));  // whitespace
  EXPECT_FALSE(base64_decode("Zm-v", &out));    // url alphabet
}

TEST(Base64, RejectsNonCanonicalTrailingBits) {
  // "QQ==" is the canonical encoding of "A"; "QR==" differs only in the
  // unused low bits of the final symbol. A lenient decoder maps both to
  // "A" — strict RFC 4648 §3.5 refuses the second spelling.
  EXPECT_EQ(decode_ok("QQ=="), "A");
  std::string out;
  EXPECT_FALSE(base64_decode("QR==", &out));
  // Same for one-pad groups: "QUI=" is canonical for "AB", "QUJ=" is not.
  EXPECT_EQ(decode_ok("QUI="), "AB");
  EXPECT_FALSE(base64_decode("QUJ=", &out));
}

}  // namespace
}  // namespace am
