#include "crypto/sha256.hpp"

#include <gtest/gtest.h>

#include <string>

#include "support/hex.hpp"

namespace ldke::crypto {
namespace {

using support::bytes_of;
using support::to_hex;

std::string digest_hex(std::string_view msg) {
  return to_hex(sha256(bytes_of(msg)));
}

// FIPS 180-4 / NIST CAVP known-answer vectors.
TEST(Sha256, EmptyMessage) {
  EXPECT_EQ(digest_hex(""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  EXPECT_EQ(digest_hex("abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  EXPECT_EQ(digest_hex("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs) {
  support::Bytes msg(1000000, 'a');
  EXPECT_EQ(to_hex(sha256(msg)),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, IncrementalMatchesOneShot) {
  const auto msg = bytes_of("the quick brown fox jumps over the lazy dog!!");
  Sha256 ctx;
  for (std::size_t i = 0; i < msg.size(); ++i) {
    ctx.update({&msg[i], 1});
  }
  EXPECT_EQ(ctx.finish(), sha256(msg));
}

TEST(Sha256, IncrementalChunkedMatchesOneShot) {
  support::Bytes msg(4096);
  for (std::size_t i = 0; i < msg.size(); ++i) {
    msg[i] = static_cast<std::uint8_t>(i * 31 + 7);
  }
  Sha256 ctx;
  std::size_t off = 0;
  const std::size_t chunks[] = {1, 63, 64, 65, 127, 128, 1000};
  for (std::size_t c : chunks) {
    ctx.update({msg.data() + off, c});
    off += c;
  }
  ctx.update({msg.data() + off, msg.size() - off});
  EXPECT_EQ(ctx.finish(), sha256(msg));
}

// The padding boundary cases (55, 56, 63, 64, 65 bytes) exercise both
// one-extra-block and same-block padding paths.
TEST(Sha256, PaddingBoundaryLengths) {
  for (std::size_t len : {55u, 56u, 57u, 63u, 64u, 65u, 119u, 120u, 128u}) {
    support::Bytes msg(len, 0x5a);
    Sha256 whole;
    whole.update(msg);
    Sha256 split;
    split.update({msg.data(), len / 2});
    split.update({msg.data() + len / 2, len - len / 2});
    EXPECT_EQ(whole.finish(), split.finish()) << "len=" << len;
  }
}

TEST(Sha256, ResetAllowsReuse) {
  Sha256 ctx;
  ctx.update(bytes_of("first"));
  (void)ctx.finish();
  ctx.reset();
  ctx.update(bytes_of("abc"));
  EXPECT_EQ(to_hex(ctx.finish()),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

// Midstate capture/resume: hashing prefix||suffix through a resumed
// context must equal hashing the concatenation directly.  Capture is
// only valid at 64-byte block boundaries.
TEST(Sha256, MidstateResumeMatchesDirectHash) {
  for (std::size_t prefix_blocks : {1u, 2u, 4u}) {
    support::Bytes prefix(prefix_blocks * 64);
    for (std::size_t i = 0; i < prefix.size(); ++i) {
      prefix[i] = static_cast<std::uint8_t>(i ^ 0xc3);
    }
    const auto suffix = bytes_of("resumed tail, any length");

    Sha256 base;
    base.update(prefix);
    const Sha256Midstate mid = base.compressed_state();

    Sha256 resumed = Sha256::resume(mid);
    resumed.update(suffix);

    support::Bytes whole = prefix;
    whole.insert(whole.end(), suffix.begin(), suffix.end());
    EXPECT_EQ(resumed.finish(), sha256(whole)) << "blocks=" << prefix_blocks;
  }
}

TEST(Sha256, MidstateIsReusable) {
  support::Bytes prefix(64, 0x36);  // an ipad-style block
  Sha256 base;
  base.update(prefix);
  const Sha256Midstate mid = base.compressed_state();
  // Two independent resumes from one midstate must not interfere.
  Sha256 a = Sha256::resume(mid);
  Sha256 b = Sha256::resume(mid);
  a.update(bytes_of("message A"));
  b.update(bytes_of("message B"));
  support::Bytes whole_a = prefix;
  const auto tail_a = bytes_of("message A");
  whole_a.insert(whole_a.end(), tail_a.begin(), tail_a.end());
  EXPECT_EQ(a.finish(), sha256(whole_a));
  support::Bytes whole_b = prefix;
  const auto tail_b = bytes_of("message B");
  whole_b.insert(whole_b.end(), tail_b.begin(), tail_b.end());
  EXPECT_EQ(b.finish(), sha256(whole_b));
}

TEST(Sha256Compress, DrivesTheIncrementalContextUnchanged) {
  // One-shot sha256() and a byte-at-a-time Sha256 both route every block
  // through the single compression function and match a NIST vector.
  const support::Bytes msg = bytes_of("abc");
  EXPECT_EQ(to_hex(sha256(msg)),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  Sha256 ctx;
  for (std::size_t i = 0; i < msg.size(); ++i) ctx.update({&msg[i], 1});
  EXPECT_EQ(ctx.finish(), sha256(msg));
}

TEST(Sha256, DistinctMessagesDistinctDigests) {
  EXPECT_NE(digest_hex("messageA"), digest_hex("messageB"));
  EXPECT_NE(digest_hex("a"), digest_hex(std::string_view("a\0", 2)));
}

}  // namespace
}  // namespace ldke::crypto
