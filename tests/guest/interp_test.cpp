// Interpreter semantics on hand-assembled programs: integer ALU results,
// atomic value semantics applied at retirement, LR/SC reservation rules,
// the syscall surface, and the structured-error channel for every runtime
// fault class (illegal instruction, wild pointer, misaligned atomic,
// runaway loop). All runs ride the real sim::Machine (sim:test preset), so
// these also pin the guest->sim lowering end to end.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "guest/asm.hpp"
#include "guest/corpus.hpp"
#include "guest/runner.hpp"

namespace am::guest {
namespace {

using namespace am::guest::rv;

/// Assembles @p words at 0x10000 (entry) with a small RW data segment at
/// 0x20000 and runs it on the test machine.
GuestRunResult run_words(const std::vector<std::uint32_t>& words,
                         std::vector<std::uint8_t> data = {},
                         GuestRunConfig config = {}) {
  corpus::Elf32Builder b;
  corpus::Elf32Builder::Segment text;
  text.vaddr = 0x10000;
  text.flags = 5;  // R+X
  for (std::uint32_t w : words) {
    text.bytes.push_back(static_cast<std::uint8_t>(w));
    text.bytes.push_back(static_cast<std::uint8_t>(w >> 8));
    text.bytes.push_back(static_cast<std::uint8_t>(w >> 16));
    text.bytes.push_back(static_cast<std::uint8_t>(w >> 24));
  }
  text.memsz = static_cast<std::uint32_t>(text.bytes.size());
  corpus::Elf32Builder::Segment d;
  d.vaddr = 0x20000;
  d.flags = 6;  // R+W
  d.bytes = std::move(data);
  d.memsz = std::max<std::uint32_t>(
      64, static_cast<std::uint32_t>(d.bytes.size()));
  b.entry = 0x10000;
  b.segments = {text, d};
  const std::vector<std::uint8_t> elf = b.build();
  if (config.backend.empty() || config.backend == "sim:xeon") {
    config.backend = "sim:test";
  }
  return run_guest(elf.data(), elf.size(), config);
}

std::vector<std::uint32_t> exit_with_a0() {
  return {addi(a7, x0, 93), ecall()};
}

void append(std::vector<std::uint32_t>* prog,
            const std::vector<std::uint32_t>& tail) {
  prog->insert(prog->end(), tail.begin(), tail.end());
}

TEST(GuestInterp, ArithmeticFlowsIntoExitCode) {
  std::vector<std::uint32_t> prog = {
      addi(a0, x0, 5),
      addi(t0, x0, 7),
      mul(a0, a0, t0),   // 35
      addi(a0, a0, 7),   // 42
  };
  append(&prog, exit_with_a0());
  const GuestRunResult r = run_words(prog);
  ASSERT_TRUE(r.error.ok()) << r.error.code << ": " << r.error.message;
  ASSERT_EQ(r.hart_reports.size(), 1u);
  EXPECT_TRUE(r.hart_reports[0].exited);
  EXPECT_EQ(r.hart_reports[0].exit_code, 42u);
  EXPECT_GT(r.completion_cycles, 0u);
}

TEST(GuestInterp, AmoAddReturnsOldValueAndUpdatesMemory) {
  std::vector<std::uint32_t> prog = {
      lui(t0, 0x20000),
      addi(t1, x0, 5),
      sw(t1, 0, t0),            // [0x20000] = 5
      addi(t2, x0, 3),
      amoadd_w(s0, t2, t0),     // s0 = 5, [0x20000] = 8
      lw(s1, 0, t0),            // s1 = 8
      add(a0, s0, s1),          // 13
  };
  append(&prog, exit_with_a0());
  const GuestRunResult r = run_words(prog);
  ASSERT_TRUE(r.error.ok()) << r.error.code << ": " << r.error.message;
  EXPECT_EQ(r.hart_reports[0].exit_code, 13u);
  EXPECT_GE(r.hart_reports[0].atomics, 1u);
}

TEST(GuestInterp, LrScSucceedsOnceThenFailsWithoutReservation) {
  std::vector<std::uint32_t> prog = {
      lui(t0, 0x20000),
      lr_w(s0, t0),             // reservation on the line, s0 = 0
      addi(s1, s0, 9),
      sc_w(s2, s1, t0),         // success: s2 = 0, [0x20000] = 9
      sc_w(t3, s1, t0),         // no reservation anymore: t3 = 1, no store
      lw(s3, 0, t0),            // 9
      slli(t3, t3, 4),          // 16
      add(a0, t3, s3),          // 25
  };
  append(&prog, exit_with_a0());
  const GuestRunResult r = run_words(prog);
  ASSERT_TRUE(r.error.ok()) << r.error.code << ": " << r.error.message;
  EXPECT_EQ(r.hart_reports[0].exit_code, 25u);
  EXPECT_EQ(r.hart_reports[0].sc_failures, 1u);
}

TEST(GuestInterp, AmoCasSwapsOnlyOnMatch) {
  std::vector<std::uint32_t> prog = {
      lui(t0, 0x20000),
      addi(t1, x0, 7),
      sw(t1, 0, t0),            // [0x20000] = 7
      addi(s0, x0, 7),          // expected (rd carries it in)
      addi(t2, x0, 21),         // desired
      amocas_w(s0, t2, t0),     // matches: s0 = 7, [0x20000] = 21
      addi(s1, x0, 99),         // wrong expected
      addi(t2, x0, 50),
      amocas_w(s1, t2, t0),     // no match: s1 = 21, memory keeps 21
      lw(s2, 0, t0),
      add(a0, s1, s2),          // 21 + 21 = 42
  };
  append(&prog, exit_with_a0());
  const GuestRunResult r = run_words(prog);
  ASSERT_TRUE(r.error.ok()) << r.error.code << ": " << r.error.message;
  EXPECT_EQ(r.hart_reports[0].exit_code, 42u);
}

TEST(GuestInterp, WriteSyscallCapturesStdout) {
  std::vector<std::uint32_t> prog = {
      addi(a0, x0, 1),          // fd = stdout
      lui(a1, 0x20000),         // buf
      addi(a2, x0, 3),          // len
      addi(a7, x0, 64),         // write
      ecall(),
      addi(a0, x0, 0),
  };
  append(&prog, exit_with_a0());
  const GuestRunResult r = run_words(prog, {'h', 'i', '\n'});
  ASSERT_TRUE(r.error.ok()) << r.error.code << ": " << r.error.message;
  EXPECT_EQ(r.stdout_bytes, "hi\n");
}

TEST(GuestInterp, UnknownSyscallReturnsEnosys) {
  std::vector<std::uint32_t> prog = {
      addi(a7, x0, 999),
      ecall(),                   // a0 = -ENOSYS = -38
      addi(t0, x0, -38),
      sub(a0, a0, t0),           // 0 iff the kernel said ENOSYS
  };
  append(&prog, exit_with_a0());
  const GuestRunResult r = run_words(prog);
  ASSERT_TRUE(r.error.ok()) << r.error.code << ": " << r.error.message;
  EXPECT_EQ(r.hart_reports[0].exit_code, 0u);
}

TEST(GuestInterp, ClockGettime64WritesKernelTimespec) {
  // rv32 Linux is time64-only: nr 403 writes the 16-byte __kernel_timespec
  // {i64 tv_sec; i64 tv_nsec}. The virtual clock runs at 1 retired
  // instruction == 1 ns, so after the 5 instructions up to and including
  // the ecall: sec == 0, nsec == 5.
  std::vector<std::uint32_t> prog = {
      lui(a1, 0x20000),          // ts pointer
      addi(a0, x0, 1),           // clockid (CLOCK_MONOTONIC; ignored)
      addi(a7, x0, 403),
      addi(t6, x0, 0),           // filler so the instret count is explicit
      ecall(),                   // a0 = 0
      lw(t0, 0, a1),             // sec lo  = 0
      lw(t1, 4, a1),             // sec hi  = 0
      lw(t2, 8, a1),             // nsec lo = 5
      lw(t3, 12, a1),            // nsec hi = 0
      add(a0, a0, t0),
      add(a0, a0, t1),
      add(a0, a0, t2),
      add(a0, a0, t3),           // exit code = 5
  };
  append(&prog, exit_with_a0());
  const GuestRunResult r = run_words(prog);
  ASSERT_TRUE(r.error.ok()) << r.error.code << ": " << r.error.message;
  EXPECT_EQ(r.hart_reports[0].exit_code, 5u);
}

TEST(GuestInterp, ClockGettime32IsEnosysLikeRealRv32) {
  // Old 32-bit clock_gettime (nr 113) does not exist on rv32 kernels.
  std::vector<std::uint32_t> prog = {
      addi(a7, x0, 113),
      ecall(),
      addi(t0, x0, -38),
      sub(a0, a0, t0),           // 0 iff -ENOSYS
  };
  append(&prog, exit_with_a0());
  const GuestRunResult r = run_words(prog);
  ASSERT_TRUE(r.error.ok()) << r.error.code << ": " << r.error.message;
  EXPECT_EQ(r.hart_reports[0].exit_code, 0u);
}

TEST(GuestInterp, IllegalInstructionIsStructured) {
  const GuestRunResult r = run_words({0xffffffffu});
  EXPECT_EQ(r.error.code, errc::kIllegalInstruction);
}

TEST(GuestInterp, EbreakIsStructured) {
  const GuestRunResult r = run_words({ebreak()});
  EXPECT_EQ(r.error.code, errc::kBreakpoint);
}

TEST(GuestInterp, WildLoadIsMemFault) {
  std::vector<std::uint32_t> prog = {
      lui(t0, 0xdeadb000u),
      lw(a0, 0, t0),
  };
  append(&prog, exit_with_a0());
  const GuestRunResult r = run_words(prog);
  EXPECT_EQ(r.error.code, errc::kMemFault);
}

TEST(GuestInterp, JalrToTopOfAddressSpaceIsMemFault) {
  // pc = 0xfffffffc makes the fetch bounds check's `pc + 4` wrap to 0 in
  // uint32 arithmetic; done naively that passes and indexes the decoded
  // stream ~1G entries out of bounds. The jalr target is entirely
  // guest-controlled, so this must be a structured fault, never host UB.
  std::vector<std::uint32_t> prog = {
      jalr(x0, x0, -4),          // target (0 - 4) & ~1 = 0xfffffffc
  };
  const GuestRunResult r = run_words(prog);
  EXPECT_EQ(r.error.code, errc::kMemFault);
}

TEST(GuestInterp, StoreIntoTextIsTextWrite) {
  std::vector<std::uint32_t> prog = {
      lui(t0, 0x10000),
      sw(x0, 0, t0),
  };
  append(&prog, exit_with_a0());
  const GuestRunResult r = run_words(prog);
  EXPECT_EQ(r.error.code, errc::kTextWrite);
}

TEST(GuestInterp, MisalignedAtomicIsStructured) {
  std::vector<std::uint32_t> prog = {
      lui(t0, 0x20000),
      addi(t0, t0, 2),
      amoadd_w(s0, x0, t0),
  };
  append(&prog, exit_with_a0());
  const GuestRunResult r = run_words(prog);
  EXPECT_EQ(r.error.code, errc::kMisaligned);
}

TEST(GuestInterp, RunawayLoopHitsInstructionBudget) {
  GuestRunConfig config;
  config.guest.max_instructions = 10'000;
  const GuestRunResult r = run_words({jal(x0, 0)}, {}, config);
  EXPECT_EQ(r.error.code, errc::kInstructionBudget);
}

TEST(GuestInterp, SliceYieldsKeepPlainSpinLoopsLive) {
  // Hart 1 spins on a *plain* load of a flag hart 0 stores with a plain sw.
  // Without the slice-yield fairness mechanism this never terminates (the
  // spinner would monopolize interpretation); with it, both exit 0.
  std::vector<std::uint32_t> prog = {
      lui(t0, 0x20000),
      bne(a0, x0, 5 * 4),        // hart != 0 -> spin
      addi(t1, x0, 1),
      sw(t1, 0, t0),             // hart 0 publishes the flag
      addi(a0, x0, 0),
      jal(x0, 4 * 4),            // -> exit
      lw(t2, 0, t0),             // spin:
      beq(t2, x0, -1 * 4),
      addi(a0, x0, 0),
  };
  append(&prog, exit_with_a0());
  GuestRunConfig config;
  config.harts = 2;
  const GuestRunResult r = run_words(prog, {}, config);
  ASSERT_TRUE(r.error.ok()) << r.error.code << ": " << r.error.message;
  EXPECT_EQ(r.hart_reports[0].exit_code, 0u);
  EXPECT_EQ(r.hart_reports[1].exit_code, 0u);
}

// --- spin loops --------------------------------------------------------------
// Hart 0 spins on a plain load of a flag at 0x20000; hart 1 stores the flag
// and exits. Both harts fetch at cycle 0 and core 0 goes first, so hart 0
// runs one full slice (its instructions #1..#1024) and yields before hart 1
// runs at all; it sees the flag in its second slice. Every expected count
// below follows from the program text and that order; they hold whether the
// interpreter executes every repeated pass or skips them.

constexpr std::uint32_t kSpinHead = 2;  ///< word index of the spin loop

/// Word offset from word @p from to word @p to, in bytes.
constexpr std::int32_t off(std::uint32_t from, std::uint32_t to) {
  return (static_cast<std::int32_t>(to) - static_cast<std::int32_t>(from)) * 4;
}

/// lui t0 (the flag), then hart 0 falls into @p spin (starting at word
/// kSpinHead) and hart 1 stores 1 into the flag and exits 0.
std::vector<std::uint32_t> flag_spin(const std::vector<std::uint32_t>& spin) {
  const auto publisher = static_cast<std::uint32_t>(kSpinHead + spin.size());
  std::vector<std::uint32_t> prog = {
      lui(t0, 0x20000),
      bne(a0, x0, off(1, publisher)),
  };
  append(&prog, spin);
  append(&prog, {
      addi(t1, x0, 1),
      sw(t1, 0, t0),
      addi(a0, x0, 0),
  });
  append(&prog, exit_with_a0());
  return prog;
}

GuestRunResult run_flag_spin(const std::vector<std::uint32_t>& spin) {
  GuestRunConfig config;
  config.harts = 2;
  return run_words(flag_spin(spin), {}, config);
}

TEST(GuestInterp, ThreeInstructionSpinYieldsMidPass) {
  // #1 lui, #2 bne, then 3-instruction passes from #3: 1024 = 3*341 + 1, so
  // the slice ends after the addi of pass 341, whose lw read 0. The second
  // slice: beq (taken), lw (1), addi (t2 = 3), beq, then the 3-word exit.
  const GuestRunResult r = run_flag_spin({
      lw(t1, 0, t0),
      addi(t2, t1, 2),
      beq(t1, x0, off(4, kSpinHead)),
      addi(a0, t2, 0),
      addi(a7, x0, 93),
      ecall(),
  });
  ASSERT_TRUE(r.error.ok()) << r.error.code << ": " << r.error.message;
  EXPECT_EQ(r.hart_reports[0].exit_code, 3u);
  EXPECT_EQ(r.hart_reports[0].instructions, 1024u + 7u);
  EXPECT_EQ(r.hart_reports[0].yields, 1u);
  EXPECT_EQ(r.hart_reports[1].instructions, 7u);
  EXPECT_EQ(r.total_instructions, 1038u);
}

TEST(GuestInterp, SpinReadingInstretIsNotSkipped) {
  // The pass length depends on the parity of the rdinstret value: 7 when
  // even, 11 when odd. Both are odd, so consecutive passes alternate and the
  // registers still match at every loop head (t3 is cleared). Passes pair up
  // into 18 instructions from #3; 1024 - 3 = 18*56 + 13 puts the slice end
  // at offset 6 of the odd pass that starts at #1018 (word 8). The second
  // slice finishes that pass (4 words, the beq taken), runs one odd pass
  // that sees the flag (11), then rdinstret a0 (global count 1047, hart 1's
  // 7 included) and the exit.
  const GuestRunResult r = run_flag_spin({
      lw(t1, 0, t0),                   // 2
      rdinstret(t3),                   // 3
      andi(t3, t3, 1),                 // 4
      beq(t3, x0, off(5, 10)),         // 5: even skips words 6..9
      addi(t4, x0, 0),                 // 6
      addi(t4, x0, 0),                 // 7
      addi(t4, x0, 0),                 // 8
      addi(t4, x0, 0),                 // 9
      addi(t4, x0, 0),                 // 10
      andi(t3, t3, 0),                 // 11
      beq(t1, x0, off(12, kSpinHead)), // 12
      rdinstret(a0),                   // 13
      addi(a7, x0, 93),
      ecall(),
  });
  ASSERT_TRUE(r.error.ok()) << r.error.code << ": " << r.error.message;
  EXPECT_EQ(r.hart_reports[0].instructions, 1024u + 4u + 11u + 3u);
  EXPECT_EQ(r.hart_reports[0].exit_code, 1047u);
  EXPECT_EQ(r.hart_reports[0].yields, 1u);
  EXPECT_EQ(r.total_instructions, 1049u);
}

TEST(GuestInterp, SpinStoringWhatItLoadedIsNotSkipped) {
  // Each 5-instruction pass loads a counter at 0x20004, stores it back plus
  // one, and leaves the same registers behind (t1 ends as the flag). From
  // #3, 1024 - 3 = 5*204 + 1: the slice ends after the addi of pass 205,
  // with 204 increments stored. The second slice stores the 205th, sees the
  // flag and exits with the counter.
  const GuestRunResult r = run_flag_spin({
      lw(t1, 4, t0),
      addi(t1, t1, 1),
      sw(t1, 4, t0),
      lw(t1, 0, t0),
      beq(t1, x0, off(6, kSpinHead)),
      lw(a0, 4, t0),
      addi(a7, x0, 93),
      ecall(),
  });
  ASSERT_TRUE(r.error.ok()) << r.error.code << ": " << r.error.message;
  EXPECT_EQ(r.hart_reports[0].exit_code, 205u);
  EXPECT_EQ(r.hart_reports[0].instructions, 1024u + 6u);
  EXPECT_EQ(r.hart_reports[0].yields, 1u);
}

TEST(GuestInterp, SpinWithFailingScIsNotSkipped) {
  // Hart 0 holds no reservation, so each pass's sc.w fails locally (t3 = 1,
  // one sc failure). 1024 - 3 = 3*340 + 1: the slice ends after the lw of
  // pass 341, and the second slice runs the beq and one more pass: 342
  // failures, each counted.
  const GuestRunResult r = run_flag_spin({
      sc_w(t3, x0, t0),
      lw(t1, 0, t0),
      beq(t1, x0, off(4, kSpinHead)),
      addi(a0, t3, 0),
      addi(a7, x0, 93),
      ecall(),
  });
  ASSERT_TRUE(r.error.ok()) << r.error.code << ": " << r.error.message;
  EXPECT_EQ(r.hart_reports[0].exit_code, 1u);
  EXPECT_EQ(r.hart_reports[0].sc_failures, 342u);
  EXPECT_EQ(r.hart_reports[0].instructions, 1024u + 7u);
}

TEST(GuestInterp, SpinMakingASyscallIsNotSkipped) {
  // Each 7-instruction pass writes one byte to stdout. 1024 - 3 = 7*145 + 6:
  // the slice ends on the beq of pass 146, and the second slice runs pass
  // 147, which sees the flag: 147 bytes, and exit(1) with write's count.
  const GuestRunResult r = run_flag_spin({
      addi(a0, x0, 1),   // fd
      addi(a1, t0, 4),   // buf: a zero byte
      addi(a2, x0, 1),   // len
      addi(a7, x0, 64),  // write
      ecall(),
      lw(t1, 0, t0),
      beq(t1, x0, off(8, kSpinHead)),
      addi(a7, x0, 93),
      ecall(),
  });
  ASSERT_TRUE(r.error.ok()) << r.error.code << ": " << r.error.message;
  EXPECT_EQ(r.stdout_bytes, std::string(147, '\0'));
  EXPECT_EQ(r.hart_reports[0].exit_code, 1u);
  EXPECT_EQ(r.hart_reports[0].instructions, 1024u + 7u + 2u);
}

TEST(GuestInterp, SpinTripsInstructionBudgetOnItsLastInstruction) {
  // Nothing ever stores the flag. Every slice is 1024 instructions; the
  // budget of 10,001 ends the run inside the tenth slice, after 9 yields,
  // with exactly the budget retired.
  GuestRunConfig config;
  config.guest.max_instructions = 10'001;
  const GuestRunResult r = run_words(
      {lui(t0, 0x20000), lw(t1, 0, t0), beq(t1, x0, -4)}, {}, config);
  EXPECT_EQ(r.error.code, errc::kInstructionBudget);
  EXPECT_EQ(r.error.message, "guest exceeded 10001 instructions");
  EXPECT_EQ(r.total_instructions, 10'001u);
  ASSERT_EQ(r.hart_reports.size(), 1u);
  EXPECT_EQ(r.hart_reports[0].instructions, 10'001u);
  EXPECT_EQ(r.hart_reports[0].yields, 9u);
}

TEST(GuestInterp, BadBackendAndBadHartsAreStructured) {
  const std::vector<std::uint8_t> elf = corpus::build("faa_counter");
  GuestRunConfig config;
  config.backend = "hw";
  GuestRunResult r = run_guest(elf.data(), elf.size(), config);
  EXPECT_EQ(r.error.code, errc::kBadBackend);

  config.backend = "sim:test";
  config.harts = 0;
  r = run_guest(elf.data(), elf.size(), config);
  EXPECT_EQ(r.error.code, errc::kBadHarts);

  config.harts = 100000;  // more harts than any preset has cores
  r = run_guest(elf.data(), elf.size(), config);
  EXPECT_EQ(r.error.code, errc::kBadHarts);
}

}  // namespace
}  // namespace am::guest
