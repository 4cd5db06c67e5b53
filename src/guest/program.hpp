// GuestProgram: the sim::ThreadProgram adapter that turns a loaded RV32IMA
// image into a simulator workload. Each hart is one sim::Machine core.
//
// Split of truth:
//   - Guest memory is VALUE truth. Plain loads/stores and all integer code
//     execute functionally at host speed inside next_op(); the value
//     semantics of every atomic are applied in on_result(), i.e. in the
//     machine's retirement order — the single-threaded discrete-event loop
//     makes that order the serialization order, so guest values are exactly
//     what a sequentially-consistent RV32 multi-hart would compute.
//   - The simulator is TIMING/ENERGY truth. Every AMO, LR/SC, CAS and
//     fence is lowered to an IssueRequest carrying the plain-instruction
//     work executed since the previous modeled op, so atomics pay modeled
//     MESI transfer latency, queueing and energy while ordinary code is
//     free-running.
//
// Lowering map (docs/guest.md):
//   amoswap.w           -> kSwap      lr.w   -> kLoad
//   amoadd/xor/and/or/  -> kFaa       sc.w   -> kCas
//     min/max[u].w                    amocas.w -> kCas
//   fence / fence.i     -> kFence
// The sim's own line values evolve under its counter semantics and may
// diverge from guest values (e.g. a sim FAA always adds 1); guest-level
// results are authoritative, including LR/SC success, which is decided by a
// per-hart reservation table invalidated in retirement order.
//
// Livelock note: a hart spinning on a *plain* load (ticket-lock wait loop)
// would never see another hart's store if it looped forever inside one
// next_op() call — sim time is frozen there and other harts only run at
// their own events. After slice_instructions plain instructions the
// interpreter yields a kLoad on a private scratch line, advancing sim time
// and letting the other harts' interpretation (and thus their plain
// stores) proceed. The yield is both the timing model for spin traffic and
// the scheduling fairness mechanism.
//
// Because nothing else runs inside one next_op() call, guest memory changes
// there only through this hart's own stores. So when a taken backward jump
// lands where the previous one did, with no plain store, CSR read, ecall or
// local sc.w failure in between and every register written since holding
// its old value, the pass just retired is a fixed point: the next pass
// repeats it exactly. The interpreter then retires as many whole passes as
// fit before the slice yield and the instruction budget in one step, so
// every count, every yield with its work_before and any instruction_budget
// error fall where executing each pass would put them.
//
// Completion cycles are the machine's clock when run() returns (runner.hpp).
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "guest/decode.hpp"
#include "guest/elf.hpp"
#include "guest/errors.hpp"
#include "sim/program.hpp"

namespace am::guest {

struct GuestConfig {
  std::uint32_t harts = 1;
  std::uint64_t seed = 1;
  /// Plain instructions executed before a hart yields a scratch-line load.
  std::uint32_t slice_instructions = 1024;
  /// Total retired guest instructions across all harts before the run is
  /// aborted with errc::kInstructionBudget.
  std::uint64_t max_instructions = 50'000'000;
  std::uint32_t stack_bytes = 64u << 10;  ///< per-hart stack size
  std::size_t max_stdout_bytes = 1u << 16;
};

/// Per-hart end-of-run report.
struct HartReport {
  bool exited = false;
  std::uint32_t exit_code = 0;
  std::uint64_t instructions = 0;  ///< retired guest instructions
  std::uint64_t atomics = 0;       ///< modeled ops (AMO/LR/SC/CAS/fence)
  std::uint64_t yields = 0;        ///< scratch-line slice yields
  std::uint64_t sc_failures = 0;   ///< guest-level sc.w failures
};

class GuestProgram final : public sim::ThreadProgram {
 public:
  GuestProgram(GuestImage image, GuestConfig config);

  std::optional<sim::IssueRequest> next_op(sim::CoreId core,
                                           Xoshiro256& rng) override;
  void on_result(sim::CoreId core, const OpResult& result) override;

  // --- end-of-run introspection ----------------------------------------
  bool all_exited() const noexcept { return exited_harts_ == config_.harts; }
  const GuestError& error() const noexcept { return error_; }
  const std::vector<HartReport>& harts() const noexcept { return reports_; }
  const std::string& stdout_bytes() const noexcept { return stdout_; }
  std::uint64_t total_instructions() const noexcept { return total_instret_; }

 private:
  struct Hart {
    std::array<std::uint32_t, 32> x{};
    std::uint32_t pc = 0;
    bool done = false;
    /// Modeled op awaiting its on_result (the instruction's value
    /// semantics are applied at retirement).
    enum class Pending : std::uint8_t {
      kNone, kYield, kAmo, kLr, kSc, kCas, kFence
    };
    Pending pending = Pending::kNone;
    GuestOp pending_op{};
    std::uint32_t pending_addr = 0;
    std::uint32_t pending_rs2 = 0;
    std::uint32_t pending_expected = 0;  ///< amocas.w only
    /// LR reservation: the line of the last lr.w, or none.
    std::optional<sim::LineId> reservation;
    /// Spin fast-forward scratch of the next_op() call in progress: each
    /// register's value at the last taken backward jump, for the registers
    /// that call has marked written since.
    std::array<std::uint32_t, 32> x_at_jump{};
  };

  static sim::LineId line_of(std::uint32_t addr) noexcept {
    return addr >> 6;
  }
  /// Private per-hart scratch line for slice yields, far outside the
  /// 32-bit guest line space so it never aliases guest data.
  static sim::LineId scratch_line(sim::CoreId core) noexcept {
    return (1ull << 56) + core;
  }

  void fail(const char* code, std::string message);
  /// Kills every other hart's reservation on @p line (a store-class access
  /// by @p core became visible).
  void break_reservations(sim::CoreId core, sim::LineId line);
  /// Executes the ecall for hart @p h. Returns false when the hart (or the
  /// whole program) is done.
  bool do_syscall(sim::CoreId core, Hart& h);
  void finish_hart(sim::CoreId core, std::uint32_t exit_code);

  GuestImage image_;
  GuestConfig config_;
  std::vector<GuestOp> text_;
  std::vector<Hart> harts_;
  std::vector<HartReport> reports_;
  std::string stdout_;
  GuestError error_;
  bool fatal_ = false;
  bool group_exit_ = false;
  std::uint32_t group_exit_code_ = 0;
  std::uint32_t exited_harts_ = 0;
  std::uint64_t total_instret_ = 0;
  std::uint32_t brk_;
};

}  // namespace am::guest
