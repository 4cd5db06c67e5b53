#include "guest/program.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>

#include "common/random.hpp"

namespace am::guest {

namespace {

// RISC-V Linux syscall numbers (the minimal surface docs/guest.md lists).
constexpr std::uint32_t kSysWrite = 64;
constexpr std::uint32_t kSysExit = 93;
constexpr std::uint32_t kSysExitGroup = 94;
constexpr std::uint32_t kSysClockGettime64 = 403;
constexpr std::uint32_t kSysBrk = 214;

constexpr std::uint32_t kEnosys = static_cast<std::uint32_t>(-38);
constexpr std::uint32_t kEfault = static_cast<std::uint32_t>(-14);
constexpr std::uint32_t kEbadf = static_cast<std::uint32_t>(-9);

/// No spin snapshot: pcs are even, so an odd value never matches one.
constexpr std::uint32_t kNoLoop = 1;

std::uint32_t mulh_signed(std::uint32_t a, std::uint32_t b) {
  const std::int64_t p = static_cast<std::int64_t>(static_cast<std::int32_t>(a)) *
                         static_cast<std::int64_t>(static_cast<std::int32_t>(b));
  return static_cast<std::uint32_t>(static_cast<std::uint64_t>(p) >> 32);
}

std::uint32_t mulh_su(std::uint32_t a, std::uint32_t b) {
  const std::int64_t p = static_cast<std::int64_t>(static_cast<std::int32_t>(a)) *
                         static_cast<std::int64_t>(static_cast<std::uint64_t>(b));
  return static_cast<std::uint32_t>(static_cast<std::uint64_t>(p) >> 32);
}

std::uint32_t mulh_unsigned(std::uint32_t a, std::uint32_t b) {
  const std::uint64_t p = static_cast<std::uint64_t>(a) * b;
  return static_cast<std::uint32_t>(p >> 32);
}

}  // namespace

GuestProgram::GuestProgram(GuestImage image, GuestConfig config)
    : image_(std::move(image)),
      config_(config),
      harts_(config.harts),
      reports_(config.harts),
      brk_(image_.brk) {
  text_ = decode_stream(image_.mem, image_.text_base, image_.text_end);
  for (std::uint32_t h = 0; h < config_.harts; ++h) {
    Hart& hart = harts_[h];
    hart.pc = image_.entry;
    const std::uint32_t stack_lo = image_.stacks_base + h * config_.stack_bytes;
    const std::uint32_t stack_hi = stack_lo + config_.stack_bytes;
    // Deterministic splitmix64 fill: reads of uninitialized stack slots see
    // seeded garbage, not convenient zeros, and two runs with the same seed
    // see the same garbage.
    SplitMix64 fill(config_.seed ^ (0x5157u + h));
    for (std::uint32_t addr = stack_lo; addr + 8 <= stack_hi; addr += 8) {
      const std::uint64_t v = fill.next();
      image_.mem.write_raw(addr, &v, 8);
    }
    hart.x[2] = stack_hi - 16;  // sp, 16-byte aligned, top of the hart's stack
    hart.x[10] = h;             // a0 = hart id
    hart.x[11] = config_.harts; // a1 = hart count
  }
}

void GuestProgram::fail(const char* code, std::string message) {
  if (!fatal_) {
    fatal_ = true;
    error_ = GuestError::make(code, std::move(message));
  }
}

void GuestProgram::break_reservations(sim::CoreId core, sim::LineId line) {
  for (std::uint32_t i = 0; i < harts_.size(); ++i) {
    if (i != core && harts_[i].reservation == line) {
      harts_[i].reservation.reset();
    }
  }
}

void GuestProgram::finish_hart(sim::CoreId core, std::uint32_t exit_code) {
  Hart& h = harts_[core];
  if (h.done) return;
  h.done = true;
  reports_[core].exited = true;
  reports_[core].exit_code = exit_code;
  ++exited_harts_;
}

bool GuestProgram::do_syscall(sim::CoreId core, Hart& h) {
  const std::uint32_t nr = h.x[17];  // a7
  switch (nr) {
    case kSysExit:
      finish_hart(core, h.x[10]);
      return false;
    case kSysExitGroup:
      // Ends the whole program: this hart now, the others at their next
      // fetch (they are mid-op inside the machine).
      group_exit_ = true;
      group_exit_code_ = h.x[10];
      finish_hart(core, h.x[10]);
      return false;
    case kSysWrite: {
      const std::uint32_t fd = h.x[10];
      const std::uint32_t buf = h.x[11];
      const std::uint32_t len = h.x[12];
      if (fd != 1 && fd != 2) {
        h.x[10] = kEbadf;
        return true;
      }
      if (len > 0 && !image_.mem.contains(buf, len)) {
        h.x[10] = kEfault;
        return true;
      }
      const std::size_t keep =
          stdout_.size() < config_.max_stdout_bytes
              ? std::min<std::size_t>(len,
                                      config_.max_stdout_bytes - stdout_.size())
              : 0;
      if (keep > 0) {
        const std::size_t at = stdout_.size();
        stdout_.resize(at + keep);
        image_.mem.read_raw(buf, &stdout_[at], static_cast<std::uint32_t>(keep));
      }
      h.x[10] = len;  // short writes never surface to the guest
      return true;
    }
    case kSysClockGettime64: {
      // Deterministic virtual clock: 1 retired instruction == 1 ns. Wall
      // time would break byte-identical replay; the guest only needs a
      // monotonic measure of its own progress. rv32 Linux is time64-only
      // (no nr 113), so this is clock_gettime64 writing the 16-byte
      // __kernel_timespec {i64 tv_sec; i64 tv_nsec} toolchain-built
      // guests expect.
      const std::uint32_t ts = h.x[11];
      const std::uint64_t sec = total_instret_ / 1'000'000'000ull;
      const std::uint64_t nsec = total_instret_ % 1'000'000'000ull;
      image_.mem.store32(ts, static_cast<std::uint32_t>(sec));
      image_.mem.store32(ts + 4, static_cast<std::uint32_t>(sec >> 32));
      image_.mem.store32(ts + 8, static_cast<std::uint32_t>(nsec));
      image_.mem.store32(ts + 12, 0);
      if (!image_.mem.ok()) {
        image_.mem.clear_fault();
        h.x[10] = kEfault;
        return true;
      }
      h.x[10] = 0;
      return true;
    }
    case kSysBrk: {
      const std::uint32_t want = h.x[10];
      if (want >= image_.brk && want <= image_.heap_end) brk_ = want;
      h.x[10] = brk_;
      return true;
    }
    default:
      h.x[10] = kEnosys;
      return true;
  }
}

std::optional<sim::IssueRequest> GuestProgram::next_op(sim::CoreId core,
                                                       Xoshiro256& rng) {
  (void)rng;  // the guest's control flow is its own randomness
  if (fatal_ || core >= harts_.size()) return std::nullopt;
  Hart& h = harts_[core];
  if (h.done) return std::nullopt;
  if (group_exit_) {
    finish_hart(core, group_exit_code_);
    return std::nullopt;
  }

  sim::Cycles work = 0;
  const auto yield_request = [&](Hart::Pending kind) {
    h.pending = kind;
    sim::IssueRequest r;
    r.prim = Primitive::kLoad;
    r.line = scratch_line(core);
    r.work_before = work;
    return r;
  };

  // Spin fast-forward (the livelock note in program.hpp). `loop_pc` is where
  // the last taken backward jump landed, or kNoLoop once a plain store, CSR
  // read, ecall or local sc.w failure followed it, and `loop_instret` is the
  // retired count there. `written` marks the registers written since (x0's
  // bit stays set: x0 never changes), and h.x_at_jump holds their values at
  // that jump.
  std::uint32_t loop_pc = kNoLoop;
  std::uint64_t loop_instret = 0;
  std::uint32_t written = 1;
  const auto wr = [&](std::uint8_t rd, std::uint32_t v) {
    const std::uint32_t bit = 1u << rd;
    if ((written & bit) == 0) {
      written |= bit;
      h.x_at_jump[rd] = h.x[rd];
    }
    if (rd != 0) h.x[rd] = v;
  };
  const auto registers_unchanged = [&] {
    for (std::uint32_t m = written & ~1u; m != 0; m &= m - 1) {
      const int r = std::countr_zero(m);
      if (h.x[r] != h.x_at_jump[r]) return false;
    }
    return true;
  };

  for (;;) {
    if (total_instret_ >= config_.max_instructions) {
      fail(errc::kInstructionBudget,
           "guest exceeded " + std::to_string(config_.max_instructions) +
               " instructions");
      return std::nullopt;
    }
    // 64-bit sum: `h.pc + 4` in uint32 wraps to 0 for pc >= 0xfffffffc,
    // which would pass the check and index text_ ~1G entries out of
    // bounds — and a jalr target is fully guest-controlled.
    if (h.pc < image_.text_base ||
        static_cast<std::uint64_t>(h.pc) + 4 > image_.text_end ||
        h.pc % 4 != 0) {
      fail(errc::kMemFault, "pc outside executable text: " +
                                std::to_string(h.pc));
      return std::nullopt;
    }
    const std::uint32_t pc = h.pc;
    const GuestOp& op = text_[(pc - image_.text_base) >> 2];
    ++total_instret_;
    ++reports_[core].instructions;

    const std::uint32_t rs1 = h.x[op.rs1];
    const std::uint32_t rs2 = h.x[op.rs2];

    // Atomics and fences leave the interpreter: the instruction's value
    // semantics are deferred to on_result (retirement order).
    if (is_atomic_or_fence(op.op)) {
      sim::IssueRequest r;
      r.work_before = work;
      if (op.op == Op::kFence) {
        h.pending = Hart::Pending::kFence;
        h.pending_op = op;
        r.prim = Primitive::kFence;
        return r;
      }
      const std::uint32_t addr = rs1;
      if (addr % 4 != 0) {
        fail(errc::kMisaligned,
             "misaligned atomic at pc=" + std::to_string(h.pc) +
                 " addr=" + std::to_string(addr));
        return std::nullopt;
      }
      if (!image_.mem.contains(addr, 4)) {
        fail(errc::kMemFault, "atomic outside guest memory: addr=" +
                                  std::to_string(addr));
        return std::nullopt;
      }
      h.pending_op = op;
      h.pending_addr = addr;
      h.pending_rs2 = rs2;
      r.line = line_of(addr);
      switch (op.op) {
        case Op::kLrW:
          h.pending = Hart::Pending::kLr;
          r.prim = Primitive::kLoad;
          break;
        case Op::kScW: {
          if (h.reservation != std::optional<sim::LineId>(line_of(addr))) {
            // Guest-authoritative failure without a reservation: no line
            // traffic is modeled (the store never leaves the core), the
            // instruction costs one plain slot.
            h.reservation.reset();
            wr(op.rd, 1);
            ++reports_[core].sc_failures;
            h.pc += 4;
            ++work;
            loop_pc = kNoLoop;
            break;
          }
          h.pending = Hart::Pending::kSc;
          r.prim = Primitive::kCas;
          r.cas_expected = image_.mem.load32(addr);
          r.cas_desired = rs2;
          return r;
        }
        case Op::kAmoCasW:
          h.pending = Hart::Pending::kCas;
          h.pending_expected = h.x[op.rd];
          h.pending_rs2 = rs2;
          r.prim = Primitive::kCas;
          r.cas_expected = h.pending_expected;
          r.cas_desired = rs2;
          return r;
        case Op::kAmoSwapW:
          h.pending = Hart::Pending::kAmo;
          r.prim = Primitive::kSwap;
          r.store_value = rs2;
          return r;
        default:  // the remaining AMOs: unconditional RMW == FAA timing
          h.pending = Hart::Pending::kAmo;
          r.prim = Primitive::kFaa;
          r.store_value = rs2;
          return r;
      }
      if (h.pending == Hart::Pending::kLr) return r;
      // Local sc.w failure fell through: keep interpreting.
      if (work >= config_.slice_instructions) {
        ++reports_[core].yields;
        return yield_request(Hart::Pending::kYield);
      }
      continue;
    }

    ++work;
    switch (op.op) {
      case Op::kLui: wr(op.rd, static_cast<std::uint32_t>(op.imm)); break;
      case Op::kAuipc:
        wr(op.rd, h.pc + static_cast<std::uint32_t>(op.imm));
        break;
      case Op::kJal:
        wr(op.rd, h.pc + 4);
        h.pc += static_cast<std::uint32_t>(op.imm);
        goto jumped;
      case Op::kJalr: {
        const std::uint32_t target =
            (rs1 + static_cast<std::uint32_t>(op.imm)) & ~1u;
        wr(op.rd, h.pc + 4);
        h.pc = target;
        goto jumped;
      }
      case Op::kBeq:
        if (rs1 == rs2) { h.pc += static_cast<std::uint32_t>(op.imm); goto jumped; }
        break;
      case Op::kBne:
        if (rs1 != rs2) { h.pc += static_cast<std::uint32_t>(op.imm); goto jumped; }
        break;
      case Op::kBlt:
        if (static_cast<std::int32_t>(rs1) < static_cast<std::int32_t>(rs2)) {
          h.pc += static_cast<std::uint32_t>(op.imm);
          goto jumped;
        }
        break;
      case Op::kBge:
        if (static_cast<std::int32_t>(rs1) >= static_cast<std::int32_t>(rs2)) {
          h.pc += static_cast<std::uint32_t>(op.imm);
          goto jumped;
        }
        break;
      case Op::kBltu:
        if (rs1 < rs2) { h.pc += static_cast<std::uint32_t>(op.imm); goto jumped; }
        break;
      case Op::kBgeu:
        if (rs1 >= rs2) { h.pc += static_cast<std::uint32_t>(op.imm); goto jumped; }
        break;
      case Op::kLb:
        wr(op.rd, static_cast<std::uint32_t>(static_cast<std::int32_t>(
                      static_cast<std::int8_t>(image_.mem.load8(
                          rs1 + static_cast<std::uint32_t>(op.imm))))));
        break;
      case Op::kLh:
        wr(op.rd, static_cast<std::uint32_t>(static_cast<std::int32_t>(
                      static_cast<std::int16_t>(image_.mem.load16(
                          rs1 + static_cast<std::uint32_t>(op.imm))))));
        break;
      case Op::kLw:
        wr(op.rd, image_.mem.load32(rs1 + static_cast<std::uint32_t>(op.imm)));
        break;
      case Op::kLbu:
        wr(op.rd, image_.mem.load8(rs1 + static_cast<std::uint32_t>(op.imm)));
        break;
      case Op::kLhu:
        wr(op.rd, image_.mem.load16(rs1 + static_cast<std::uint32_t>(op.imm)));
        break;
      case Op::kSb: {
        const std::uint32_t addr = rs1 + static_cast<std::uint32_t>(op.imm);
        image_.mem.store8(addr, rs2);
        break_reservations(core, line_of(addr));
        loop_pc = kNoLoop;
        break;
      }
      case Op::kSh: {
        const std::uint32_t addr = rs1 + static_cast<std::uint32_t>(op.imm);
        image_.mem.store16(addr, rs2);
        break_reservations(core, line_of(addr));
        loop_pc = kNoLoop;
        break;
      }
      case Op::kSw: {
        const std::uint32_t addr = rs1 + static_cast<std::uint32_t>(op.imm);
        image_.mem.store32(addr, rs2);
        break_reservations(core, line_of(addr));
        loop_pc = kNoLoop;
        break;
      }
      case Op::kAddi: wr(op.rd, rs1 + static_cast<std::uint32_t>(op.imm)); break;
      case Op::kSlti:
        wr(op.rd, static_cast<std::int32_t>(rs1) < op.imm ? 1 : 0);
        break;
      case Op::kSltiu:
        wr(op.rd, rs1 < static_cast<std::uint32_t>(op.imm) ? 1 : 0);
        break;
      case Op::kXori: wr(op.rd, rs1 ^ static_cast<std::uint32_t>(op.imm)); break;
      case Op::kOri: wr(op.rd, rs1 | static_cast<std::uint32_t>(op.imm)); break;
      case Op::kAndi: wr(op.rd, rs1 & static_cast<std::uint32_t>(op.imm)); break;
      case Op::kSlli: wr(op.rd, rs1 << (op.imm & 31)); break;
      case Op::kSrli: wr(op.rd, rs1 >> (op.imm & 31)); break;
      case Op::kSrai:
        wr(op.rd, static_cast<std::uint32_t>(static_cast<std::int32_t>(rs1) >>
                                             (op.imm & 31)));
        break;
      case Op::kAdd: wr(op.rd, rs1 + rs2); break;
      case Op::kSub: wr(op.rd, rs1 - rs2); break;
      case Op::kSll: wr(op.rd, rs1 << (rs2 & 31)); break;
      case Op::kSlt:
        wr(op.rd,
           static_cast<std::int32_t>(rs1) < static_cast<std::int32_t>(rs2)
               ? 1 : 0);
        break;
      case Op::kSltu: wr(op.rd, rs1 < rs2 ? 1 : 0); break;
      case Op::kXor: wr(op.rd, rs1 ^ rs2); break;
      case Op::kSrl: wr(op.rd, rs1 >> (rs2 & 31)); break;
      case Op::kSra:
        wr(op.rd, static_cast<std::uint32_t>(static_cast<std::int32_t>(rs1) >>
                                             (rs2 & 31)));
        break;
      case Op::kOr: wr(op.rd, rs1 | rs2); break;
      case Op::kAnd: wr(op.rd, rs1 & rs2); break;
      case Op::kMul: wr(op.rd, rs1 * rs2); break;
      case Op::kMulh: wr(op.rd, mulh_signed(rs1, rs2)); break;
      case Op::kMulhsu: wr(op.rd, mulh_su(rs1, rs2)); break;
      case Op::kMulhu: wr(op.rd, mulh_unsigned(rs1, rs2)); break;
      case Op::kDiv: {
        const auto a = static_cast<std::int32_t>(rs1);
        const auto b = static_cast<std::int32_t>(rs2);
        std::int32_t q = -1;  // RISC-V: x/0 == -1
        if (b != 0) {
          q = (a == INT32_MIN && b == -1) ? a : a / b;  // overflow: q = a
        }
        wr(op.rd, static_cast<std::uint32_t>(q));
        break;
      }
      case Op::kDivu: wr(op.rd, rs2 == 0 ? 0xffffffffu : rs1 / rs2); break;
      case Op::kRem: {
        const auto a = static_cast<std::int32_t>(rs1);
        const auto b = static_cast<std::int32_t>(rs2);
        std::int32_t r = a;  // RISC-V: x%0 == x
        if (b != 0) r = (a == INT32_MIN && b == -1) ? 0 : a % b;
        wr(op.rd, static_cast<std::uint32_t>(r));
        break;
      }
      case Op::kRemu: wr(op.rd, rs2 == 0 ? rs1 : rs1 % rs2); break;
      case Op::kCsrRead: {
        // Deterministic counters: cycle == time == instret == retired
        // guest instructions. High halves read the upper word.
        const std::uint64_t v = total_instret_;
        const bool high = (op.imm & 0x80) != 0;
        wr(op.rd, static_cast<std::uint32_t>(high ? v >> 32 : v));
        loop_pc = kNoLoop;
        break;
      }
      case Op::kEcall:
        loop_pc = kNoLoop;
        if (!do_syscall(core, h)) {
          // Hart finished: price the tail work so completion time covers
          // every retired instruction.
          if (work > 0) return yield_request(Hart::Pending::kYield);
          return std::nullopt;
        }
        if (fatal_) return std::nullopt;
        break;
      case Op::kEbreak:
        fail(errc::kBreakpoint, "ebreak at pc=" + std::to_string(h.pc));
        return std::nullopt;
      case Op::kIllegal:
      default:
        fail(errc::kIllegalInstruction,
             "illegal instruction at pc=" + std::to_string(h.pc) + " word=" +
                 std::to_string(static_cast<std::uint32_t>(op.imm)));
        return std::nullopt;
    }
    h.pc += 4;
  jumped:
    if (!image_.mem.ok()) {
      const bool text = image_.mem.text_fault();
      fail(text ? errc::kTextWrite : errc::kMemFault,
           std::string(text ? "store into executable text" : "memory fault") +
               " at guest addr=" + std::to_string(image_.mem.fault_addr()) +
               " pc=" + std::to_string(h.pc));
      return std::nullopt;
    }
    if (work >= config_.slice_instructions) {
      ++reports_[core].yields;
      return yield_request(Hart::Pending::kYield);
    }
    if (h.pc <= pc) {  // a taken backward jump
      if (h.pc == loop_pc && registers_unchanged()) {
        // The pass since the last backward jump left the registers and
        // memory as it found them, so it repeats exactly: retire as many
        // more passes as fit before the slice yield and the instruction
        // budget.
        const std::uint64_t len = total_instret_ - loop_instret;
        const std::uint64_t skipped =
            len * std::min((config_.slice_instructions - 1 - work) / len,
                           (config_.max_instructions - total_instret_) / len);
        total_instret_ += skipped;
        reports_[core].instructions += skipped;
        work += skipped;
      }
      loop_pc = h.pc;
      loop_instret = total_instret_;
      written = 1;
    }
  }
}

void GuestProgram::on_result(sim::CoreId core, const OpResult& result) {
  (void)result;  // sim line values are timing fiction; guest memory is truth
  if (core >= harts_.size()) return;
  Hart& h = harts_[core];
  const Hart::Pending pending = h.pending;
  h.pending = Hart::Pending::kNone;
  if (pending == Hart::Pending::kNone || pending == Hart::Pending::kYield) {
    return;
  }

  const GuestOp& op = h.pending_op;
  const std::uint32_t addr = h.pending_addr;
  const std::uint32_t rs2 = h.pending_rs2;
  const auto wr = [&h](std::uint8_t rd, std::uint32_t v) {
    if (rd != 0) h.x[rd] = v;
  };

  switch (pending) {
    case Hart::Pending::kLr: {
      wr(op.rd, image_.mem.load32(addr));
      h.reservation = line_of(addr);
      break;
    }
    case Hart::Pending::kSc: {
      // Re-check at retirement: an op by another hart that retired between
      // issue and now may have broken the reservation.
      if (h.reservation == std::optional<sim::LineId>(line_of(addr))) {
        image_.mem.store32(addr, rs2);
        wr(op.rd, 0);
        break_reservations(core, line_of(addr));
      } else {
        wr(op.rd, 1);
        ++reports_[core].sc_failures;
      }
      h.reservation.reset();
      break;
    }
    case Hart::Pending::kCas: {
      const std::uint32_t old = image_.mem.load32(addr);
      if (old == h.pending_expected) {
        image_.mem.store32(addr, rs2);
        break_reservations(core, line_of(addr));
      }
      wr(op.rd, old);
      break;
    }
    case Hart::Pending::kAmo: {
      const std::uint32_t old = image_.mem.load32(addr);
      std::uint32_t next = old;
      switch (op.op) {
        case Op::kAmoSwapW: next = rs2; break;
        case Op::kAmoAddW: next = old + rs2; break;
        case Op::kAmoXorW: next = old ^ rs2; break;
        case Op::kAmoAndW: next = old & rs2; break;
        case Op::kAmoOrW: next = old | rs2; break;
        case Op::kAmoMinW:
          next = static_cast<std::int32_t>(old) < static_cast<std::int32_t>(rs2)
                     ? old : rs2;
          break;
        case Op::kAmoMaxW:
          next = static_cast<std::int32_t>(old) > static_cast<std::int32_t>(rs2)
                     ? old : rs2;
          break;
        case Op::kAmoMinuW: next = old < rs2 ? old : rs2; break;
        case Op::kAmoMaxuW: next = old > rs2 ? old : rs2; break;
        default: break;
      }
      image_.mem.store32(addr, next);
      wr(op.rd, old);
      break_reservations(core, line_of(addr));
      break;
    }
    case Hart::Pending::kFence:
    default:
      break;
  }
  if (!image_.mem.ok()) {
    const bool text = image_.mem.text_fault();
    fail(text ? errc::kTextWrite : errc::kMemFault,
         std::string(text ? "atomic store into executable text"
                          : "atomic memory fault") +
             " at guest addr=" + std::to_string(image_.mem.fault_addr()));
    return;
  }
  ++reports_[core].atomics;
  h.pc += 4;
}

}  // namespace am::guest
