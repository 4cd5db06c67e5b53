// RV32IMA decoder: one raw instruction word -> one GuestOp POD.
//
// Decode-once discipline (the libriscv idiom PR 7 already applied to the
// simulator's op streams): the executable range is decoded into a flat
// std::vector<GuestOp> indexed by (pc - text_base) / 4 at load time, so the
// interpreter hot loop is a switch over pre-cracked operands — no per-step
// bit slicing. The subset is exactly RV32IMA plus the Zacas amocas.w and the
// counter CSR reads; the compressed extension is deliberately absent
// (4-byte pc stepping keeps the flat stream dense), so guests must be built
// with -march=rv32ima.
#pragma once

#include <cstdint>
#include <vector>

#include "guest/memory.hpp"

namespace am::guest {

enum class Op : std::uint8_t {
  kIllegal = 0,
  // RV32I.
  kLui, kAuipc, kJal, kJalr,
  kBeq, kBne, kBlt, kBge, kBltu, kBgeu,
  kLb, kLh, kLw, kLbu, kLhu,
  kSb, kSh, kSw,
  kAddi, kSlti, kSltiu, kXori, kOri, kAndi, kSlli, kSrli, kSrai,
  kAdd, kSub, kSll, kSlt, kSltu, kXor, kSrl, kSra, kOr, kAnd,
  kFence, kEcall, kEbreak,
  // RV32M.
  kMul, kMulh, kMulhsu, kMulhu, kDiv, kDivu, kRem, kRemu,
  // RV32A (+ Zacas amocas.w).
  kLrW, kScW,
  kAmoSwapW, kAmoAddW, kAmoXorW, kAmoAndW, kAmoOrW,
  kAmoMinW, kAmoMaxW, kAmoMinuW, kAmoMaxuW, kAmoCasW,
  // Counter CSR reads (rdcycle/rdtime/rdinstret + high halves).
  kCsrRead,
};

/// True for the ops the simulator models (everything the guest lowers onto
/// the machine: LR/SC, AMOs, CAS, fences). Inline: the interpreter asks it
/// of every instruction.
constexpr bool is_atomic_or_fence(Op op) noexcept {
  return op == Op::kFence || (op >= Op::kLrW && op <= Op::kAmoCasW);
}

struct GuestOp {
  Op op = Op::kIllegal;
  std::uint8_t rd = 0;
  std::uint8_t rs1 = 0;
  std::uint8_t rs2 = 0;
  std::int32_t imm = 0;  ///< immediate; CSR number for kCsrRead
};

/// Decodes one 32-bit instruction word. Unknown encodings (including any
/// 16-bit compressed instruction) decode to Op::kIllegal with the raw word
/// preserved in imm for diagnostics.
GuestOp decode_rv32(std::uint32_t insn);

/// Decodes [text_base, text_end) of @p mem into a flat stream, one GuestOp
/// per 4-byte slot.
std::vector<GuestOp> decode_stream(GuestMemory& mem, std::uint32_t text_base,
                                   std::uint32_t text_end);

}  // namespace am::guest
