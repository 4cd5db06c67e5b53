#include "guest/decode.hpp"

namespace am::guest {

namespace {

std::int32_t imm_i(std::uint32_t insn) {
  return static_cast<std::int32_t>(insn) >> 20;
}

std::int32_t imm_s(std::uint32_t insn) {
  return ((static_cast<std::int32_t>(insn) >> 20) & ~0x1f) |
         static_cast<std::int32_t>((insn >> 7) & 0x1f);
}

std::int32_t imm_b(std::uint32_t insn) {
  std::uint32_t v = ((insn >> 19) & 0x1000) | ((insn << 4) & 0x800) |
                    ((insn >> 20) & 0x7e0) | ((insn >> 7) & 0x1e);
  // Sign-extend from bit 12.
  return static_cast<std::int32_t>(v << 19) >> 19;
}

std::int32_t imm_u(std::uint32_t insn) {
  return static_cast<std::int32_t>(insn & 0xfffff000u);
}

std::int32_t imm_j(std::uint32_t insn) {
  std::uint32_t v = ((insn >> 11) & 0x100000) | (insn & 0xff000) |
                    ((insn >> 9) & 0x800) | ((insn >> 20) & 0x7fe);
  return static_cast<std::int32_t>(v << 11) >> 11;
}

bool counter_csr(std::int32_t csr) {
  switch (csr) {
    case 0xC00:  // cycle
    case 0xC01:  // time
    case 0xC02:  // instret
    case 0xC80:  // cycleh
    case 0xC81:  // timeh
    case 0xC82:  // instreth
      return true;
    default:
      return false;
  }
}

}  // namespace

GuestOp decode_rv32(std::uint32_t insn) {
  GuestOp d;
  // Preserve the raw word for illegal-instruction diagnostics.
  d.imm = static_cast<std::int32_t>(insn);
  if ((insn & 0x3) != 0x3) return d;  // no compressed extension

  const std::uint32_t opcode = insn & 0x7f;
  const auto rd = static_cast<std::uint8_t>((insn >> 7) & 0x1f);
  const auto rs1 = static_cast<std::uint8_t>((insn >> 15) & 0x1f);
  const auto rs2 = static_cast<std::uint8_t>((insn >> 20) & 0x1f);
  const std::uint32_t f3 = (insn >> 12) & 0x7;
  const std::uint32_t f7 = insn >> 25;

  const auto set = [&](Op op, std::int32_t imm) {
    d.op = op;
    d.rd = rd;
    d.rs1 = rs1;
    d.rs2 = rs2;
    d.imm = imm;
  };

  switch (opcode) {
    case 0x37: set(Op::kLui, imm_u(insn)); break;
    case 0x17: set(Op::kAuipc, imm_u(insn)); break;
    case 0x6f: set(Op::kJal, imm_j(insn)); break;
    case 0x67:
      if (f3 == 0) set(Op::kJalr, imm_i(insn));
      break;
    case 0x63: {
      static constexpr Op kBranch[8] = {Op::kBeq,  Op::kBne,  Op::kIllegal,
                                        Op::kIllegal, Op::kBlt, Op::kBge,
                                        Op::kBltu, Op::kBgeu};
      if (kBranch[f3] != Op::kIllegal) set(kBranch[f3], imm_b(insn));
      break;
    }
    case 0x03: {
      static constexpr Op kLoad[8] = {Op::kLb,  Op::kLh,  Op::kLw,
                                      Op::kIllegal, Op::kLbu, Op::kLhu,
                                      Op::kIllegal, Op::kIllegal};
      if (kLoad[f3] != Op::kIllegal) set(kLoad[f3], imm_i(insn));
      break;
    }
    case 0x23: {
      static constexpr Op kStore[8] = {Op::kSb, Op::kSh, Op::kSw,
                                       Op::kIllegal, Op::kIllegal,
                                       Op::kIllegal, Op::kIllegal,
                                       Op::kIllegal};
      if (kStore[f3] != Op::kIllegal) set(kStore[f3], imm_s(insn));
      break;
    }
    case 0x13:
      switch (f3) {
        case 0: set(Op::kAddi, imm_i(insn)); break;
        case 2: set(Op::kSlti, imm_i(insn)); break;
        case 3: set(Op::kSltiu, imm_i(insn)); break;
        case 4: set(Op::kXori, imm_i(insn)); break;
        case 6: set(Op::kOri, imm_i(insn)); break;
        case 7: set(Op::kAndi, imm_i(insn)); break;
        case 1:
          if (f7 == 0) set(Op::kSlli, rs2);
          break;
        case 5:
          if (f7 == 0) set(Op::kSrli, rs2);
          else if (f7 == 0x20) set(Op::kSrai, rs2);
          break;
        default: break;
      }
      break;
    case 0x33:
      if (f7 == 0) {
        static constexpr Op kOp[8] = {Op::kAdd, Op::kSll, Op::kSlt,
                                      Op::kSltu, Op::kXor, Op::kSrl,
                                      Op::kOr, Op::kAnd};
        set(kOp[f3], 0);
      } else if (f7 == 0x20) {
        if (f3 == 0) set(Op::kSub, 0);
        else if (f3 == 5) set(Op::kSra, 0);
      } else if (f7 == 1) {
        static constexpr Op kM[8] = {Op::kMul, Op::kMulh, Op::kMulhsu,
                                     Op::kMulhu, Op::kDiv, Op::kDivu,
                                     Op::kRem, Op::kRemu};
        set(kM[f3], 0);
      }
      break;
    case 0x0f:
      // FENCE and FENCE.I both lower to the machine's priced FENCE.
      if (f3 == 0 || f3 == 1) set(Op::kFence, 0);
      break;
    case 0x73:
      if (f3 == 0 && rd == 0 && rs1 == 0) {
        if ((insn >> 20) == 0) set(Op::kEcall, 0);
        else if ((insn >> 20) == 1) set(Op::kEbreak, 0);
      } else if (f3 == 2 && rs1 == 0 && counter_csr(imm_i(insn) & 0xfff)) {
        // csrrs rd, <counter>, x0 — the rdcycle/rdtime/rdinstret idiom.
        set(Op::kCsrRead, imm_i(insn) & 0xfff);
      }
      break;
    case 0x2f:
      if (f3 == 2) {
        switch (f7 >> 2) {  // funct5
          case 0x02:
            if (rs2 == 0) set(Op::kLrW, 0);
            break;
          case 0x03: set(Op::kScW, 0); break;
          case 0x01: set(Op::kAmoSwapW, 0); break;
          case 0x00: set(Op::kAmoAddW, 0); break;
          case 0x04: set(Op::kAmoXorW, 0); break;
          case 0x0c: set(Op::kAmoAndW, 0); break;
          case 0x08: set(Op::kAmoOrW, 0); break;
          case 0x10: set(Op::kAmoMinW, 0); break;
          case 0x14: set(Op::kAmoMaxW, 0); break;
          case 0x18: set(Op::kAmoMinuW, 0); break;
          case 0x1c: set(Op::kAmoMaxuW, 0); break;
          case 0x05: set(Op::kAmoCasW, 0); break;  // Zacas
          default: break;
        }
      }
      break;
    default:
      break;
  }
  return d;
}

std::vector<GuestOp> decode_stream(GuestMemory& mem, std::uint32_t text_base,
                                   std::uint32_t text_end) {
  std::vector<GuestOp> stream;
  stream.reserve((text_end - text_base) / 4);
  for (std::uint32_t pc = text_base; pc + 4 <= text_end; pc += 4) {
    stream.push_back(decode_rv32(mem.load32(pc)));
  }
  return stream;
}

}  // namespace am::guest
