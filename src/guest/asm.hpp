// Minimal RV32IMA instruction encoders for the in-repo corpus builder.
//
// The corpus (tests/guest/corpus/*.hex) is committed as assembled bytes so CI
// needs no riscv cross-toolchain; these encoders are how those bytes are
// produced, and the regen-check test re-assembles them on every run, so the
// encodings are verified against the decoder round-trip continuously.
#pragma once

#include <cstdint>

namespace am::guest::rv {

// Register numbers (RISC-V ABI names).
inline constexpr std::uint32_t x0 = 0, ra = 1, sp = 2;
inline constexpr std::uint32_t t0 = 5, t1 = 6, t2 = 7;
inline constexpr std::uint32_t s0 = 8, s1 = 9;
inline constexpr std::uint32_t a0 = 10, a1 = 11, a2 = 12, a7 = 17;
inline constexpr std::uint32_t s2 = 18, s3 = 19;
inline constexpr std::uint32_t t3 = 28, t4 = 29, t5 = 30, t6 = 31;

constexpr std::uint32_t enc_r(std::uint32_t f7, std::uint32_t rs2,
                              std::uint32_t rs1, std::uint32_t f3,
                              std::uint32_t rd, std::uint32_t opc) {
  return (f7 << 25) | (rs2 << 20) | (rs1 << 15) | (f3 << 12) | (rd << 7) | opc;
}

constexpr std::uint32_t enc_i(std::int32_t imm, std::uint32_t rs1,
                              std::uint32_t f3, std::uint32_t rd,
                              std::uint32_t opc) {
  return (static_cast<std::uint32_t>(imm) & 0xfffu) << 20 | (rs1 << 15) |
         (f3 << 12) | (rd << 7) | opc;
}

constexpr std::uint32_t enc_s(std::int32_t imm, std::uint32_t rs2,
                              std::uint32_t rs1, std::uint32_t f3,
                              std::uint32_t opc) {
  const auto u = static_cast<std::uint32_t>(imm);
  return ((u & 0xfe0u) << 20) | (rs2 << 20) | (rs1 << 15) | (f3 << 12) |
         ((u & 0x1fu) << 7) | opc;
}

constexpr std::uint32_t enc_b(std::int32_t imm, std::uint32_t rs1,
                              std::uint32_t rs2, std::uint32_t f3) {
  const auto u = static_cast<std::uint32_t>(imm);
  return ((u & 0x1000u) << 19) | ((u & 0x7e0u) << 20) | (rs2 << 20) |
         (rs1 << 15) | (f3 << 12) | ((u & 0x1eu) << 7) | ((u & 0x800u) >> 4) |
         0x63u;
}

constexpr std::uint32_t enc_u(std::uint32_t imm_hi20, std::uint32_t rd,
                              std::uint32_t opc) {
  return (imm_hi20 & 0xfffff000u) | (rd << 7) | opc;
}

constexpr std::uint32_t enc_j(std::int32_t imm, std::uint32_t rd) {
  const auto u = static_cast<std::uint32_t>(imm);
  return ((u & 0x100000u) << 11) | ((u & 0x7feu) << 20) |
         ((u & 0x800u) << 9) | (u & 0xff000u) | (rd << 7) | 0x6fu;
}

// --- RV32I ----------------------------------------------------------------
constexpr std::uint32_t lui(std::uint32_t rd, std::uint32_t imm_hi) {
  return enc_u(imm_hi, rd, 0x37);
}
constexpr std::uint32_t auipc(std::uint32_t rd, std::uint32_t imm_hi) {
  return enc_u(imm_hi, rd, 0x17);
}
constexpr std::uint32_t jal(std::uint32_t rd, std::int32_t off) {
  return enc_j(off, rd);
}
constexpr std::uint32_t jalr(std::uint32_t rd, std::uint32_t rs1,
                             std::int32_t imm) {
  return enc_i(imm, rs1, 0, rd, 0x67);
}
constexpr std::uint32_t beq(std::uint32_t rs1, std::uint32_t rs2,
                            std::int32_t off) {
  return enc_b(off, rs1, rs2, 0);
}
constexpr std::uint32_t bne(std::uint32_t rs1, std::uint32_t rs2,
                            std::int32_t off) {
  return enc_b(off, rs1, rs2, 1);
}
constexpr std::uint32_t blt(std::uint32_t rs1, std::uint32_t rs2,
                            std::int32_t off) {
  return enc_b(off, rs1, rs2, 4);
}
constexpr std::uint32_t bge(std::uint32_t rs1, std::uint32_t rs2,
                            std::int32_t off) {
  return enc_b(off, rs1, rs2, 5);
}
constexpr std::uint32_t lw(std::uint32_t rd, std::int32_t imm,
                           std::uint32_t rs1) {
  return enc_i(imm, rs1, 2, rd, 0x03);
}
constexpr std::uint32_t lbu(std::uint32_t rd, std::int32_t imm,
                            std::uint32_t rs1) {
  return enc_i(imm, rs1, 4, rd, 0x03);
}
constexpr std::uint32_t sw(std::uint32_t rs2, std::int32_t imm,
                           std::uint32_t rs1) {
  return enc_s(imm, rs2, rs1, 2, 0x23);
}
constexpr std::uint32_t sb(std::uint32_t rs2, std::int32_t imm,
                           std::uint32_t rs1) {
  return enc_s(imm, rs2, rs1, 0, 0x23);
}
constexpr std::uint32_t addi(std::uint32_t rd, std::uint32_t rs1,
                             std::int32_t imm) {
  return enc_i(imm, rs1, 0, rd, 0x13);
}
constexpr std::uint32_t andi(std::uint32_t rd, std::uint32_t rs1,
                             std::int32_t imm) {
  return enc_i(imm, rs1, 7, rd, 0x13);
}
constexpr std::uint32_t slli(std::uint32_t rd, std::uint32_t rs1,
                             std::uint32_t shamt) {
  return enc_r(0, shamt, rs1, 1, rd, 0x13);
}
constexpr std::uint32_t srli(std::uint32_t rd, std::uint32_t rs1,
                             std::uint32_t shamt) {
  return enc_r(0, shamt, rs1, 5, rd, 0x13);
}
constexpr std::uint32_t add(std::uint32_t rd, std::uint32_t rs1,
                            std::uint32_t rs2) {
  return enc_r(0, rs2, rs1, 0, rd, 0x33);
}
constexpr std::uint32_t sub(std::uint32_t rd, std::uint32_t rs1,
                            std::uint32_t rs2) {
  return enc_r(0x20, rs2, rs1, 0, rd, 0x33);
}
constexpr std::uint32_t mul(std::uint32_t rd, std::uint32_t rs1,
                            std::uint32_t rs2) {
  return enc_r(1, rs2, rs1, 0, rd, 0x33);
}
constexpr std::uint32_t fence() { return enc_i(0, 0, 0, 0, 0x0f); }
/// csrrs rd, instret, x0.
constexpr std::uint32_t rdinstret(std::uint32_t rd) {
  return enc_i(0xC02, 0, 2, rd, 0x73);
}
constexpr std::uint32_t ecall() { return 0x00000073u; }
constexpr std::uint32_t ebreak() { return 0x00100073u; }

// --- RV32A (aq/rl bits left clear; the machine prices every atomic the
// same regardless) -----------------------------------------------------------
constexpr std::uint32_t amo(std::uint32_t funct5, std::uint32_t rd,
                            std::uint32_t rs2, std::uint32_t rs1) {
  return enc_r(funct5 << 2, rs2, rs1, 2, rd, 0x2f);
}
constexpr std::uint32_t lr_w(std::uint32_t rd, std::uint32_t rs1) {
  return amo(0x02, rd, 0, rs1);
}
constexpr std::uint32_t sc_w(std::uint32_t rd, std::uint32_t rs2,
                             std::uint32_t rs1) {
  return amo(0x03, rd, rs2, rs1);
}
constexpr std::uint32_t amoswap_w(std::uint32_t rd, std::uint32_t rs2,
                                  std::uint32_t rs1) {
  return amo(0x01, rd, rs2, rs1);
}
constexpr std::uint32_t amoadd_w(std::uint32_t rd, std::uint32_t rs2,
                                 std::uint32_t rs1) {
  return amo(0x00, rd, rs2, rs1);
}
constexpr std::uint32_t amoor_w(std::uint32_t rd, std::uint32_t rs2,
                                std::uint32_t rs1) {
  return amo(0x08, rd, rs2, rs1);
}
constexpr std::uint32_t amocas_w(std::uint32_t rd, std::uint32_t rs2,
                                 std::uint32_t rs1) {
  return amo(0x05, rd, rs2, rs1);
}

}  // namespace am::guest::rv
