// A look inside the ISA extension: disassembles the sparse kernels' inner
// loops (SW vs xDecimate), traces the xDecimate csr/address sequence on a
// toy block, and shows the binary encodings.
//
//   ./examples/isa_trace_demo

#include <iomanip>
#include <iostream>

#include "exec/tile_runner.hpp"
#include "isa/builder.hpp"
#include "isa/disasm.hpp"
#include "isa/encoding.hpp"
#include "sim/core.hpp"

using namespace decimate;

int main() {
  // 1) inner loops of the conv kernels, disassembled
  for (auto [kind, m, label] :
       {std::tuple{KernelKind::kConvDense1x2, 0, "dense 1x2 (5 instr)"},
        std::tuple{KernelKind::kConvSparseSw, 8, "sparse SW 1:8 (22 instr)"},
        std::tuple{KernelKind::kConvSparseIsa, 8,
                   "sparse ISA 1:8 with xDecimate (12 instr)"}}) {
    const Program& prog = TileRunner::program_for(kind, m);
    const int begin = prog.marker(kInnerBegin);
    const int end = prog.marker(kInnerEnd);
    std::cout << "=== inner loop of " << label << " ===\n";
    for (int pc = begin; pc < end; ++pc) {
      const uint32_t word = encode(prog.code[static_cast<size_t>(pc)], pc);
      std::cout << "  0x" << std::hex << std::setw(8) << std::setfill('0')
                << word << std::dec << "  "
                << disassemble(prog.code[static_cast<size_t>(pc)], pc) << "\n";
    }
    std::cout << "\n";
  }

  // 2) xDecimate semantics, step by step (Sec. 4.3 equations)
  std::cout << "=== xDecimate trace (M=8, duplicated offsets 1,1,7,7,0,0,5,5)"
            << " ===\n";
  SocMemory mem;
  const uint32_t buf = MemoryMap::kL1Base;
  const int offs[4] = {1, 7, 0, 5};
  for (int blk = 0; blk < 4; ++blk) {
    mem.write8(buf + blk * 8 + offs[blk], static_cast<uint8_t>(0xA0 + blk));
  }
  uint32_t packed = 0;
  for (int f = 0; f < 8; ++f) packed |= uint32_t(offs[f / 2]) << (4 * f);
  KernelBuilder b;
  using namespace reg;
  b.li(a0, static_cast<int32_t>(buf));
  b.li(a2, static_cast<int32_t>(packed));
  b.xdec_clear();
  for (int i = 0; i < 8; ++i) b.xdec(a3, a0, a2, 8);
  b.halt();
  Program p = b.build();
  Core core(0, mem, CoreConfig{});
  core.reset(p.code, 0, MemoryMap::kL1Base + 1024);
  while (!core.halted()) {
    const bool is_xdec = p.code[core.pc()].op == Opcode::kXdec;
    const uint32_t csr_before = core.xdec_csr();
    const uint32_t addr = is_xdec ? core.peek_mem_addr() : 0;
    core.step();
    if (is_xdec) {
      std::cout << "  csr=" << std::setw(2) << csr_before << "  block="
                << (csr_before >> 1) << "  lane=" << ((csr_before >> 1) & 3)
                << "  addr=buf+" << std::setw(2) << (addr - buf)
                << "  rd=0x" << std::hex << std::setw(8) << std::setfill('0')
                << core.reg(a3) << std::dec << std::setfill(' ') << "\n";
    }
  }
  std::cout << "\nfinal rd = 0x" << std::hex << core.reg(a3) << std::dec
            << " (lanes A0..A3 gathered without a single pointer update)\n";
  return 0;
}
