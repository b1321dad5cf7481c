package isa

import "fmt"

// Instructions have a fixed 64-bit machine encoding so that programs can be
// stored in simulated memory and fetched through the I-cache model like
// real code. The layout, from the most significant bits down:
//
//	bits 63..56  opcode (8 bits)
//	bits 55..50  rd     (6 bits)
//	bits 49..44  ra     (6 bits)
//	bits 43..38  rb     (6 bits)
//	bits 37..0   imm    (38-bit two's-complement immediate)
//
// 38 bits of immediate comfortably covers data-segment displacements and
// absolute branch targets for the workloads in this repository.
const (
	immBits = 38
	immMask = (uint64(1) << immBits) - 1
	// ImmMax and ImmMin bound the encodable immediate.
	ImmMax = int64(1)<<(immBits-1) - 1
	ImmMin = -(int64(1) << (immBits - 1))
)

// InstBytes is the size of one encoded instruction in simulated memory.
const InstBytes = 8

// Encode packs the instruction into its 64-bit machine form. It returns an
// error if the immediate does not fit or a field is out of range.
func Encode(in Inst) (uint64, error) {
	if int(in.Op) >= NumOps {
		return 0, fmt.Errorf("isa: encode: invalid opcode %d", in.Op)
	}
	if in.Rd >= NumRegs || in.Ra >= NumRegs || in.Rb >= NumRegs {
		return 0, fmt.Errorf("isa: encode: register out of range in %v", in)
	}
	if in.Imm > ImmMax || in.Imm < ImmMin {
		return 0, fmt.Errorf("isa: encode: immediate %d out of range in %v", in.Imm, in)
	}
	w := uint64(in.Op) << 56
	w |= uint64(in.Rd) << 50
	w |= uint64(in.Ra) << 44
	w |= uint64(in.Rb) << 38
	w |= uint64(in.Imm) & immMask
	return w, nil
}

// Decode unpacks a 64-bit machine word into an instruction.
func Decode(w uint64) (Inst, error) {
	op := Op(w >> 56)
	if int(op) >= NumOps {
		return Inst{}, fmt.Errorf("isa: decode: invalid opcode %d in %#x", op, w)
	}
	imm := int64(w & immMask)
	// Sign-extend the 38-bit immediate.
	if imm&(1<<(immBits-1)) != 0 {
		imm -= 1 << immBits
	}
	return Inst{
		Op:  op,
		Rd:  Reg(w >> 50 & 63),
		Ra:  Reg(w >> 44 & 63),
		Rb:  Reg(w >> 38 & 63),
		Imm: imm,
	}, nil
}
