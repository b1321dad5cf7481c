// Package isa defines the instruction set architecture of the simulated
// machine: a 64-bit, Alpha-like, load/store RISC with 32 integer and 32
// floating-point architectural registers.
//
// The ISA exists to reproduce Tullsen & Seng's register value prediction
// (RVP) study, so it includes the paper's small ISA extension: rvp-marked
// load opcodes (RVPLDQ, RVPLDT) that tell the hardware to predict the
// load's result with the value already present in the destination
// register.
//
// Registers follow Alpha conventions where it matters to the study:
// integer register 31 (RZero) and FP register 31 (FZero) read as zero and
// ignore writes, R30 is the stack pointer by convention, and R26 is the
// conventional return-address register used by JSR/RET.
package isa

import "fmt"

// NumIntRegs and NumFPRegs give the architectural register file sizes.
const (
	NumIntRegs = 32
	NumFPRegs  = 32
	// NumRegs is the total architectural register name space. Registers
	// 0..31 are the integer file, 32..63 the floating-point file.
	NumRegs = NumIntRegs + NumFPRegs
)

// Reg names an architectural register in the unified 0..63 name space.
type Reg uint8

// Conventional integer registers.
const (
	RV    Reg = 0  // value return
	RSP   Reg = 30 // stack pointer
	RRA   Reg = 26 // return address
	RZero Reg = 31 // integer zero register
	FZero Reg = 63 // floating-point zero register
)

// FPBase is the unified-name-space index of FP register f0.
const FPBase Reg = 32

// IsFP reports whether r names a floating-point register.
func (r Reg) IsFP() bool { return r >= FPBase }

// IsZero reports whether r is one of the hardwired zero registers.
func (r Reg) IsZero() bool { return r == RZero || r == FZero }

// String renders the register in assembler syntax (r0..r31, f0..f31).
func (r Reg) String() string {
	if r.IsFP() {
		return fmt.Sprintf("f%d", int(r-FPBase))
	}
	return fmt.Sprintf("r%d", int(r))
}

// IntReg returns the unified register name for integer register n.
func IntReg(n int) Reg { return Reg(n) }

// FPReg returns the unified register name for FP register n.
func FPReg(n int) Reg { return Reg(n) + FPBase }

// Op enumerates the instruction opcodes.
type Op uint8

// Opcodes. The set is deliberately Alpha-flavoured: three-operand integer
// and FP arithmetic, displacement-mode loads and stores, compare-and-branch
// conditional branches, and the two RVP-marked load opcodes from the paper.
const (
	NOP Op = iota

	// Integer arithmetic, register and immediate forms.
	ADD  // rd <- ra + rb
	ADDI // rd <- ra + imm
	SUB  // rd <- ra - rb
	SUBI // rd <- ra - imm
	MUL  // rd <- ra * rb
	MULI // rd <- ra * imm
	DIV  // rd <- ra / rb (signed; 0 if rb == 0)
	REM  // rd <- ra % rb (signed; 0 if rb == 0)
	AND  // rd <- ra & rb
	ANDI // rd <- ra & imm
	OR   // rd <- ra | rb
	ORI  // rd <- ra | imm
	XOR  // rd <- ra ^ rb
	XORI // rd <- ra ^ imm
	SLL  // rd <- ra << (rb & 63)
	SLLI // rd <- ra << (imm & 63)
	SRL  // rd <- uint64(ra) >> (rb & 63)
	SRLI // rd <- uint64(ra) >> (imm & 63)
	SRA  // rd <- ra >> (rb & 63)
	SRAI // rd <- ra >> (imm & 63)

	// Comparisons produce 0/1 in rd.
	CMPEQ  // rd <- ra == rb
	CMPEQI // rd <- ra == imm
	CMPLT  // rd <- ra < rb (signed)
	CMPLTI // rd <- ra < imm (signed)
	CMPLE  // rd <- ra <= rb (signed)
	CMPLEI // rd <- ra <= imm (signed)
	CMPULT // rd <- ra < rb (unsigned)

	// LDA materialises ra + imm into rd (load address / load immediate).
	LDA
	// LDAH materialises ra + imm<<16 into rd.
	LDAH

	// Memory. Effective address is ra + imm. LDQ/STQ move 64-bit integer
	// register data; LDT/STT move 64-bit FP register data.
	LDQ
	STQ
	LDT
	STT

	// RVP-marked loads: architecturally identical to LDQ/LDT, but the
	// opcode tells the pipeline to predict the result with the previous
	// value of the destination register (static RVP, Section 4.1).
	RVPLDQ
	RVPLDT

	// Control. Branches compare ra against zero; the target is in Imm
	// (absolute instruction index after assembly).
	BEQ // taken if ra == 0
	BNE // taken if ra != 0
	BLT // taken if ra < 0
	BGE // taken if ra >= 0
	BGT // taken if ra > 0
	BLE // taken if ra <= 0
	BR  // unconditional; also writes return address to rd if rd != RZero
	JSR // jump to subroutine: rd <- return address, pc <- ra
	RET // pc <- ra

	// Floating point (operands are FP registers; values are IEEE-754
	// doubles carried in 64-bit registers).
	FADD
	FSUB
	FMUL
	FDIV
	FCMPEQ // rd <- 1.0 if ra == rb else 0.0
	FCMPLT // rd <- 1.0 if ra < rb else 0.0
	FCMPLE // rd <- 1.0 if ra <= rb else 0.0
	FBEQ   // taken if ra == +0.0
	FBNE   // taken if ra != +0.0
	CVTQT  // FP rd <- float64(int64 ra) (ra is an FP reg holding int bits)
	CVTTQ  // FP rd <- int64(float64 ra) stored as int bits
	ITOF   // FP rd <- raw bits of integer ra
	FTOI   // integer rd <- raw bits of FP ra

	// HALT stops the program.
	HALT

	numOps
)

// NumOps is the number of defined opcodes.
const NumOps = int(numOps)

var opNames = [...]string{
	NOP: "nop",
	ADD: "add", ADDI: "addi", SUB: "sub", SUBI: "subi",
	MUL: "mul", MULI: "muli", DIV: "div", REM: "rem",
	AND: "and", ANDI: "andi", OR: "or", ORI: "ori", XOR: "xor", XORI: "xori",
	SLL: "sll", SLLI: "slli", SRL: "srl", SRLI: "srli", SRA: "sra", SRAI: "srai",
	CMPEQ: "cmpeq", CMPEQI: "cmpeqi", CMPLT: "cmplt", CMPLTI: "cmplti",
	CMPLE: "cmple", CMPLEI: "cmplei", CMPULT: "cmpult",
	LDA: "lda", LDAH: "ldah",
	LDQ: "ldq", STQ: "stq", LDT: "ldt", STT: "stt",
	RVPLDQ: "rvp_ldq", RVPLDT: "rvp_ldt",
	BEQ: "beq", BNE: "bne", BLT: "blt", BGE: "bge", BGT: "bgt", BLE: "ble",
	BR: "br", JSR: "jsr", RET: "ret",
	FADD: "fadd", FSUB: "fsub", FMUL: "fmul", FDIV: "fdiv",
	FCMPEQ: "fcmpeq", FCMPLT: "fcmplt", FCMPLE: "fcmple",
	FBEQ: "fbeq", FBNE: "fbne",
	CVTQT: "cvtqt", CVTTQ: "cvttq", ITOF: "itof", FTOI: "ftoi",
	HALT: "halt",
}

// String returns the assembler mnemonic for the opcode.
func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// OpByName maps assembler mnemonics back to opcodes.
var OpByName = func() map[string]Op {
	m := make(map[string]Op, NumOps)
	for op, name := range opNames {
		if name != "" {
			m[name] = Op(op)
		}
	}
	return m
}()

// Class partitions opcodes by the functional unit they need and by the
// pipeline bookkeeping they require.
type Class uint8

// Functional-unit / scheduling classes.
const (
	ClassNop Class = iota
	ClassIntALU
	ClassIntMul
	ClassIntDiv
	ClassLoad
	ClassStore
	ClassBranch // conditional and unconditional control transfer
	ClassFPAdd
	ClassFPMul
	ClassFPDiv
	ClassHalt
)

// Classify returns the scheduling class of op.
func Classify(op Op) Class {
	switch op {
	case NOP:
		return ClassNop
	case MUL, MULI:
		return ClassIntMul
	case DIV, REM:
		return ClassIntDiv
	case LDQ, LDT, RVPLDQ, RVPLDT:
		return ClassLoad
	case STQ, STT:
		return ClassStore
	case BEQ, BNE, BLT, BGE, BGT, BLE, BR, JSR, RET, FBEQ, FBNE:
		return ClassBranch
	case FADD, FSUB, FCMPEQ, FCMPLT, FCMPLE, CVTQT, CVTTQ, ITOF, FTOI:
		return ClassFPAdd
	case FMUL:
		return ClassFPMul
	case FDIV:
		return ClassFPDiv
	case HALT:
		return ClassHalt
	default:
		return ClassIntALU
	}
}

// Latency returns the execution latency, in cycles, of the class, not
// counting memory-hierarchy time for loads (the cache model adds that).
func (c Class) Latency() int {
	switch c {
	case ClassIntALU, ClassNop, ClassBranch, ClassStore:
		return 1
	case ClassIntMul:
		return 3
	case ClassIntDiv:
		return 20
	case ClassLoad:
		return 1 // address generation; cache adds access time
	case ClassFPAdd:
		return 4
	case ClassFPMul:
		return 4
	case ClassFPDiv:
		return 16
	default:
		return 1
	}
}

// Inst is one decoded instruction. Imm is a displacement for memory
// operations, an immediate operand for ALU-immediate forms, and an
// absolute instruction index for control transfers (the assembler resolves
// labels to indices).
type Inst struct {
	Op  Op
	Rd  Reg   // destination register (RZero/FZero when none)
	Ra  Reg   // first source
	Rb  Reg   // second source (register forms)
	Imm int64 // immediate / displacement / branch target
}

// String disassembles the instruction.
func (in Inst) String() string {
	switch Classify(in.Op) {
	case ClassLoad:
		return fmt.Sprintf("%s %s, %d(%s)", in.Op, in.Rd, in.Imm, in.Ra)
	case ClassStore:
		return fmt.Sprintf("%s %s, %d(%s)", in.Op, in.Rd, in.Imm, in.Ra)
	case ClassBranch:
		switch in.Op {
		case BR:
			return fmt.Sprintf("%s %d", in.Op, in.Imm)
		case JSR:
			return fmt.Sprintf("%s %s, (%s)", in.Op, in.Rd, in.Ra)
		case RET:
			return fmt.Sprintf("%s (%s)", in.Op, in.Ra)
		default:
			return fmt.Sprintf("%s %s, %d", in.Op, in.Ra, in.Imm)
		}
	case ClassNop, ClassHalt:
		return in.Op.String()
	default:
		if HasImm(in.Op) {
			return fmt.Sprintf("%s %s, %s, %d", in.Op, in.Rd, in.Ra, in.Imm)
		}
		return fmt.Sprintf("%s %s, %s, %s", in.Op, in.Rd, in.Ra, in.Rb)
	}
}

// HasImm reports whether op's second operand is the immediate field rather
// than register Rb.
func HasImm(op Op) bool {
	switch op {
	case ADDI, SUBI, MULI, ANDI, ORI, XORI, SLLI, SRLI, SRAI,
		CMPEQI, CMPLTI, CMPLEI, LDA, LDAH,
		LDQ, STQ, LDT, STT, RVPLDQ, RVPLDT,
		BEQ, BNE, BLT, BGE, BGT, BLE, BR, FBEQ, FBNE:
		return true
	}
	return false
}

// IsLoad reports whether op reads memory.
func IsLoad(op Op) bool { return Classify(op) == ClassLoad }

// IsCondBranch reports whether op is a conditional branch.
func IsCondBranch(op Op) bool {
	switch op {
	case BEQ, BNE, BLT, BGE, BGT, BLE, FBEQ, FBNE:
		return true
	}
	return false
}

// WritesReg reports whether the instruction architecturally writes Rd.
// Stores, branches (other than BR/JSR link writes), NOP and HALT do not.
func (in Inst) WritesReg() bool {
	switch Classify(in.Op) {
	case ClassStore, ClassNop, ClassHalt:
		return false
	case ClassBranch:
		// BR and JSR may write a link register.
		if in.Op == BR || in.Op == JSR {
			return !in.Rd.IsZero()
		}
		return false
	}
	return !in.Rd.IsZero()
}

// Dest returns the written register and ok == false when none is written.
func (in Inst) Dest() (Reg, bool) {
	if in.WritesReg() {
		return in.Rd, true
	}
	return RZero, false
}

// Sources appends the architecturally read registers of in to dst and
// returns the extended slice. Zero registers are included (they read as
// zero but create no dependence; callers filter as needed).
func (in Inst) Sources(dst []Reg) []Reg {
	switch in.Op {
	case NOP, HALT:
		return dst
	case LDA, LDAH:
		return append(dst, in.Ra)
	case LDQ, LDT, RVPLDQ, RVPLDT:
		return append(dst, in.Ra)
	case STQ, STT:
		// Rd holds the stored data; Ra the base address.
		return append(dst, in.Rd, in.Ra)
	case BEQ, BNE, BLT, BGE, BGT, BLE, FBEQ, FBNE:
		return append(dst, in.Ra)
	case BR:
		return dst
	case JSR, RET:
		return append(dst, in.Ra)
	case ITOF:
		return append(dst, in.Ra)
	case FTOI:
		return append(dst, in.Ra)
	default:
		if HasImm(in.Op) {
			return append(dst, in.Ra)
		}
		return append(dst, in.Ra, in.Rb)
	}
}
