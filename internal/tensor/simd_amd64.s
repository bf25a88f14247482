#include "textflag.h"

// AVX2 kernels under mulAddRows, Axpy and Axpy4. Every lane does the
// scalar loop's rounded multiply (VMULPD/VMULSD) and then its rounded
// add (VADDPD/VADDSD), with the running value as the add's first
// operand, in the scalar loop's order. There is no VFMADD here: a fused
// multiply-add rounds once and would change the bits.

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// ENTRY loads gathered entry AX: its multiplier, broadcast, into Y8 and
// the address of its row of bs at the current column into R12.
#define ENTRY \
	VBROADCASTSD (R11)(AX*1), Y8; \
	MOVQ         8(R11)(AX*1), R12; \
	ADDQ         DX, R12

// MULADD adds Y8 · (the four doubles at off(R12)) into acc, through tmp.
#define MULADD(off, acc, tmp) \
	VMULPD off(R12), Y8, tmp; \
	VADDPD tmp, acc, acc

// NEXT advances to the next gathered entry and loops while one is left.
#define NEXT(loop) \
	ADDQ $16, AX; \
	CMPQ AX, R13; \
	JLT  loop

// func mulAddRowsAVX2(d, as []float64, astride, n int, bs []float64, bstride int)
//
// The frame holds the gathered entries: 64 × (multiplier bits, byte
// offset of its row in bs).
TEXT ·mulAddRowsAVX2(SB), $1024-96
	MOVQ d_base+0(FP), DI
	MOVQ d_len+8(FP), R8
	MOVQ as_base+24(FP), SI
	MOVQ astride+48(FP), R9
	SHLQ $3, R9
	MOVQ n+56(FP), CX
	MOVQ bs_base+64(FP), DX
	MOVQ bstride+88(FP), R10
	SHLQ $3, R10
	LEAQ 0(SP), R11
	XORQ R12, R12 // byte offset of multiplier t's row
	XORQ R13, R13 // gathered bytes

	// Gather the non-zero multipliers. Shifting out the sign bit leaves
	// zero exactly for ±0, so a NaN multiplier is kept and multiplied,
	// as the scalar loop's av == 0 test keeps it.
gather:
	MOVQ (SI), AX
	MOVQ AX, BX
	SHLQ $1, BX
	JEQ  skip
	MOVQ AX, (R11)(R13*1)
	MOVQ R12, 8(R11)(R13*1)
	ADDQ $16, R13
skip:
	ADDQ R9, SI
	ADDQ R10, R12
	DECQ CX
	JNE  gather
	TESTQ R13, R13
	JEQ  done

	// Sweep d 32, 16, 8 and 4 doubles at a time, holding the segment in
	// registers across every entry, then one double at a time.
block32:
	CMPQ    R8, $32
	JLT     block16
	VMOVUPD 0(DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD 64(DI), Y2
	VMOVUPD 96(DI), Y3
	VMOVUPD 128(DI), Y4
	VMOVUPD 160(DI), Y5
	VMOVUPD 192(DI), Y6
	VMOVUPD 224(DI), Y7
	XORQ    AX, AX
loop32:
	ENTRY
	MULADD(0, Y0, Y9)
	MULADD(32, Y1, Y10)
	MULADD(64, Y2, Y11)
	MULADD(96, Y3, Y12)
	MULADD(128, Y4, Y13)
	MULADD(160, Y5, Y14)
	MULADD(192, Y6, Y15)
	MULADD(224, Y7, Y9)
	NEXT(loop32)
	VMOVUPD Y0, 0(DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	VMOVUPD Y4, 128(DI)
	VMOVUPD Y5, 160(DI)
	VMOVUPD Y6, 192(DI)
	VMOVUPD Y7, 224(DI)
	ADDQ    $256, DI
	ADDQ    $256, DX
	SUBQ    $32, R8
	JMP     block32

block16:
	CMPQ    R8, $16
	JLT     block8
	VMOVUPD 0(DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD 64(DI), Y2
	VMOVUPD 96(DI), Y3
	XORQ    AX, AX
loop16:
	ENTRY
	MULADD(0, Y0, Y9)
	MULADD(32, Y1, Y10)
	MULADD(64, Y2, Y11)
	MULADD(96, Y3, Y12)
	NEXT(loop16)
	VMOVUPD Y0, 0(DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	ADDQ    $128, DI
	ADDQ    $128, DX
	SUBQ    $16, R8

block8:
	CMPQ    R8, $8
	JLT     block4
	VMOVUPD 0(DI), Y0
	VMOVUPD 32(DI), Y1
	XORQ    AX, AX
loop8:
	ENTRY
	MULADD(0, Y0, Y9)
	MULADD(32, Y1, Y10)
	NEXT(loop8)
	VMOVUPD Y0, 0(DI)
	VMOVUPD Y1, 32(DI)
	ADDQ    $64, DI
	ADDQ    $64, DX
	SUBQ    $8, R8

block4:
	CMPQ    R8, $4
	JLT     tail
	VMOVUPD 0(DI), Y0
	XORQ    AX, AX
loop4:
	ENTRY
	MULADD(0, Y0, Y9)
	NEXT(loop4)
	VMOVUPD Y0, 0(DI)
	ADDQ    $32, DI
	ADDQ    $32, DX
	SUBQ    $4, R8

tail:
	TESTQ  R8, R8
	JEQ    done
	VMOVSD (DI), X0
	XORQ   AX, AX
loop1:
	VMOVSD (R11)(AX*1), X8
	MOVQ   8(R11)(AX*1), R12
	ADDQ   DX, R12
	VMULSD (R12), X8, X9
	VADDSD X9, X0, X0
	NEXT(loop1)
	VMOVSD X0, (DI)
	ADDQ   $8, DI
	ADDQ   $8, DX
	DECQ   R8
	JMP    tail

done:
	VZEROUPPER
	RET

// func axpyAVX2(alpha float64, x, y []float64)
TEXT ·axpyAVX2(SB), NOSPLIT, $0-56
	VBROADCASTSD alpha+0(FP), Y0
	MOVQ         x_base+8(FP), SI
	MOVQ         x_len+16(FP), CX
	MOVQ         y_base+32(FP), DI

axpy16:
	CMPQ    CX, $16
	JLT     axpy4
	VMOVUPD 0(DI), Y1
	VMOVUPD 32(DI), Y2
	VMOVUPD 64(DI), Y3
	VMOVUPD 96(DI), Y4
	VMULPD  0(SI), Y0, Y5
	VMULPD  32(SI), Y0, Y6
	VMULPD  64(SI), Y0, Y7
	VMULPD  96(SI), Y0, Y8
	VADDPD  Y5, Y1, Y1
	VADDPD  Y6, Y2, Y2
	VADDPD  Y7, Y3, Y3
	VADDPD  Y8, Y4, Y4
	VMOVUPD Y1, 0(DI)
	VMOVUPD Y2, 32(DI)
	VMOVUPD Y3, 64(DI)
	VMOVUPD Y4, 96(DI)
	ADDQ    $128, SI
	ADDQ    $128, DI
	SUBQ    $16, CX
	JMP     axpy16

axpy4:
	CMPQ    CX, $4
	JLT     axpy1
	VMOVUPD (DI), Y1
	VMULPD  (SI), Y0, Y5
	VADDPD  Y5, Y1, Y1
	VMOVUPD Y1, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	SUBQ    $4, CX
	JMP     axpy4

axpy1:
	TESTQ  CX, CX
	JEQ    axpyDone
	VMOVSD (DI), X1
	VMULSD (SI), X0, X5
	VADDSD X5, X1, X1
	VMOVSD X1, (DI)
	ADDQ   $8, SI
	ADDQ   $8, DI
	DECQ   CX
	JMP    axpy1

axpyDone:
	VZEROUPPER
	RET

// STEP4 applies source x (row base xs, multiplier ax) to the running
// values v (4 doubles at byte offset off + AX), through tmp.
#define STEP4(off, xs, ax, v, tmp) \
	VMULPD off(xs)(AX*1), ax, tmp; \
	VADDPD tmp, v, v

// func axpy4AVX2(a0, a1, a2, a3 float64, x0, x1, x2, x3, y []float64)
TEXT ·axpy4AVX2(SB), NOSPLIT, $0-152
	VBROADCASTSD a0+0(FP), Y0
	VBROADCASTSD a1+8(FP), Y1
	VBROADCASTSD a2+16(FP), Y2
	VBROADCASTSD a3+24(FP), Y3
	MOVQ         x0_base+32(FP), R8
	MOVQ         x1_base+56(FP), R9
	MOVQ         x2_base+80(FP), R10
	MOVQ         x3_base+104(FP), R11
	MOVQ         y_base+128(FP), DI
	MOVQ         y_len+136(FP), CX
	XORQ         AX, AX

axpy4x8:
	CMPQ    CX, $8
	JLT     axpy4x4
	VMOVUPD (DI)(AX*1), Y4
	VMOVUPD 32(DI)(AX*1), Y5
	STEP4(0, R8, Y0, Y4, Y6)
	STEP4(32, R8, Y0, Y5, Y7)
	STEP4(0, R9, Y1, Y4, Y8)
	STEP4(32, R9, Y1, Y5, Y9)
	STEP4(0, R10, Y2, Y4, Y10)
	STEP4(32, R10, Y2, Y5, Y11)
	STEP4(0, R11, Y3, Y4, Y12)
	STEP4(32, R11, Y3, Y5, Y13)
	VMOVUPD Y4, (DI)(AX*1)
	VMOVUPD Y5, 32(DI)(AX*1)
	ADDQ    $64, AX
	SUBQ    $8, CX
	JMP     axpy4x8

axpy4x4:
	CMPQ    CX, $4
	JLT     axpy4x1
	VMOVUPD (DI)(AX*1), Y4
	STEP4(0, R8, Y0, Y4, Y6)
	STEP4(0, R9, Y1, Y4, Y8)
	STEP4(0, R10, Y2, Y4, Y10)
	STEP4(0, R11, Y3, Y4, Y12)
	VMOVUPD Y4, (DI)(AX*1)
	ADDQ    $32, AX
	SUBQ    $4, CX

axpy4x1:
	TESTQ  CX, CX
	JEQ    axpy4Done
	VMOVSD (DI)(AX*1), X4
	VMULSD (R8)(AX*1), X0, X6
	VADDSD X6, X4, X4
	VMULSD (R9)(AX*1), X1, X8
	VADDSD X8, X4, X4
	VMULSD (R10)(AX*1), X2, X10
	VADDSD X10, X4, X4
	VMULSD (R11)(AX*1), X3, X12
	VADDSD X12, X4, X4
	VMOVSD X4, (DI)(AX*1)
	ADDQ   $8, AX
	DECQ   CX
	JMP    axpy4x1

axpy4Done:
	VZEROUPPER
	RET
