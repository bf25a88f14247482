#include "textflag.h"

// AVX2 kernels under mulAddRows, matMulTransBRange, Axpy and Axpy4.
// Every lane does the scalar loop's rounded multiply (VMULPD/VMULSD) and
// then its rounded add (VADDPD/VADDSD), with the running value as the
// add's first operand, in the scalar loop's order. There is no VFMADD
// here: a fused multiply-add rounds once and would change the bits.

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

// TRANSPOSE4 turns the four accumulators c0…c3, each holding one output
// column's four rows, into the four rows' segments of those columns, in
// place, through t0…t3.
#define TRANSPOSE4(c0, c1, c2, c3, t0, t1, t2, t3) \
	VUNPCKLPD  c1, c0, t0; \
	VUNPCKHPD  c1, c0, t1; \
	VUNPCKLPD  c3, c2, t2; \
	VUNPCKHPD  c3, c2, t3; \
	VPERM2F128 $0x20, t2, t0, c0; \
	VPERM2F128 $0x20, t3, t1, c1; \
	VPERM2F128 $0x31, t2, t0, c2; \
	VPERM2F128 $0x31, t3, t1, c3

// ADDROW adds the four sums in row to the destination at off(AX), through
// tmp, and moves AX to the next row. It leaves the flags alone.
#define ADDROW(off, row, tmp) \
	VMOVUPD off(AX), tmp; \
	VADDPD  row, tmp, tmp; \
	VMOVUPD tmp, off(AX); \
	LEAQ    (AX)(R8*1), AX

// ADDROWS adds the first BX of the rows r0…r3 to the destination rows
// from DI at byte offset off, then goes on at done.
#define ADDROWS(off, r0, r1, r2, r3, tmp, done) \
	MOVQ DI, AX; \
	ADDROW(off, r0, tmp); \
	CMPQ BX, $2; \
	JLT  done; \
	ADDROW(off, r1, tmp); \
	JEQ  done; \
	ADDROW(off, r2, tmp); \
	CMPQ BX, $4; \
	JLT  done; \
	ADDROW(off, r3, tmp)

// TERM adds the panel entry Y8 times the broadcast b element at addr into
// acc, through tmp.
#define TERM(addr, acc, tmp) \
	VBROADCASTSD addr, tmp; \
	VMULPD       Y8, tmp, tmp; \
	VADDPD       tmp, acc, acc

// ADDCELL adds the sum at off(R14) to the destination double at (AX) and
// moves AX to the next row. It leaves the flags alone.
#define ADDCELL(off) \
	VMOVSD (AX), X1; \
	VADDSD off(R14), X1, X1; \
	VMOVSD X1, (AX); \
	LEAQ   (AX)(R8*1), AX

// func abTAVX2(d []float64, dstride int, a []float64, rows int, b []float64, ncols, k int)
//
// The inner dimension is taken in chunks of up to 64. For each chunk the
// kernel copies the rows of a into a panel in its frame: entry kk holds
// the rows' elements at inner index k0+kk in lanes 0…rows−1 and zeros in
// the rest. Every column of b (one row of b, one column of the product)
// then sums the panel entries times its broadcast elements in ascending
// k, 8, 4 or 1 columns at a time, one YMM accumulator per column. Between
// chunks a column's four partial sums wait in the frame (an exact round
// trip); after the last chunk they are transposed into rows and added to
// d, one add per cell, in the rows that exist.
//
// Frame: the panel (64 entries × 4 doubles) at 0(SP), the partial sums
// (64 columns × 4 rows) at 2048(SP), the chunk's start k0 as a byte
// offset into a row at 4096(SP) and its length in bytes at 4104(SP).
//
// Registers: BX rows, R8 d's row stride, R9 a row of a or b, R10 three
// rows of b, R11 the panel's end, R13 columns left, R14 the current
// column's partial sums, DX its row of b at k0, DI its first row of d.
TEXT ·abTAVX2(SB), $4112-104
	MOVQ dstride+24(FP), R8
	SHLQ $3, R8
	MOVQ rows+56(FP), BX
	MOVQ k+96(FP), R9
	SHLQ $3, R9
	LEAQ (R9)(R9*2), R10
	MOVQ $0, 4096(SP)

chunk:
	MOVQ    R9, CX
	SUBQ    4096(SP), CX
	MOVQ    $512, AX
	CMPQ    CX, AX
	CMOVQGT AX, CX
	MOVQ    CX, 4104(SP)
	LEAQ    0(SP), DI
	LEAQ    (DI)(CX*4), R11

	// Build the panel: zero it if a lane is unused, then copy row r's
	// chunk into lane r.
	CMPQ   BX, $4
	JEQ    fill
	VXORPD Y0, Y0, Y0

zero:
	VMOVUPD Y0, (DI)
	ADDQ    $32, DI
	CMPQ    DI, R11
	JLT     zero

fill:
	MOVQ a_base+32(FP), SI
	ADDQ 4096(SP), SI
	LEAQ 0(SP), R12
	MOVQ BX, R13

fillRow:
	MOVQ SI, DX
	MOVQ R12, DI
	MOVQ CX, R14

fillK:
	MOVQ (DX), AX
	MOVQ AX, (DI)
	ADDQ $8, DX
	ADDQ $32, DI
	SUBQ $8, R14
	JNE  fillK
	ADDQ R9, SI
	ADDQ $8, R12
	DECQ R13
	JNE  fillRow

	MOVQ b_base+64(FP), DX
	ADDQ 4096(SP), DX
	MOVQ d_base+0(FP), DI
	LEAQ 2048(SP), R14
	MOVQ ncols+88(FP), R13

tile8:
	CMPQ   R13, $8
	JLT    tile4
	CMPQ   4096(SP), $0
	JNE    resume8
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	JMP    sweep8

resume8:
	VMOVUPD 0(R14), Y0
	VMOVUPD 32(R14), Y1
	VMOVUPD 64(R14), Y2
	VMOVUPD 96(R14), Y3
	VMOVUPD 128(R14), Y4
	VMOVUPD 160(R14), Y5
	VMOVUPD 192(R14), Y6
	VMOVUPD 224(R14), Y7

sweep8:
	MOVQ DX, R12
	LEAQ (DX)(R9*4), SI
	LEAQ 0(SP), AX

loop8:
	VMOVUPD (AX), Y8
	TERM((R12), Y0, Y9)
	TERM((R12)(R9*1), Y1, Y10)
	TERM((R12)(R9*2), Y2, Y11)
	TERM((R12)(R10*1), Y3, Y12)
	TERM((SI), Y4, Y13)
	TERM((SI)(R9*1), Y5, Y14)
	TERM((SI)(R9*2), Y6, Y15)
	TERM((SI)(R10*1), Y7, Y9)
	ADDQ $8, R12
	ADDQ $8, SI
	ADDQ $32, AX
	CMPQ AX, R11
	JLT  loop8

	MOVQ    4096(SP), AX
	ADDQ    4104(SP), AX
	CMPQ    AX, R9
	JEQ     flush8
	VMOVUPD Y0, 0(R14)
	VMOVUPD Y1, 32(R14)
	VMOVUPD Y2, 64(R14)
	VMOVUPD Y3, 96(R14)
	VMOVUPD Y4, 128(R14)
	VMOVUPD Y5, 160(R14)
	VMOVUPD Y6, 192(R14)
	VMOVUPD Y7, 224(R14)
	JMP     next8

flush8:
	TRANSPOSE4(Y0, Y1, Y2, Y3, Y8, Y9, Y10, Y11)
	TRANSPOSE4(Y4, Y5, Y6, Y7, Y8, Y9, Y10, Y11)
	ADDROWS(0, Y0, Y1, Y2, Y3, Y12, flushed8)

flushed8:
	ADDROWS(32, Y4, Y5, Y6, Y7, Y12, next8)

next8:
	ADDQ $256, R14
	ADDQ $64, DI
	LEAQ (DX)(R9*8), DX
	SUBQ $8, R13
	JMP  tile8

tile4:
	CMPQ   R13, $4
	JLT    tile1
	CMPQ   4096(SP), $0
	JNE    resume4
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	JMP    sweep4

resume4:
	VMOVUPD 0(R14), Y0
	VMOVUPD 32(R14), Y1
	VMOVUPD 64(R14), Y2
	VMOVUPD 96(R14), Y3

sweep4:
	MOVQ DX, R12
	LEAQ 0(SP), AX

loop4:
	VMOVUPD (AX), Y8
	TERM((R12), Y0, Y9)
	TERM((R12)(R9*1), Y1, Y10)
	TERM((R12)(R9*2), Y2, Y11)
	TERM((R12)(R10*1), Y3, Y12)
	ADDQ $8, R12
	ADDQ $32, AX
	CMPQ AX, R11
	JLT  loop4

	MOVQ    4096(SP), AX
	ADDQ    4104(SP), AX
	CMPQ    AX, R9
	JEQ     flush4
	VMOVUPD Y0, 0(R14)
	VMOVUPD Y1, 32(R14)
	VMOVUPD Y2, 64(R14)
	VMOVUPD Y3, 96(R14)
	JMP     next4

flush4:
	TRANSPOSE4(Y0, Y1, Y2, Y3, Y8, Y9, Y10, Y11)
	ADDROWS(0, Y0, Y1, Y2, Y3, Y12, next4)

next4:
	ADDQ $128, R14
	ADDQ $32, DI
	LEAQ (DX)(R9*4), DX
	SUBQ $4, R13

tile1:
	TESTQ  R13, R13
	JEQ    chunkDone
	CMPQ   4096(SP), $0
	JNE    resume1
	VXORPD Y0, Y0, Y0
	JMP    sweep1

resume1:
	VMOVUPD 0(R14), Y0

sweep1:
	MOVQ DX, R12
	LEAQ 0(SP), AX

loop1:
	VMOVUPD (AX), Y8
	TERM((R12), Y0, Y9)
	ADDQ $8, R12
	ADDQ $32, AX
	CMPQ AX, R11
	JLT  loop1

	// The column's sums go through the frame either way: as partial
	// sums, or to be added to d one row at a time.
	VMOVUPD Y0, 0(R14)
	MOVQ    4096(SP), AX
	ADDQ    4104(SP), AX
	CMPQ    AX, R9
	JNE     next1
	MOVQ    DI, AX
	ADDCELL(0)
	CMPQ    BX, $2
	JLT     next1
	ADDCELL(8)
	JEQ     next1
	ADDCELL(16)
	CMPQ    BX, $4
	JLT     next1
	ADDCELL(24)

next1:
	ADDQ $32, R14
	ADDQ $8, DI
	ADDQ R9, DX
	DECQ R13
	JMP  tile1

chunkDone:
	MOVQ 4096(SP), AX
	ADDQ 4104(SP), AX
	MOVQ AX, 4096(SP)
	CMPQ AX, R9
	JLT  chunk
	VZEROUPPER
	RET

// COLUMNS4 loads four consecutive elements of the four rows of b from g
// into Y4…Y7 and transposes them, so that Y4 holds the four columns'
// terms at the first of those inner indices, Y5 at the second, and so on.
#define COLUMNS4(g) \
	VMOVUPD (g), Y4; \
	VMOVUPD (g)(R9*1), Y5; \
	VMOVUPD (g)(R9*2), Y6; \
	VMOVUPD (g)(R10*1), Y7; \
	TRANSPOSE4(Y4, Y5, Y6, Y7, Y8, Y9, Y10, Y11)

// ROWSTEP4 adds the four inner indices' products, a's elements broadcast in
// Y12…Y15 times Y4…Y7, into acc in ascending order.
#define ROWSTEP4(acc) \
	VMULPD Y12, Y4, Y4; \
	VADDPD Y4, acc, acc; \
	VMULPD Y13, Y5, Y5; \
	VADDPD Y5, acc, acc; \
	VMULPD Y14, Y6, Y6; \
	VADDPD Y6, acc, acc; \
	VMULPD Y15, Y7, Y7; \
	VADDPD Y7, acc, acc

// COLUMNS1 loads one element of each of the four rows of b from g into Y4.
#define COLUMNS1(g) \
	VMOVSD      (g), X4; \
	VMOVHPD     (g)(R9*1), X4, X4; \
	VMOVSD      (g)(R9*2), X5; \
	VMOVHPD     (g)(R10*1), X5, X5; \
	VINSERTF128 $1, X5, Y4, Y4

// ROWSTEP1 adds a's element broadcast in Y12 times Y4 into acc.
#define ROWSTEP1(acc) \
	VMULPD Y12, Y4, Y4; \
	VADDPD Y4, acc, acc

// ADDOUT adds the four sums in acc to d at off(DI).
#define ADDOUT(off, acc) \
	VMOVUPD off(DI), Y8; \
	VADDPD  acc, Y8, Y8; \
	VMOVUPD Y8, off(DI)

// func abTRowAVX2(d, a, b []float64, k int)
//
// One row of a·bᵀ: d[c] += the sum over ascending k of a[k]·b[c][k], from
// +0, for c < len(d). A lane holds one column's running sum, so the rows
// of b are read four at a time and transposed in registers, four inner
// indices at once: 16 columns (four independent add chains), then 4,
// then one at a time.
//
// Registers: SI a, DX the current column's row of b, R9 a row of b, R10
// three rows, CX columns left, DI their place in d; AX, BX and R11…R14
// walk a, the inner bytes left and four groups of four rows of b.
TEXT ·abTRowAVX2(SB), NOSPLIT, $0-80
	MOVQ d_base+0(FP), DI
	MOVQ d_len+8(FP), CX
	MOVQ a_base+24(FP), SI
	MOVQ b_base+48(FP), DX
	MOVQ k+72(FP), R9
	SHLQ $3, R9
	LEAQ (R9)(R9*2), R10

row16:
	CMPQ   CX, $16
	JLT    row4
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	MOVQ   SI, AX
	MOVQ   R9, BX
	MOVQ   DX, R11
	LEAQ   (R11)(R9*4), R12
	LEAQ   (R12)(R9*4), R13
	LEAQ   (R13)(R9*4), R14

row16k4:
	CMPQ         BX, $32
	JLT          row16k1
	VBROADCASTSD 0(AX), Y12
	VBROADCASTSD 8(AX), Y13
	VBROADCASTSD 16(AX), Y14
	VBROADCASTSD 24(AX), Y15
	COLUMNS4(R11)
	ROWSTEP4(Y0)
	COLUMNS4(R12)
	ROWSTEP4(Y1)
	COLUMNS4(R13)
	ROWSTEP4(Y2)
	COLUMNS4(R14)
	ROWSTEP4(Y3)
	ADDQ         $32, AX
	ADDQ         $32, R11
	ADDQ         $32, R12
	ADDQ         $32, R13
	ADDQ         $32, R14
	SUBQ         $32, BX
	JMP          row16k4

row16k1:
	TESTQ        BX, BX
	JEQ          row16out
	VBROADCASTSD (AX), Y12
	COLUMNS1(R11)
	ROWSTEP1(Y0)
	COLUMNS1(R12)
	ROWSTEP1(Y1)
	COLUMNS1(R13)
	ROWSTEP1(Y2)
	COLUMNS1(R14)
	ROWSTEP1(Y3)
	ADDQ         $8, AX
	ADDQ         $8, R11
	ADDQ         $8, R12
	ADDQ         $8, R13
	ADDQ         $8, R14
	SUBQ         $8, BX
	JMP          row16k1

row16out:
	ADDOUT(0, Y0)
	ADDOUT(32, Y1)
	ADDOUT(64, Y2)
	ADDOUT(96, Y3)
	ADDQ $128, DI
	LEAQ (R14)(R10*1), DX
	SUBQ $16, CX
	JMP  row16

row4:
	CMPQ   CX, $4
	JLT    row1
	VXORPD Y0, Y0, Y0
	MOVQ   SI, AX
	MOVQ   R9, BX
	MOVQ   DX, R11

row4k4:
	CMPQ         BX, $32
	JLT          row4k1
	VBROADCASTSD 0(AX), Y12
	VBROADCASTSD 8(AX), Y13
	VBROADCASTSD 16(AX), Y14
	VBROADCASTSD 24(AX), Y15
	COLUMNS4(R11)
	ROWSTEP4(Y0)
	ADDQ         $32, AX
	ADDQ         $32, R11
	SUBQ         $32, BX
	JMP          row4k4

row4k1:
	TESTQ        BX, BX
	JEQ          row4out
	VBROADCASTSD (AX), Y12
	COLUMNS1(R11)
	ROWSTEP1(Y0)
	ADDQ         $8, AX
	ADDQ         $8, R11
	SUBQ         $8, BX
	JMP          row4k1

row4out:
	ADDOUT(0, Y0)
	ADDQ $32, DI
	LEAQ (DX)(R9*4), DX
	SUBQ $4, CX
	JMP  row4

row1:
	TESTQ  CX, CX
	JEQ    rowDone
	VXORPD X0, X0, X0
	MOVQ   SI, AX
	MOVQ   R9, BX
	MOVQ   DX, R11

row1k:
	VMOVSD (AX), X12
	VMULSD (R11), X12, X4
	VADDSD X4, X0, X0
	ADDQ   $8, AX
	ADDQ   $8, R11
	SUBQ   $8, BX
	JNE    row1k
	VMOVSD (DI), X8
	VADDSD X0, X8, X8
	VMOVSD X8, (DI)
	ADDQ   $8, DI
	ADDQ   R9, DX
	DECQ   CX
	JMP    row1

rowDone:
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
