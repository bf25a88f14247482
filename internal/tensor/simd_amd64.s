#include "textflag.h"

// AVX2 kernels under mulAddRows, matMulTransBRange, Axpy, Axpy4 and
// AdamStep, and the AVX-512 tier (mulAddRowsAVX512, abTAVX512) that
// takes mulAddRows and a·bᵀ's row panels where the CPU has AVX-512F.
// Every lane does the scalar loop's rounded multiply (VMULPD/VMULSD) and
// then its rounded add (VADDPD/VADDSD), with the running value as the
// add's first operand, in the scalar loop's order. There is no fused
// multiply-add here: it rounds once and would change the bits.

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

// ENTRYZ loads gathered entry AX of the ZMM kernel: its multiplier,
// broadcast, into Z8 and the address of its row of bs at the current
// column into R12.
#define ENTRYZ \
	VBROADCASTSD (R11)(AX*8), Z8; \
	MOVQ         576(R11)(AX*8), R12; \
	ADDQ         DX, R12

// MULADDZ adds Z8 · (the eight doubles at off(R12)) into acc, through tmp.
#define MULADDZ(off, acc, tmp) \
	VMULPD off(R12), Z8, tmp; \
	VADDPD tmp, acc, acc

// NEXTZ advances to the next gathered entry and loops while one is left.
#define NEXTZ(loop) \
	INCQ AX; \
	CMPQ AX, R13; \
	JLT  loop

// SWEEPZ applies the R13 gathered entries at R11 to the len R8 segment
// of d at DI, bs's rows at DX, and goes on at done: d is held 64, 32, 16
// and 8 doubles at a time in ZMM registers across every entry, and its
// last 1–7 go under the opmask K1, so nothing past d or a row of bs is
// read or written. It uses AX, CX, R12, Z0…Z8 and Z16…Z23 and moves DI,
// DX and R8.
#define SWEEPZ(done) \
zblock64: \
	CMPQ      R8, $64; \
	JLT       zblock32; \
	VMOVUPD   0(DI), Z0; \
	VMOVUPD   64(DI), Z1; \
	VMOVUPD   128(DI), Z2; \
	VMOVUPD   192(DI), Z3; \
	VMOVUPD   256(DI), Z4; \
	VMOVUPD   320(DI), Z5; \
	VMOVUPD   384(DI), Z6; \
	VMOVUPD   448(DI), Z7; \
	XORQ      AX, AX; \
zloop64: \
	ENTRYZ; \
	MULADDZ(0, Z0, Z16); \
	MULADDZ(64, Z1, Z17); \
	MULADDZ(128, Z2, Z18); \
	MULADDZ(192, Z3, Z19); \
	MULADDZ(256, Z4, Z20); \
	MULADDZ(320, Z5, Z21); \
	MULADDZ(384, Z6, Z22); \
	MULADDZ(448, Z7, Z23); \
	NEXTZ(zloop64); \
	VMOVUPD   Z0, 0(DI); \
	VMOVUPD   Z1, 64(DI); \
	VMOVUPD   Z2, 128(DI); \
	VMOVUPD   Z3, 192(DI); \
	VMOVUPD   Z4, 256(DI); \
	VMOVUPD   Z5, 320(DI); \
	VMOVUPD   Z6, 384(DI); \
	VMOVUPD   Z7, 448(DI); \
	ADDQ      $512, DI; \
	ADDQ      $512, DX; \
	SUBQ      $64, R8; \
	JMP       zblock64; \
zblock32: \
	CMPQ      R8, $32; \
	JLT       zblock16; \
	VMOVUPD   0(DI), Z0; \
	VMOVUPD   64(DI), Z1; \
	VMOVUPD   128(DI), Z2; \
	VMOVUPD   192(DI), Z3; \
	XORQ      AX, AX; \
zloop32: \
	ENTRYZ; \
	MULADDZ(0, Z0, Z16); \
	MULADDZ(64, Z1, Z17); \
	MULADDZ(128, Z2, Z18); \
	MULADDZ(192, Z3, Z19); \
	NEXTZ(zloop32); \
	VMOVUPD   Z0, 0(DI); \
	VMOVUPD   Z1, 64(DI); \
	VMOVUPD   Z2, 128(DI); \
	VMOVUPD   Z3, 192(DI); \
	ADDQ      $256, DI; \
	ADDQ      $256, DX; \
	SUBQ      $32, R8; \
zblock16: \
	CMPQ      R8, $16; \
	JLT       zblock8; \
	VMOVUPD   0(DI), Z0; \
	VMOVUPD   64(DI), Z1; \
	XORQ      AX, AX; \
zloop16: \
	ENTRYZ; \
	MULADDZ(0, Z0, Z16); \
	MULADDZ(64, Z1, Z17); \
	NEXTZ(zloop16); \
	VMOVUPD   Z0, 0(DI); \
	VMOVUPD   Z1, 64(DI); \
	ADDQ      $128, DI; \
	ADDQ      $128, DX; \
	SUBQ      $16, R8; \
zblock8: \
	CMPQ      R8, $8; \
	JLT       ztail; \
	VMOVUPD   0(DI), Z0; \
	XORQ      AX, AX; \
zloop8: \
	ENTRYZ; \
	MULADDZ(0, Z0, Z16); \
	NEXTZ(zloop8); \
	VMOVUPD   Z0, 0(DI); \
	ADDQ      $64, DI; \
	ADDQ      $64, DX; \
	SUBQ      $8, R8; \
ztail: \
	TESTQ     R8, R8; \
	JEQ       done; \
	MOVQ      R8, CX; \
	MOVQ      $1, AX; \
	SHLQ      CX, AX; \
	DECQ      AX; \
	KMOVW     AX, K1; \
	VMOVUPD.Z (DI), K1, Z0; \
	XORQ      AX, AX; \
zloop1: \
	ENTRYZ; \
	VMOVUPD.Z (R12), K1, Z16; \
	VMULPD    Z16, Z8, Z16; \
	VADDPD    Z16, Z0, Z0; \
	NEXTZ(zloop1); \
	VMOVUPD   Z0, K1, (DI)

// iota8 is the qwords 0…7: the lane numbers.
DATA iota8<>+0(SB)/8, $0
DATA iota8<>+8(SB)/8, $1
DATA iota8<>+16(SB)/8, $2
DATA iota8<>+24(SB)/8, $3
DATA iota8<>+32(SB)/8, $4
DATA iota8<>+40(SB)/8, $5
DATA iota8<>+48(SB)/8, $6
DATA iota8<>+56(SB)/8, $7
GLOBL iota8<>(SB), RODATA|NOPTR, $64

// func mulAddRowsAVX512(d, as []float64, astride, n int, bs []float64, bstride int)
//
// mulAddRowsAVX2 with ZMM accumulators: d is swept 64, 32, 16 and 8
// doubles at a time and its last 1–7 under an opmask, so no element
// takes the scalar path. The gather has no branch on a multiplier's
// value. Contiguous multipliers go eight at a time: a load under the
// mask of those left, a compare that keeps every lane but ±0 (a NaN is
// unordered, so kept, as the scalar loop's av == 0 test keeps it), and
// VCOMPRESSPD of the kept multipliers and their rows' byte offsets to
// the frame. Strided ones go one at a time, counted through a CMOV.
//
// Frame: the gathered multipliers at 0(SP) and their rows' byte offsets
// in bs at 576(SP), 64 entries each and room for one more group's
// full-width store.
TEXT ·mulAddRowsAVX512(SB), $1152-96
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
	XORQ R13, R13 // gathered entries
	CMPQ R9, $8
	JNE  zstrided

	// Contiguous multipliers (a·b): K1 marks the ones left in this group
	// of up to eight, and VCMPPD keeps those that are not ±0.
	VMOVDQU64    iota8<>(SB), Z9
	VPBROADCASTQ R10, Z10
	VPMULUDQ     Z10, Z9, Z11 // the group's row offsets, t·bstride bytes
	VPSLLQ       $3, Z10, Z10 // one group's step
	VPXORQ       Z13, Z13, Z13

zgroup:
	MOVQ $0xff, AX
	CMPQ CX, $8
	JGE  zfull
	MOVQ $1, AX
	SHLQ CX, AX
	DECQ AX

zfull:
	KMOVW       AX, K1
	VMOVUPD.Z   (SI), K1, Z14
	VCMPPD      $4, Z13, Z14, K1, K2
	VCOMPRESSPD Z14, K2, Z15
	VPCOMPRESSQ Z11, K2, Z16
	VMOVUPD     Z15, (R11)(R13*8)
	VMOVDQU64   Z16, 576(R11)(R13*8)
	KMOVW       K2, AX
	POPCNTL     AX, AX
	ADDQ        AX, R13
	VPADDQ      Z10, Z11, Z11
	ADDQ        $64, SI
	SUBQ        $8, CX
	JGT         zgroup
	JMP         zgathered

	// Multipliers down a column (aᵀ·b): one at a time, each written to
	// the frame and counted only if shifting out its sign bit leaves a
	// non-zero.
zstrided:
	XORQ R12, R12 // byte offset of multiplier t's row

zscalar:
	MOVQ    (SI), AX
	MOVQ    AX, (R11)(R13*8)
	MOVQ    R12, 576(R11)(R13*8)
	LEAQ    1(R13), R14
	SHLQ    $1, AX
	CMOVQNE R14, R13
	ADDQ    R9, SI
	ADDQ    R10, R12
	DECQ    CX
	JNE     zscalar

zgathered:
	TESTQ R13, R13
	JEQ   zdone

	SWEEPZ(zdone)

zdone:
	VZEROUPPER
	RET

// TRANSPOSE8 turns the eight accumulators Z0…Z7, each holding one output
// column's eight rows, into the eight rows' segments of those columns,
// row r in Zr, through Z16…Z31.
#define TRANSPOSE8 \
	VUNPCKLPD  Z1, Z0, Z16; \
	VUNPCKHPD  Z1, Z0, Z17; \
	VUNPCKLPD  Z3, Z2, Z18; \
	VUNPCKHPD  Z3, Z2, Z19; \
	VUNPCKLPD  Z5, Z4, Z20; \
	VUNPCKHPD  Z5, Z4, Z21; \
	VUNPCKLPD  Z7, Z6, Z22; \
	VUNPCKHPD  Z7, Z6, Z23; \
	VSHUFF64X2 $0x88, Z18, Z16, Z24; \
	VSHUFF64X2 $0xdd, Z18, Z16, Z25; \
	VSHUFF64X2 $0x88, Z19, Z17, Z26; \
	VSHUFF64X2 $0xdd, Z19, Z17, Z27; \
	VSHUFF64X2 $0x88, Z22, Z20, Z28; \
	VSHUFF64X2 $0xdd, Z22, Z20, Z29; \
	VSHUFF64X2 $0x88, Z23, Z21, Z30; \
	VSHUFF64X2 $0xdd, Z23, Z21, Z31; \
	VSHUFF64X2 $0x88, Z28, Z24, Z0; \
	VSHUFF64X2 $0xdd, Z28, Z24, Z4; \
	VSHUFF64X2 $0x88, Z29, Z25, Z2; \
	VSHUFF64X2 $0xdd, Z29, Z25, Z6; \
	VSHUFF64X2 $0x88, Z30, Z26, Z1; \
	VSHUFF64X2 $0xdd, Z30, Z26, Z5; \
	VSHUFF64X2 $0x88, Z31, Z27, Z3; \
	VSHUFF64X2 $0xdd, Z31, Z27, Z7

// COMPRESSROW appends the kept multipliers of output row r, in zr, and
// their rows' byte offsets (Z11) to row r's list at list(SP), whose
// length is at count(SP).
#define COMPRESSROW(zr, list, count) \
	VCMPPD      $4, Z13, zr, K1, K2; \
	VCOMPRESSPD zr, K2, Z14; \
	VPCOMPRESSQ Z11, K2, Z15; \
	MOVQ        count(SP), AX; \
	VMOVUPD     Z14, list(SP)(AX*8); \
	VMOVDQU64   Z15, list+576(SP)(AX*8); \
	KMOVW       K2, BX; \
	POPCNTL     BX, BX; \
	ADDQ        BX, AX; \
	MOVQ        AX, count(SP)

// func mulAddRows8AVX512(d []float64, dstride, width int, as []float64, astride, n int, bs []float64, bstride int)
//
// mulAddRowsAVX512 for eight consecutive output rows of aᵀ·b: row r of
// d, d[r·dstride:][:width], gets as[t·astride+r] · bs[t·bstride:][:width]
// for t = 0 … n−1 in ascending order, skipping ±0 multipliers. Eight
// rows' multipliers at one t are eight adjacent doubles, so the gather
// loads eight t's of them, transposes the 8 × 8 block in registers and
// compresses each row's kept multipliers into that row's list; then
// SWEEPZ runs once per row. It needs 1 ≤ n ≤ wideMultipliers.
//
// Frame: row r's list at r·1152(SP) (its multipliers, then their rows'
// byte offsets at +576), the lists' lengths at 9216(SP), the row being
// swept at 9280(SP) and its segment of d at 9288(SP).
TEXT ·mulAddRows8AVX512(SB), $9296-112
	MOVQ as_base+40(FP), SI
	MOVQ astride+64(FP), R9
	SHLQ $3, R9
	LEAQ (R9)(R9*2), R10
	LEAQ (SI)(R9*4), R12
	MOVQ n+72(FP), CX
	MOVQ bstride+104(FP), DX
	SHLQ $3, DX

	VMOVDQU64    iota8<>(SB), Z9
	VPBROADCASTQ DX, Z10
	VPMULUDQ     Z10, Z9, Z11 // the group's row offsets, t·bstride bytes
	VPSLLQ       $3, Z10, Z10 // one group's step
	VPXORQ       Z13, Z13, Z13
	XORQ         AX, AX
	MOVQ         AX, 9216(SP)
	MOVQ         AX, 9224(SP)
	MOVQ         AX, 9232(SP)
	MOVQ         AX, 9240(SP)
	MOVQ         AX, 9248(SP)
	MOVQ         AX, 9256(SP)
	MOVQ         AX, 9264(SP)
	MOVQ         AX, 9272(SP)

	// Load eight t's (fewer in the last group: the rest stay zero, and
	// K1 masks them out of the compare) and transpose them into the
	// rows' multipliers.
rgroup:
	CMPQ    CX, $8
	JLT     rpart
	VMOVUPD (SI), Z0
	VMOVUPD (SI)(R9*1), Z1
	VMOVUPD (SI)(R9*2), Z2
	VMOVUPD (SI)(R10*1), Z3
	VMOVUPD (R12), Z4
	VMOVUPD (R12)(R9*1), Z5
	VMOVUPD (R12)(R9*2), Z6
	VMOVUPD (R12)(R10*1), Z7
	MOVQ    $0xff, AX
	JMP     rloaded

rpart:
	VPXORQ  Z1, Z1, Z1
	VPXORQ  Z2, Z2, Z2
	VPXORQ  Z3, Z3, Z3
	VPXORQ  Z4, Z4, Z4
	VPXORQ  Z5, Z5, Z5
	VPXORQ  Z6, Z6, Z6
	VPXORQ  Z7, Z7, Z7
	VMOVUPD (SI), Z0
	CMPQ    CX, $2
	JLT     rmask
	VMOVUPD (SI)(R9*1), Z1
	CMPQ    CX, $3
	JLT     rmask
	VMOVUPD (SI)(R9*2), Z2
	CMPQ    CX, $4
	JLT     rmask
	VMOVUPD (SI)(R10*1), Z3
	CMPQ    CX, $5
	JLT     rmask
	VMOVUPD (R12), Z4
	CMPQ    CX, $6
	JLT     rmask
	VMOVUPD (R12)(R9*1), Z5
	CMPQ    CX, $7
	JLT     rmask
	VMOVUPD (R12)(R9*2), Z6

rmask:
	MOVQ $1, AX
	SHLQ CX, AX
	DECQ AX

rloaded:
	KMOVW AX, K1
	TRANSPOSE8
	COMPRESSROW(Z0, 0, 9216)
	COMPRESSROW(Z1, 1152, 9224)
	COMPRESSROW(Z2, 2304, 9232)
	COMPRESSROW(Z3, 3456, 9240)
	COMPRESSROW(Z4, 4608, 9248)
	COMPRESSROW(Z5, 5760, 9256)
	COMPRESSROW(Z6, 6912, 9264)
	COMPRESSROW(Z7, 8064, 9272)
	VPADDQ Z10, Z11, Z11
	LEAQ   (SI)(R9*8), SI
	LEAQ   (R12)(R9*8), R12
	SUBQ   $8, CX
	JGT    rgroup

	MOVQ $0, 9280(SP)
	MOVQ d_base+0(FP), AX
	MOVQ AX, 9288(SP)

rrow:
	MOVQ  9280(SP), AX
	MOVQ  9216(SP)(AX*8), R13
	TESTQ R13, R13
	JEQ   rnext
	IMULQ $1152, AX
	LEAQ  0(SP)(AX*1), R11
	MOVQ  9288(SP), DI
	MOVQ  width+32(FP), R8
	MOVQ  bs_base+80(FP), DX
	SWEEPZ(rnext)

rnext:
	MOVQ dstride+24(FP), AX
	SHLQ $3, AX
	ADDQ AX, 9288(SP)
	INCQ 9280(SP)
	CMPQ 9280(SP), $8
	JLT  rrow
	VZEROUPPER
	RET

// ADDROWZ adds the eight sums in row to the destination at (AX) and moves
// AX to the next row.
#define ADDROWZ(row) \
	VADDPD  (AX), row, row; \
	VMOVUPD row, (AX); \
	ADDQ    R8, AX

// TERMZ adds the panel entry Z8 times the b element at addr, broadcast,
// into acc, through tmp.
#define TERMZ(addr, acc, tmp) \
	VMULPD.BCST addr, Z8, tmp; \
	VADDPD      tmp, acc, acc

// ADDCELLZ adds the sum at off(R14) to the destination double at (AX)
// and moves AX to the next row.
#define ADDCELLZ(off) \
	VMOVSD (AX), X9; \
	VADDSD off(R14), X9, X9; \
	VMOVSD X9, (AX); \
	ADDQ   R8, AX

// ADDCELLSZ adds the first BX ≥ 2 sums of the column at off(R14) to the
// destination column from AX, one row at a time, then goes on at done.
#define ADDCELLSZ(off, done) \
	ADDCELLZ(off); \
	ADDCELLZ(off+8); \
	CMPQ BX, $3; \
	JLT  done; \
	ADDCELLZ(off+16); \
	CMPQ BX, $4; \
	JLT  done; \
	ADDCELLZ(off+24); \
	CMPQ BX, $5; \
	JLT  done; \
	ADDCELLZ(off+32); \
	CMPQ BX, $6; \
	JLT  done; \
	ADDCELLZ(off+40); \
	CMPQ BX, $7; \
	JLT  done; \
	ADDCELLZ(off+48); \
	CMPQ BX, $8; \
	JLT  done; \
	ADDCELLZ(off+56)

// func abTAVX512(d []float64, dstride int, a []float64, rows int, b []float64, ncols, k int)
//
// abTAVX2 with a panel eight lanes wide: entry kk of the panel holds the
// rows' elements at inner index k0+kk in lanes 0…rows−1 and zeros in the
// rest. Each column of b sums the panel entries times its elements,
// broadcast, in ascending k, 8, 4 or 1 columns at a time, one ZMM
// accumulator per column. Between chunks of 64 inner indices a column's
// eight partial sums wait in the frame; after the last chunk an 8-column
// tile is transposed into rows and added to d a row at a time, and a
// 4- or 1-column tile is added one cell at a time, in the rows that
// exist.
//
// Frame: the panel (64 entries × 8 doubles) at 0(SP), the partial sums
// (64 columns × 8 rows) at 4096(SP), the chunk's start k0 as a byte
// offset into a row at 8192(SP) and its length in bytes at 8200(SP).
//
// Registers: BX rows, R8 d's row stride, R9 a row of a or b, R10 three
// rows of b, R11 the panel's end, R13 columns left, R14 the current
// column's partial sums, DX its row of b at k0, DI its first row of d.
TEXT ·abTAVX512(SB), $8216-104
	MOVQ dstride+24(FP), R8
	SHLQ $3, R8
	MOVQ rows+56(FP), BX
	MOVQ k+96(FP), R9
	SHLQ $3, R9
	LEAQ (R9)(R9*2), R10
	MOVQ $0, 8192(SP)
	MOVQ $64, AX
	XORQ CX, CX
	CMPQ R9, $512
	CMOVQGT AX, CX
	MOVQ CX, 8208(SP)

zchunk:
	MOVQ    R9, CX
	SUBQ    8192(SP), CX
	MOVQ    $512, AX
	CMPQ    CX, AX
	CMOVQGT AX, CX
	MOVQ    CX, 8200(SP)
	LEAQ    0(SP), DI
	LEAQ    (DI)(CX*8), R11

	// Build the panel. Eight rows: load eight inner indices of each
	// (the last ones under an opmask), transpose, store eight entries.
	// Fewer: zero the panel, then copy row r's chunk into lane r.
	CMPQ   BX, $8
	JEQ    zfill8
	VPXORQ Z0, Z0, Z0

zzero:
	VMOVUPD Z0, (DI)
	ADDQ    $64, DI
	CMPQ    DI, R11
	JLT     zzero

zfill:
	MOVQ a_base+32(FP), SI
	ADDQ 8192(SP), SI
	LEAQ 0(SP), R12
	MOVQ BX, R13

zfillRow:
	MOVQ SI, DX
	MOVQ R12, DI
	MOVQ CX, R14

zfillK:
	MOVQ (DX), AX
	MOVQ AX, (DI)
	ADDQ $8, DX
	ADDQ $64, DI
	SUBQ $8, R14
	JNE  zfillK
	ADDQ R9, SI
	ADDQ $8, R12
	DECQ R13
	JNE  zfillRow
	JMP  zpanel

zfill8:
	MOVQ a_base+32(FP), SI
	ADDQ 8192(SP), SI
	LEAQ (SI)(R9*4), R12

zfill8k:
	MOVQ      $0xff, AX
	CMPQ      CX, $64
	JGE       zfill8full
	MOVQ      CX, R13
	MOVQ      CX, R14
	SHRQ      $3, R14
	MOVQ      R14, CX
	MOVQ      $1, AX
	SHLQ      CX, AX
	DECQ      AX
	MOVQ      R13, CX

zfill8full:
	KMOVW     AX, K1
	VMOVUPD.Z (SI), K1, Z0
	VMOVUPD.Z (SI)(R9*1), K1, Z1
	VMOVUPD.Z (SI)(R9*2), K1, Z2
	VMOVUPD.Z (SI)(R10*1), K1, Z3
	VMOVUPD.Z (R12), K1, Z4
	VMOVUPD.Z (R12)(R9*1), K1, Z5
	VMOVUPD.Z (R12)(R9*2), K1, Z6
	VMOVUPD.Z (R12)(R10*1), K1, Z7
	TRANSPOSE8
	VMOVUPD   Z0, 0(DI)
	VMOVUPD   Z1, 64(DI)
	VMOVUPD   Z2, 128(DI)
	VMOVUPD   Z3, 192(DI)
	VMOVUPD   Z4, 256(DI)
	VMOVUPD   Z5, 320(DI)
	VMOVUPD   Z6, 384(DI)
	VMOVUPD   Z7, 448(DI)
	ADDQ      $64, SI
	ADDQ      $64, R12
	ADDQ      $512, DI
	SUBQ      $64, CX
	JGT       zfill8k

zpanel:
	MOVQ b_base+64(FP), DX
	ADDQ 8192(SP), DX
	MOVQ d_base+0(FP), DI
	LEAQ 4096(SP), R14
	MOVQ ncols+88(FP), R13

ztile8:
	CMPQ   R13, $8
	JLT    ztile4
	CMPQ   8192(SP), $0
	JNE    zresume8
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	VPXORQ Z4, Z4, Z4
	VPXORQ Z5, Z5, Z5
	VPXORQ Z6, Z6, Z6
	VPXORQ Z7, Z7, Z7
	JMP    zsweep8

zresume8:
	VMOVUPD 0(R14), Z0
	VMOVUPD 64(R14), Z1
	VMOVUPD 128(R14), Z2
	VMOVUPD 192(R14), Z3
	VMOVUPD 256(R14), Z4
	VMOVUPD 320(R14), Z5
	VMOVUPD 384(R14), Z6
	VMOVUPD 448(R14), Z7

zsweep8:
	MOVQ DX, R12
	LEAQ (DX)(R9*4), SI
	LEAQ 0(SP), AX

zloop8t:
	VMOVUPD (AX), Z8
	TERMZ((R12), Z0, Z16)
	TERMZ((R12)(R9*1), Z1, Z17)
	TERMZ((R12)(R9*2), Z2, Z18)
	TERMZ((R12)(R10*1), Z3, Z19)
	TERMZ((SI), Z4, Z20)
	TERMZ((SI)(R9*1), Z5, Z21)
	TERMZ((SI)(R9*2), Z6, Z22)
	TERMZ((SI)(R10*1), Z7, Z23)
	ADDQ $8, R12
	ADDQ $8, SI
	ADDQ $64, AX
	CMPQ AX, R11
	JLT  zloop8t

	MOVQ    8192(SP), AX
	ADDQ    8200(SP), AX
	CMPQ    AX, R9
	JEQ     zflush8
	VMOVUPD Z0, 0(R14)
	VMOVUPD Z1, 64(R14)
	VMOVUPD Z2, 128(R14)
	VMOVUPD Z3, 192(R14)
	VMOVUPD Z4, 256(R14)
	VMOVUPD Z5, 320(R14)
	VMOVUPD Z6, 384(R14)
	VMOVUPD Z7, 448(R14)
	JMP     znext8

zflush8:
	TRANSPOSE8
	MOVQ DI, AX
	ADDROWZ(Z0)
	ADDROWZ(Z1)
	CMPQ BX, $3
	JLT  znext8
	ADDROWZ(Z2)
	CMPQ BX, $4
	JLT  znext8
	ADDROWZ(Z3)
	CMPQ BX, $5
	JLT  znext8
	ADDROWZ(Z4)
	CMPQ BX, $6
	JLT  znext8
	ADDROWZ(Z5)
	CMPQ BX, $7
	JLT  znext8
	ADDROWZ(Z6)
	CMPQ BX, $8
	JLT  znext8
	ADDROWZ(Z7)

znext8:
	MOVQ 8208(SP), AX
	SHLQ $3, AX
	ADDQ AX, R14
	ADDQ $64, DI
	LEAQ (DX)(R9*8), DX
	SUBQ $8, R13
	JMP  ztile8

ztile4:
	CMPQ   R13, $4
	JLT    ztile1
	CMPQ   8192(SP), $0
	JNE    zresume4
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	JMP    zsweep4

zresume4:
	VMOVUPD 0(R14), Z0
	VMOVUPD 64(R14), Z1
	VMOVUPD 128(R14), Z2
	VMOVUPD 192(R14), Z3

zsweep4:
	MOVQ DX, R12
	LEAQ 0(SP), AX

zloop4t:
	VMOVUPD (AX), Z8
	TERMZ((R12), Z0, Z16)
	TERMZ((R12)(R9*1), Z1, Z17)
	TERMZ((R12)(R9*2), Z2, Z18)
	TERMZ((R12)(R10*1), Z3, Z19)
	ADDQ $8, R12
	ADDQ $64, AX
	CMPQ AX, R11
	JLT  zloop4t

	// The tile's sums go through the frame either way: as partial sums,
	// or to be added to d one cell at a time.
	VMOVUPD Z0, 0(R14)
	VMOVUPD Z1, 64(R14)
	VMOVUPD Z2, 128(R14)
	VMOVUPD Z3, 192(R14)
	MOVQ    8192(SP), AX
	ADDQ    8200(SP), AX
	CMPQ    AX, R9
	JNE     znext4
	MOVQ    DI, AX
	ADDCELLSZ(0, zcol1)

zcol1:
	LEAQ 8(DI), AX
	ADDCELLSZ(64, zcol2)

zcol2:
	LEAQ 16(DI), AX
	ADDCELLSZ(128, zcol3)

zcol3:
	LEAQ 24(DI), AX
	ADDCELLSZ(192, znext4)

znext4:
	MOVQ 8208(SP), AX
	SHLQ $2, AX
	ADDQ AX, R14
	ADDQ $32, DI
	LEAQ (DX)(R9*4), DX
	SUBQ $4, R13

ztile1:
	TESTQ  R13, R13
	JEQ    zchunkDone
	CMPQ   8192(SP), $0
	JNE    zresume1
	VPXORQ Z0, Z0, Z0
	JMP    zsweep1

zresume1:
	VMOVUPD 0(R14), Z0

zsweep1:
	MOVQ DX, R12
	LEAQ 0(SP), AX

zloop1t:
	VMOVUPD (AX), Z8
	TERMZ((R12), Z0, Z16)
	ADDQ $8, R12
	ADDQ $64, AX
	CMPQ AX, R11
	JLT  zloop1t

	VMOVUPD Z0, 0(R14)
	MOVQ    8192(SP), AX
	ADDQ    8200(SP), AX
	CMPQ    AX, R9
	JNE     znext1
	MOVQ    DI, AX
	ADDCELLSZ(0, znext1)

znext1:
	ADDQ 8208(SP), R14
	ADDQ $8, DI
	ADDQ R9, DX
	DECQ R13
	JMP  ztile1

zchunkDone:
	MOVQ 8192(SP), AX
	ADDQ 8200(SP), AX
	MOVQ AX, 8192(SP)
	CMPQ AX, R9
	JLT  zchunk
	VZEROUPPER
	RET

// func adamAVX2(w, g, m, v []float64, beta1, c1, beta2, c2, bc1, bc2, lr, eps float64)
//
// Four elements of AdamStep per iteration, each lane the Go loop's
// rounded operations in its order: m = β1·m + c1·g, v = β2·v + (c2·g)·g,
// then w −= (lr·(m/bc1)) / (√(v/bc2) + eps). VDIVPD and VSQRTPD round
// correctly, as DIVSD and SQRTSD do.
TEXT ·adamAVX2(SB), NOSPLIT, $0-160
	MOVQ         w_base+0(FP), DI
	MOVQ         w_len+8(FP), CX
	MOVQ         g_base+24(FP), SI
	MOVQ         m_base+48(FP), R8
	MOVQ         v_base+72(FP), R9
	VBROADCASTSD beta1+96(FP), Y0
	VBROADCASTSD c1+104(FP), Y1
	VBROADCASTSD beta2+112(FP), Y2
	VBROADCASTSD c2+120(FP), Y3
	VBROADCASTSD bc1+128(FP), Y4
	VBROADCASTSD bc2+136(FP), Y5
	VBROADCASTSD lr+144(FP), Y6
	VBROADCASTSD eps+152(FP), Y7
	SHRQ         $2, CX
	JEQ          adamDone
	XORQ         AX, AX

adamLoop:
	VMOVUPD (SI)(AX*1), Y8
	VMULPD  (R8)(AX*1), Y0, Y9
	VMULPD  Y8, Y1, Y10
	VADDPD  Y10, Y9, Y9
	VMOVUPD Y9, (R8)(AX*1)
	VMULPD  (R9)(AX*1), Y2, Y11
	VMULPD  Y8, Y3, Y12
	VMULPD  Y8, Y12, Y12
	VADDPD  Y12, Y11, Y11
	VMOVUPD Y11, (R9)(AX*1)
	VDIVPD  Y4, Y9, Y9
	VDIVPD  Y5, Y11, Y11
	VSQRTPD Y11, Y11
	VADDPD  Y7, Y11, Y11
	VMULPD  Y9, Y6, Y9
	VDIVPD  Y11, Y9, Y9
	VMOVUPD (DI)(AX*1), Y10
	VSUBPD  Y9, Y10, Y10
	VMOVUPD Y10, (DI)(AX*1)
	ADDQ    $32, AX
	DECQ    CX
	JNE     adamLoop

adamDone:
	VZEROUPPER
	RET
