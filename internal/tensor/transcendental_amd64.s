#include "textflag.h"

// AVX2 kernels under GELU, GELUGrad and Exp (transcendental.go): four
// lanes of math.Erf, and of math.Exp as its amd64 assembly computes it,
// each lane doing the scalar code's rounded operations in its order, so
// every lane's bits are the scalar loop's.
//
// erf follows math/erf.go: the two rational ranges |u| < 0.84375 and
// 0.84375 ≤ |u| < 1.25 in VMULPD/VADDPD/VDIVPD, Horner steps in the
// source's order; erfc's range 1.25 ≤ |u| < 6 through the vector exp
// below; ±1 past 6. A block computes only the ranges one of its lanes
// is in and blends them by lane. Each range works on |u| and the sign is
// applied last with an XOR: round-to-nearest is symmetric in sign, so
// -erx - P/Q is -(erx + P/Q) bit for bit, and r/x - 1 is -(1 - r/x).
//
// exp is math's archExp on its FMA path (exp_amd64.s, after Shibata,
// "Efficient evaluation methods of elementary functions suitable for
// SIMD computation", ISC 2010) instruction for instruction: the same
// VCVTPD2DQ, two VFNMADD231PD steps, the VFMADD213PD Horner chain, four
// square steps and an ldexp through the exponent bits. This is the one
// place in the package that fuses a multiply and an add, exactly where
// archExp fuses, and the Go wrappers call it only where math takes that
// path too (useFMA: AVX and FMA).
//
// A kernel hands a block of four back to the Go wrapper, unstored, when
// one of its lanes needs the scalar code: an erf argument that is NaN,
// ±Inf or non-zero below 2⁻¹⁰¹⁵ (erf's VeryTiny branch), or an exp
// argument whose power of two leaves the normal ldexp range [1, 2046]
// (NaN, ±Inf, overflow, the subnormal and zero results). The last
// 1–3 elements run in a masked block (VMASKMOVPD): masked-off lanes
// read +0, which no check sends back, and are not stored.

// LANES fills four lanes of a 32-byte constant at offset off of name.
#define LANES(name, off, bits) \
	DATA name<>+(off)(SB)/8, bits; \
	DATA name<>+(off+8)(SB)/8, bits; \
	DATA name<>+(off+16)(SB)/8, bits; \
	DATA name<>+(off+24)(SB)/8, bits

// exp_amd64.s's constants.
#define LOG2E tconst<>+0(SB)
#define LN2U tconst<>+32(SB)
#define LN2L tconst<>+64(SB)
#define SIXTEENTH tconst<>+96(SB)
#define EXP8 tconst<>+128(SB)
#define EXP7 tconst<>+160(SB)
#define EXP6 tconst<>+192(SB)
#define EXP5 tconst<>+224(SB)
#define EXP4 tconst<>+256(SB)
#define EXP3 tconst<>+288(SB)
#define HALF tconst<>+320(SB)
#define ONE tconst<>+352(SB)
#define TWO tconst<>+384(SB)

// erf's: √2 for u = x/√2, the masks, the range bounds (erf.go's Small
// and VeryTiny; 0.84375, 1.25, 6 and 1/0.35), -0.5625, and the
// coefficients of the two rational ranges.
#define SQRT2 tconst<>+416(SB)
#define ABSMASK tconst<>+448(SB)
#define SIGNMASK tconst<>+480(SB)
#define HI32MASK tconst<>+512(SB)
#define INF tconst<>+544(SB)
#define VERYTINY tconst<>+576(SB)
#define SMALL tconst<>+608(SB)
#define ERFR1 tconst<>+640(SB)
#define ERFR2 tconst<>+672(SB)
#define ERFR3 tconst<>+704(SB)
#define ERFRB tconst<>+736(SB)
#define NEGC tconst<>+768(SB)
#define ERX tconst<>+800(SB)
#define EFX tconst<>+832(SB)
#define PP0 tconst<>+864(SB)
#define PP1 tconst<>+896(SB)
#define PP2 tconst<>+928(SB)
#define PP3 tconst<>+960(SB)
#define PP4 tconst<>+992(SB)
#define QQ1 tconst<>+1024(SB)
#define QQ2 tconst<>+1056(SB)
#define QQ3 tconst<>+1088(SB)
#define QQ4 tconst<>+1120(SB)
#define QQ5 tconst<>+1152(SB)
#define PA0 tconst<>+1184(SB)
#define PA1 tconst<>+1216(SB)
#define PA2 tconst<>+1248(SB)
#define PA3 tconst<>+1280(SB)
#define PA4 tconst<>+1312(SB)
#define PA5 tconst<>+1344(SB)
#define PA6 tconst<>+1376(SB)
#define QA1 tconst<>+1408(SB)
#define QA2 tconst<>+1440(SB)
#define QA3 tconst<>+1472(SB)
#define QA4 tconst<>+1504(SB)
#define QA5 tconst<>+1536(SB)
#define QA6 tconst<>+1568(SB)

// gaussPDF's -0.5 and √(2π).
#define NEGHALF tconst<>+1600(SB)
#define SQRT2PI tconst<>+1632(SB)

// Four int32 lanes (the low 16 bytes): exp's exponent plus 1022, the
// largest exponent + 1022 that ldexp keeps normal, and the bias.
#define BIAS1022 tconst<>+1664(SB)
#define LIM2045 tconst<>+1696(SB)
#define BIAS1023 tconst<>+1728(SB)

LANES(tconst, 0, $0x3ff71547652b82fe)
LANES(tconst, 32, $0x3fe62e42fefa3000)
LANES(tconst, 64, $0x3d53de6af278ece6)
LANES(tconst, 96, $0x3fb0000000000000)
LANES(tconst, 128, $0x3efa01a01a01a01a)
LANES(tconst, 160, $0x3f2a01a01a01a01a)
LANES(tconst, 192, $0x3f56c16c16c16c17)
LANES(tconst, 224, $0x3f81111111111111)
LANES(tconst, 256, $0x3fa5555555555555)
LANES(tconst, 288, $0x3fc5555555555555)
LANES(tconst, 320, $0x3fe0000000000000)
LANES(tconst, 352, $0x3ff0000000000000)
LANES(tconst, 384, $0x4000000000000000)
LANES(tconst, 416, $0x3ff6a09e667f3bcd)
LANES(tconst, 448, $0x7fffffffffffffff)
LANES(tconst, 480, $0x8000000000000000)
LANES(tconst, 512, $0xffffffff00000000)
LANES(tconst, 544, $0x7ff0000000000000)
LANES(tconst, 576, $0x0080000000000000)
LANES(tconst, 608, $0x3e30000000000000)
LANES(tconst, 640, $0x3feb000000000000)
LANES(tconst, 672, $0x3ff4000000000000)
LANES(tconst, 704, $0x4018000000000000)
LANES(tconst, 736, $0x4006db6db6db6db7)
LANES(tconst, 768, $0xbfe2000000000000)
LANES(tconst, 800, $0x3feb0ac160000000)
LANES(tconst, 832, $0x3fc06eba8214db69)
LANES(tconst, 864, $0x3fc06eba8214db68)
LANES(tconst, 896, $0xbfd4cd7d691cb913)
LANES(tconst, 928, $0xbf9d2a51dbd7194f)
LANES(tconst, 960, $0xbf77a291236668e4)
LANES(tconst, 992, $0xbef8ead6120016ac)
LANES(tconst, 1024, $0x3fd97779cddadc09)
LANES(tconst, 1056, $0x3fb0a54c5536ceba)
LANES(tconst, 1088, $0x3f74d022c4d36b0f)
LANES(tconst, 1120, $0x3f215dc9221c1a10)
LANES(tconst, 1152, $0xbed09c4342a26120)
LANES(tconst, 1184, $0xbf6359b8bef77538)
LANES(tconst, 1216, $0x3fda8d00ad92b34d)
LANES(tconst, 1248, $0xbfd7d240fbb8c3f1)
LANES(tconst, 1280, $0x3fd45fca805120e4)
LANES(tconst, 1312, $0xbfbc63983d3e28ec)
LANES(tconst, 1344, $0x3fa22a36599795eb)
LANES(tconst, 1376, $0xbf61bf380a96073f)
LANES(tconst, 1408, $0x3fbb3e6618eee323)
LANES(tconst, 1440, $0x3fe14af092eb6f33)
LANES(tconst, 1472, $0x3fb2635cd99fe9a7)
LANES(tconst, 1504, $0x3fc02660e763351f)
LANES(tconst, 1536, $0x3f8bedc26b51dd1c)
LANES(tconst, 1568, $0x3f888b545735151d)
LANES(tconst, 1600, $0xbfe0000000000000)
LANES(tconst, 1632, $0x40040d931ff62705)
LANES(tconst, 1664, $0x000003fe000003fe)
LANES(tconst, 1696, $0x000007fd000007fd)
LANES(tconst, 1728, $0x000003ff000003ff)
GLOBL tconst<>(SB), RODATA|NOPTR, $1760

// erfrs holds erfc's R and S coefficients per sub-range, 1.25 ≤ |u| <
// 1/0.35 then 1/0.35 ≤ |u| < 6, each as R's c0…c7 and S's d1…d8 of
//
//	R = c0 + s·(c1 + s·(… + s·(c6 + s·c7)))
//	S = 1 + s·(d1 + s·(… + s·(d7 + s·d8)))
//
// The second sub-range's polynomials are a degree shorter and padded
// with c7 = d8 = 0: s·0 + rb6 is rb6 exactly, so the chain then does
// erf.go's operations for rb and sb.
LANES(erfrs, 0, $0xbf843412600d6435) // ra0
LANES(erfrs, 32, $0xbfe63416e4ba7360) // ra1
LANES(erfrs, 64, $0xc0251e0441b0e726) // ra2
LANES(erfrs, 96, $0xc04f300ae4cba38d) // ra3
LANES(erfrs, 128, $0xc0644cb184282266) // ra4
LANES(erfrs, 160, $0xc067135cebccabb2) // ra5
LANES(erfrs, 192, $0xc054526557e4d2f2) // ra6
LANES(erfrs, 224, $0xc023a0efc69ac25c) // ra7
LANES(erfrs, 256, $0x4033a6b9bd707687) // sa1
LANES(erfrs, 288, $0x4061350c526ae721) // sa2
LANES(erfrs, 320, $0x407b290dd58a1a71) // sa3
LANES(erfrs, 352, $0x40842b1921ec2868) // sa4
LANES(erfrs, 384, $0x407ad02157700314) // sa5
LANES(erfrs, 416, $0x405b28a3ee48ae2c) // sa6
LANES(erfrs, 448, $0x401a47ef8e484a93) // sa7
LANES(erfrs, 480, $0xbfaeeff2ee749a62) // sa8
LANES(erfrs, 512, $0xbf84341239e86f4a) // rb0
LANES(erfrs, 544, $0xbfe993ba70c285de) // rb1
LANES(erfrs, 576, $0xc031c209555f995a) // rb2
LANES(erfrs, 608, $0xc064145d43c5ed98) // rb3
LANES(erfrs, 640, $0xc083ec881375f228) // rb4
LANES(erfrs, 672, $0xc09004616a2e5992) // rb5
LANES(erfrs, 704, $0xc07e384e9bdc383f) // rb6
LANES(erfrs, 736, $0x0000000000000000) // 0
LANES(erfrs, 768, $0x403e568b261d5190) // sb1
LANES(erfrs, 800, $0x40745cae221b9f0a) // sb2
LANES(erfrs, 832, $0x409802eb189d5118) // sb3
LANES(erfrs, 864, $0x40a8ffb7688c246a) // sb4
LANES(erfrs, 896, $0x40a3f219cedf3be6) // sb5
LANES(erfrs, 928, $0x407da874e79fe763) // sb6
LANES(erfrs, 960, $0xc03670e242712d62) // sb7
LANES(erfrs, 992, $0x0000000000000000) // 0
GLOBL erfrs<>(SB), RODATA|NOPTR, $1024

// tailmask row r (at 32·r) selects the first r lanes, for a last block
// of r = 1…3 elements.
DATA tailmask<>+32(SB)/8, $-1
DATA tailmask<>+64(SB)/8, $-1
DATA tailmask<>+72(SB)/8, $-1
DATA tailmask<>+96(SB)/8, $-1
DATA tailmask<>+104(SB)/8, $-1
DATA tailmask<>+112(SB)/8, $-1
GLOBL tailmask<>(SB), RODATA|NOPTR, $128

// EXPREDUCE starts exp(x): e = round(x·log₂e) as four int32 lanes, and
// f = e as doubles (archExp's MULSD, CVTSD2SL, CVTSL2SD).
#define EXPREDUCE(x, f, e) \
	VMULPD     LOG2E, x, f; \
	VCVTPD2DQY f, e; \
	VCVTDQ2PD  e, f

// EXPCHECK jumps to fail unless every lane's e + 1023 lies in ldexp's
// normal range [1, 2046], through temporaries t and m and register r.
// A NaN or infinite x, or one whose e overflows int32, converts to
// 0x80000000 and fails; so does every x past archExp's overflow bound.
#define EXPCHECK(e, t, m, r, fail) \
	VPADDD    BIAS1022, e, t; \
	VPMINUD   LIM2045, t, m; \
	VPCMPEQD  m, t, m; \
	VMOVMSKPS m, r; \
	CMPL      r, $15; \
	JNE       fail

// EXPPOLY is archExp's avxfma path from the reduction on: x becomes the
// mantissa part of exp(x), with f from EXPREDUCE and p a temporary.
#define EXPPOLY(x, f, p) \
	VFNMADD231PD LN2U, f, x; \
	VFNMADD231PD LN2L, f, x; \
	VMULPD       SIXTEENTH, x, x; \
	VMOVUPD      EXP8, p; \
	VFMADD213PD  EXP7, x, p; \
	VFMADD213PD  EXP6, x, p; \
	VFMADD213PD  EXP5, x, p; \
	VFMADD213PD  EXP4, x, p; \
	VFMADD213PD  EXP3, x, p; \
	VFMADD213PD  HALF, x, p; \
	VFMADD213PD  ONE, x, p; \
	VMULPD       p, x, x; \
	VADDPD       TWO, x, p; \
	VMULPD       p, x, x; \
	VADDPD       TWO, x, p; \
	VMULPD       p, x, x; \
	VADDPD       TWO, x, p; \
	VMULPD       p, x, x; \
	VADDPD       TWO, x, p; \
	VFMADD213PD  ONE, p, x

// EXPSCALE multiplies x by 2^e, building the power's bits in s
// (archExp's ldexp on its normal path).
#define EXPSCALE(x, e, s) \
	VPADDD    BIAS1023, e, e; \
	VPMOVSXDQ e, s; \
	VPSLLQ    $52, s, s; \
	VMULPD    s, x, x

// HORNER is one step t = c + s·t, as the scalar code rounds it.
#define HORNER(c, s, t) \
	VMULPD t, s, t; \
	VADDPD c, t, t

// ERFCRS computes R/S into Y7 from s = 1/u² in Y5 with the
// coefficient table at b (erfrs or its second half), through Y8.
#define ERFCRS(b) \
	VMULPD  224(b), Y5, Y7; \
	VADDPD  192(b), Y7, Y7; \
	HORNER(160(b), Y5, Y7); \
	HORNER(128(b), Y5, Y7); \
	HORNER(96(b), Y5, Y7); \
	HORNER(64(b), Y5, Y7); \
	HORNER(32(b), Y5, Y7); \
	HORNER(0(b), Y5, Y7); \
	VMULPD  480(b), Y5, Y8; \
	VADDPD  448(b), Y8, Y8; \
	HORNER(416(b), Y5, Y8); \
	HORNER(384(b), Y5, Y8); \
	HORNER(352(b), Y5, Y8); \
	HORNER(320(b), Y5, Y8); \
	HORNER(288(b), Y5, Y8); \
	HORNER(256(b), Y5, Y8); \
	HORNER(ONE, Y5, Y8); \
	VDIVPD  Y8, Y7, Y7

// LOADBLOCK loads the next block of len − AX elements of the slice at
// SI into x: four, or the last 1–3 under the mask it leaves in Y15 with
// DX = 1. It jumps to done when no element is left.
#define LOADBLOCK(x, done, full, loaded) \
	MOVQ  CX, BX; \
	SUBQ  AX, BX; \
	JLE   done; \
	XORQ  DX, DX; \
	CMPQ  BX, $4; \
	JGE   full; \
	SHLQ  $5, BX; \
	LEAQ  tailmask<>(SB), R8; \
	VMOVUPD (R8)(BX*1), Y15; \
	MOVQ  $1, DX; \
	VMASKMOVPD (SI)(AX*8), Y15, x; \
	JMP   loaded; \
full: \
	VMOVUPD (SI)(AX*8), x; \
loaded:

// func expAVX2(dst, x []float64, i int) int
//
// dst[j] = math.Exp(x[j]) from j = i in blocks of four; it returns
// len(x), or the start of a block the scalar code must take. dst must
// be as long as x; it may be x.
TEXT ·expAVX2(SB), NOSPLIT, $0-64
	MOVQ dst_base+0(FP), DI
	MOVQ x_base+24(FP), SI
	MOVQ x_len+32(FP), CX
	MOVQ i+48(FP), AX

expLoop:
	LOADBLOCK(Y0, expDone, expFull, expLoaded)
	EXPREDUCE(Y0, Y1, X2)
	EXPCHECK(X2, X3, X4, R9, expOut)
	EXPPOLY(Y0, Y1, Y3)
	EXPSCALE(Y0, X2, Y1)
	TESTQ      DX, DX
	JNE        expTail
	VMOVUPD    Y0, (DI)(AX*8)
	ADDQ       $4, AX
	JMP        expLoop

expTail:
	VMASKMOVPD Y0, Y15, (DI)(AX*8)

expDone:
	MOVQ CX, AX

expOut:
	MOVQ AX, ret+56(FP)
	VZEROUPPER
	RET

// func geluAVX2(y, cdf, x []float64, i int) int
//
// cdf[j] = 0.5·(1 + math.Erf(x[j]/√2)) and y[j] = x[j]·cdf[j] from j = i
// in blocks of four; it returns len(x), or the start of a block the
// scalar code must take. y and cdf must be as long as x.
//
// Registers: Y0 x, Y1 |u|, Y2 u's sign, Y3 |erf(u)|, Y12–Y14 the lanes
// below 6, 1.25 and 0.84375 (their sign bits in R10–R12), Y4–Y11, R8,
// R9 and BX scratch.
TEXT ·geluAVX2(SB), NOSPLIT, $0-88
	MOVQ y_base+0(FP), DI
	MOVQ cdf_base+24(FP), R13
	MOVQ x_base+48(FP), SI
	MOVQ x_len+56(FP), CX
	MOVQ i+72(FP), AX

geluLoop:
	LOADBLOCK(Y0, geluDone, geluFull, geluLoaded)
	VDIVPD    SQRT2, Y0, Y4
	VANDPD    ABSMASK, Y4, Y1
	VANDPD    SIGNMASK, Y4, Y2

	// NaN and ±Inf (not below +Inf), and 0 < |u| < VeryTiny, go scalar.
	VCMPPD    $0x15, INF, Y1, Y5
	VCMPPD    $0x11, VERYTINY, Y1, Y6
	VXORPD    Y7, Y7, Y7
	VCMPPD    $4, Y7, Y1, Y7
	VANDPD    Y7, Y6, Y6
	VORPD     Y6, Y5, Y5
	VMOVMSKPD Y5, R9
	TESTL     R9, R9
	JNE       geluOut

	VCMPPD    $0x11, ERFR3, Y1, Y12
	VCMPPD    $0x11, ERFR2, Y1, Y13
	VCMPPD    $0x11, ERFR1, Y1, Y14
	VMOVMSKPD Y12, R10
	VMOVMSKPD Y13, R11
	VMOVMSKPD Y14, R12
	VMOVUPD   ONE, Y3 // |u| ≥ 6
	CMPL      R10, R11
	JEQ       geluNoRange3

	// 1.25 ≤ |u| < 6: 1 - exp(-z·z - 0.5625)·exp((z-u)·(z+u) + R/S)/u,
	// z = u with the low 32 bits cleared. Every lane of this range has
	// both exp arguments inside ldexp's normal range (above -37), so
	// nothing here is checked.
	VMULPD    Y1, Y1, Y4
	VMOVUPD   ONE, Y5
	VDIVPD    Y4, Y5, Y5 // s = 1/(u·u)
	VCMPPD    $0x11, ERFRB, Y1, Y6
	VMOVMSKPD Y6, R9
	MOVL      R10, BX
	XORL      R11, BX // lanes in 1.25 ≤ |u| < 6
	ANDL      BX, R9  // of those, below 1/0.35
	LEAQ      erfrs<>(SB), R8
	CMPL      R9, BX
	JEQ       geluOneTable
	ADDQ      $512, R8
	TESTL     R9, R9
	JEQ       geluOneTable
	LEAQ      erfrs<>(SB), R8 // both sub-ranges: blend the two
	ERFCRS(R8)
	VMOVAPD   Y7, Y11
	ADDQ      $512, R8
	ERFCRS(R8)
	VBLENDVPD Y6, Y11, Y7, Y7
	JMP       geluRS

geluOneTable:
	ERFCRS(R8)

geluRS:
	VANDPD    HI32MASK, Y1, Y8 // z
	VMULPD    Y8, Y8, Y9
	VMOVUPD   NEGC, Y10
	VSUBPD    Y9, Y10, Y9 // -z·z - 0.5625
	VSUBPD    Y1, Y8, Y10
	VADDPD    Y1, Y8, Y8
	VMULPD    Y8, Y10, Y10
	VADDPD    Y7, Y10, Y10 // (z-u)·(z+u) + R/S
	EXPREDUCE(Y9, Y4, X5)
	EXPPOLY(Y9, Y4, Y6)
	EXPSCALE(Y9, X5, Y4)
	EXPREDUCE(Y10, Y8, X11)
	EXPPOLY(Y10, Y8, Y7)
	EXPSCALE(Y10, X11, Y8)
	VMULPD    Y10, Y9, Y9
	VDIVPD    Y1, Y9, Y9
	VMOVUPD   ONE, Y4
	VSUBPD    Y9, Y4, Y4
	VBLENDVPD Y12, Y4, Y3, Y3

geluNoRange3:
	CMPL R11, R12
	JEQ  geluNoRange2

	// 0.84375 ≤ |u| < 1.25: erx + P/Q at s = u - 1.
	VSUBPD    ONE, Y1, Y5
	VMULPD    PA6, Y5, Y4
	VADDPD    PA5, Y4, Y4
	HORNER(PA4, Y5, Y4)
	HORNER(PA3, Y5, Y4)
	HORNER(PA2, Y5, Y4)
	HORNER(PA1, Y5, Y4)
	HORNER(PA0, Y5, Y4)
	VMULPD    QA6, Y5, Y6
	VADDPD    QA5, Y6, Y6
	HORNER(QA4, Y5, Y6)
	HORNER(QA3, Y5, Y6)
	HORNER(QA2, Y5, Y6)
	HORNER(QA1, Y5, Y6)
	HORNER(ONE, Y5, Y6)
	VDIVPD    Y6, Y4, Y4
	VADDPD    ERX, Y4, Y4
	VBLENDVPD Y13, Y4, Y3, Y3

geluNoRange2:
	TESTL R12, R12
	JEQ   geluNoRange1

	// |u| < 0.84375: u + u·(r/s) at z = u·u; below 2⁻²⁸ erf.go takes
	// u + efx·u instead (0 included: VeryTiny's branch gives the same
	// ±0 there).
	VMULPD    Y1, Y1, Y5
	VMULPD    PP4, Y5, Y4
	VADDPD    PP3, Y4, Y4
	HORNER(PP2, Y5, Y4)
	HORNER(PP1, Y5, Y4)
	HORNER(PP0, Y5, Y4)
	VMULPD    QQ5, Y5, Y6
	VADDPD    QQ4, Y6, Y6
	HORNER(QQ3, Y5, Y6)
	HORNER(QQ2, Y5, Y6)
	HORNER(QQ1, Y5, Y6)
	HORNER(ONE, Y5, Y6)
	VDIVPD    Y6, Y4, Y4
	VCMPPD    $0x11, SMALL, Y1, Y5
	VBLENDVPD Y5, EFX, Y4, Y4
	VMULPD    Y4, Y1, Y4
	VADDPD    Y1, Y4, Y4
	VBLENDVPD Y14, Y4, Y3, Y3

geluNoRange1:
	VXORPD     Y2, Y3, Y3 // erf(u)
	VADDPD     ONE, Y3, Y3
	VMULPD     HALF, Y3, Y3 // Φ(x)
	VMULPD     Y3, Y0, Y4   // x·Φ(x)
	TESTQ      DX, DX
	JNE        geluTail
	VMOVUPD    Y3, (R13)(AX*8)
	VMOVUPD    Y4, (DI)(AX*8)
	ADDQ       $4, AX
	JMP        geluLoop

geluTail:
	VMASKMOVPD Y3, Y15, (R13)(AX*8)
	VMASKMOVPD Y4, Y15, (DI)(AX*8)

geluDone:
	MOVQ CX, AX

geluOut:
	MOVQ AX, ret+80(FP)
	VZEROUPPER
	RET

// func geluGradAVX2(dx, dy, x, cdf []float64, i int) int
//
// dx[j] = dy[j]·(cdf[j] + x[j]·φ(x[j])), φ(x) = math.Exp(-0.5·x·x)/√(2π),
// from j = i in blocks of four; it returns len(x), or the start of a
// block the scalar code must take. dx, dy and cdf must be as long as x.
TEXT ·geluGradAVX2(SB), NOSPLIT, $0-112
	MOVQ dx_base+0(FP), DI
	MOVQ dy_base+24(FP), R10
	MOVQ x_base+48(FP), SI
	MOVQ x_len+56(FP), CX
	MOVQ cdf_base+72(FP), R11
	MOVQ i+96(FP), AX

gradLoop:
	LOADBLOCK(Y0, gradDone, gradFull, gradLoaded)
	VMULPD     NEGHALF, Y0, Y3
	VMULPD     Y0, Y3, Y3 // -0.5·x·x
	EXPREDUCE(Y3, Y4, X5)
	EXPCHECK(X5, X6, X7, R9, gradOut)
	EXPPOLY(Y3, Y4, Y6)
	EXPSCALE(Y3, X5, Y4)
	VDIVPD     SQRT2PI, Y3, Y3 // φ(x)
	VMULPD     Y3, Y0, Y3
	TESTQ      DX, DX
	JNE        gradTail
	VADDPD     (R11)(AX*8), Y3, Y3
	VMULPD     (R10)(AX*8), Y3, Y3
	VMOVUPD    Y3, (DI)(AX*8)
	ADDQ       $4, AX
	JMP        gradLoop

gradTail:
	VMASKMOVPD (R11)(AX*8), Y15, Y1
	VMASKMOVPD (R10)(AX*8), Y15, Y2
	VADDPD     Y1, Y3, Y3
	VMULPD     Y2, Y3, Y3
	VMASKMOVPD Y3, Y15, (DI)(AX*8)

gradDone:
	MOVQ CX, AX

gradOut:
	MOVQ AX, ret+104(FP)
	VZEROUPPER
	RET
