#include "textflag.h"

// func Prefetch(b []byte)
TEXT ·Prefetch(SB), NOSPLIT, $0-24
	MOVQ b_base+0(FP), AX
	MOVQ b_len+8(FP), CX
	JMP  test
line:
	PREFETCHT0 (AX)
	ADDQ $64, AX
	SUBQ $64, CX
test:
	CMPQ CX, $0
	JGT  line
	RET
