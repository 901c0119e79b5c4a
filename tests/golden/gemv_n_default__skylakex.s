	.section .note.GNU-stack,"",@progbits
	.text
	.globl dgemv_n_kernel
	.type dgemv_n_kernel, @function
	.p2align 4
dgemv_n_kernel:
	push	%r12
	push	%r13
	push	%rbp
	push	%rbx
	sub	$96, %rsp
	mov	%rdi, (%rsp)	# arg M
	mov	%rsi, 8(%rsp)	# arg N
	mov	%rdx, 16(%rsp)	# arg A
	mov	%rcx, 24(%rsp)	# arg LDA
	mov	%r8, 32(%rsp)	# arg X
	mov	%r9, 40(%rsp)	# arg Y
	mov	40(%rsp), %r13	# home Y
	mov	(%rsp), %r10	# home M
	mov	8(%rsp), %rcx	# home N
	mov	16(%rsp), %rbx	# home A
	mov	24(%rsp), %rbp	# home LDA
	mov	32(%rsp), %r12	# home X
	mov	%r13, %r9
	mov	$0, %r8
	jmp	.LBL0
.LBL1:
	mov	%r8, %rax
	imul	%rbp, %rax
	mov	%rbx, %rdi
	vxorpd	%xmm24, %xmm24, %xmm24
	vxorpd	%zmm25, %zmm25, %zmm25
	vxorpd	%zmm26, %zmm26, %zmm26
	vxorpd	%zmm27, %zmm27, %zmm27
	vxorpd	%zmm28, %zmm28, %zmm28
	lea	(%rdi,%rax,8), %rdi
	mov	%r12, %rsi
	mov	$0, %rdx
	jmp	.LBL2
.LBL3:
	prefetcht0	1024(%rdi)
	# --- mmUnrolledCOMP ---
	vmovupd	(%rdi), %zmm0	# Vld ptr_A0[0..]
	vmovupd	(%rsi), %zmm8	# Vld ptr_X0[0..]
	vmovupd	64(%rdi), %zmm1	# Vld ptr_A0[8..]
	vmovupd	64(%rsi), %zmm9	# Vld ptr_X0[8..]
	vmovupd	128(%rdi), %zmm2	# Vld ptr_A0[16..]
	vmovupd	128(%rsi), %zmm10	# Vld ptr_X0[16..]
	vmovupd	192(%rdi), %zmm3	# Vld ptr_A0[24..]
	vmovupd	192(%rsi), %zmm11	# Vld ptr_X0[24..]
	vfmadd231pd	%zmm0, %zmm8, %zmm25
	vfmadd231pd	%zmm1, %zmm9, %zmm26
	vfmadd231pd	%zmm2, %zmm10, %zmm27
	vfmadd231pd	%zmm3, %zmm11, %zmm28
	add	$256, %rdi	# ptr_A0 += 32
	add	$256, %rsi	# ptr_X0 += 32
	add	$32, %rdx
.LBL2:
	cmp	%rcx, %rdx
	jl	.LBL3
	# --- sumREDUCE ---
	vextractf64x4	$1, %zmm25, %ymm29	# hsum(res_s0+res_s1+res_s2+res_s3+res_s4+res_s5+res_s6+res_s7)
	vaddpd	%ymm29, %ymm25, %ymm25
	vextractf64x2	$1, %ymm25, %xmm29
	vaddpd	%xmm29, %xmm25, %xmm25
	vextractf64x4	$1, %zmm26, %ymm30	# hsum(res_s8+res_s9+res_s10+res_s11+res_s12+res_s13+res_s14+res_s15)
	vunpckhpd	%xmm25, %xmm25, %xmm29
	vaddsd	%xmm29, %xmm25, %xmm25
	vaddpd	%ymm30, %ymm26, %ymm26
	vextractf64x4	$1, %zmm27, %ymm31	# hsum(res_s16+res_s17+res_s18+res_s19+res_s20+res_s21+res_s22+res_s23)
	vextractf64x2	$1, %ymm26, %xmm30
	vaddpd	%ymm31, %ymm27, %ymm27
	vextractf64x4	$1, %zmm28, %ymm29	# hsum(res_s24+res_s25+res_s26+res_s27+res_s28+res_s29+res_s30+res_s31)
	vaddpd	%xmm30, %xmm26, %xmm26
	vextractf64x2	$1, %ymm27, %xmm31
	vaddpd	%ymm29, %ymm28, %ymm28
	vunpckhpd	%xmm26, %xmm26, %xmm30
	vaddpd	%xmm31, %xmm27, %xmm27
	vextractf64x2	$1, %ymm28, %xmm29
	vaddsd	%xmm25, %xmm24, %xmm24
	vaddsd	%xmm30, %xmm26, %xmm26
	vunpckhpd	%xmm27, %xmm27, %xmm31
	vaddpd	%xmm29, %xmm28, %xmm28
	vaddsd	%xmm26, %xmm24, %xmm24
	vaddsd	%xmm31, %xmm27, %xmm27
	vunpckhpd	%xmm28, %xmm28, %xmm29
	vaddsd	%xmm27, %xmm24, %xmm24
	vaddsd	%xmm29, %xmm28, %xmm28
	vaddsd	%xmm28, %xmm24, %xmm24
	# --- mmSTORE ---
	vmovsd	(%r9), %xmm16	# tmp96 = ptr_Y0[0]
	vaddsd	%xmm16, %xmm24, %xmm24
	vmovsd	%xmm24, (%r9)	# ptr_Y0[0] = res
	add	$8, %r9	# ptr_Y0 += 1
	add	$1, %r8
.LBL0:
	cmp	%r10, %r8
	jl	.LBL1
	add	$96, %rsp
	pop	%rbx
	pop	%rbp
	pop	%r13
	vzeroupper
	pop	%r12
	ret
	.size dgemv_n_kernel, .-dgemv_n_kernel
