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
	vxorpd	%xmm12, %xmm12, %xmm12
	vxorpd	%ymm13, %ymm13, %ymm13
	vxorpd	%ymm14, %ymm14, %ymm14
	vxorpd	%ymm15, %ymm15, %ymm15
	vxorpd	%ymm0, %ymm0, %ymm0
	lea	(%rdi,%rax,8), %rdi
	mov	%r12, %rsi
	mov	$0, %rdx
	jmp	.LBL2
.LBL3:
	prefetcht0	512(%rdi)
	# --- mmUnrolledCOMP ---
	vmovupd	(%rdi), %ymm1	# Vld ptr_A0[0..]
	vmovupd	(%rsi), %ymm4	# Vld ptr_X0[0..]
	vfmaddpd	%ymm13, %ymm4, %ymm1, %ymm13
	vmovupd	32(%rdi), %ymm2	# Vld ptr_A0[4..]
	vmovupd	32(%rsi), %ymm5	# Vld ptr_X0[4..]
	vmovupd	64(%rdi), %ymm3	# Vld ptr_A0[8..]
	vmovupd	64(%rsi), %ymm6	# Vld ptr_X0[8..]
	vmovupd	96(%rdi), %ymm1	# Vld ptr_A0[12..]
	vmovupd	96(%rsi), %ymm7	# Vld ptr_X0[12..]
	vfmaddpd	%ymm14, %ymm5, %ymm2, %ymm14
	vfmaddpd	%ymm15, %ymm6, %ymm3, %ymm15
	vfmaddpd	%ymm0, %ymm7, %ymm1, %ymm0
	add	$128, %rdi	# ptr_A0 += 16
	add	$128, %rsi	# ptr_X0 += 16
	add	$16, %rdx
.LBL2:
	cmp	%rcx, %rdx
	jl	.LBL3
	# --- sumREDUCE ---
	vextractf128	$1, %ymm13, %xmm2	# hsum(res_s0+res_s1+res_s2+res_s3)
	vaddpd	%xmm2, %xmm13, %xmm13
	vunpckhpd	%xmm13, %xmm13, %xmm2
	vaddsd	%xmm2, %xmm13, %xmm13
	vaddsd	%xmm13, %xmm12, %xmm12
	vextractf128	$1, %ymm14, %xmm13	# hsum(res_s4+res_s5+res_s6+res_s7)
	vaddpd	%xmm13, %xmm14, %xmm14
	vunpckhpd	%xmm14, %xmm14, %xmm13
	vaddsd	%xmm13, %xmm14, %xmm14
	vaddsd	%xmm14, %xmm12, %xmm12
	vextractf128	$1, %ymm15, %xmm13	# hsum(res_s8+res_s9+res_s10+res_s11)
	vaddpd	%xmm13, %xmm15, %xmm15
	vextractf128	$1, %ymm0, %xmm14	# hsum(res_s12+res_s13+res_s14+res_s15)
	vunpckhpd	%xmm15, %xmm15, %xmm13
	vaddpd	%xmm14, %xmm0, %xmm0
	vaddsd	%xmm13, %xmm15, %xmm15
	vunpckhpd	%xmm0, %xmm0, %xmm14
	vaddsd	%xmm15, %xmm12, %xmm12
	vaddsd	%xmm14, %xmm0, %xmm0
	vaddsd	%xmm0, %xmm12, %xmm12
	# --- mmSTORE ---
	vmovsd	(%r9), %xmm8	# tmp48 = ptr_Y0[0]
	vaddsd	%xmm8, %xmm12, %xmm12
	vmovsd	%xmm12, (%r9)	# ptr_Y0[0] = res
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
