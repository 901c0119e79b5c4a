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
	xorpd	%xmm12, %xmm12
	xorpd	%xmm13, %xmm13
	xorpd	%xmm14, %xmm14
	xorpd	%xmm15, %xmm15
	xorpd	%xmm0, %xmm0
	lea	(%rdi,%rax,8), %rdi
	mov	%r12, %rsi
	mov	$0, %rdx
	jmp	.LBL2
.LBL3:
	prefetcht0	256(%rdi)
	# --- mmUnrolledCOMP ---
	movupd	(%rdi), %xmm1	# Vld ptr_A0[0..]
	movupd	(%rsi), %xmm4	# Vld ptr_X0[0..]
	movapd	%xmm1, %xmm2
	mulpd	%xmm4, %xmm2
	addpd	%xmm2, %xmm13
	movupd	16(%rdi), %xmm3	# Vld ptr_A0[2..]
	movupd	16(%rsi), %xmm5	# Vld ptr_X0[2..]
	movapd	%xmm3, %xmm2
	mulpd	%xmm5, %xmm2
	addpd	%xmm2, %xmm14
	movupd	32(%rdi), %xmm1	# Vld ptr_A0[4..]
	movupd	32(%rsi), %xmm6	# Vld ptr_X0[4..]
	movapd	%xmm1, %xmm2
	mulpd	%xmm6, %xmm2
	addpd	%xmm2, %xmm15
	movupd	48(%rdi), %xmm3	# Vld ptr_A0[6..]
	movupd	48(%rsi), %xmm7	# Vld ptr_X0[6..]
	movapd	%xmm3, %xmm2
	mulpd	%xmm7, %xmm2
	addpd	%xmm2, %xmm0
	add	$64, %rdi	# ptr_A0 += 8
	add	$64, %rsi	# ptr_X0 += 8
	add	$8, %rdx
.LBL2:
	cmp	%rcx, %rdx
	jl	.LBL3
	# --- sumREDUCE ---
	movapd	%xmm13, %xmm1	# hsum(res_s0+res_s1)
	unpckhpd	%xmm1, %xmm1
	addsd	%xmm1, %xmm13
	addsd	%xmm13, %xmm12
	movapd	%xmm14, %xmm13	# hsum(res_s2+res_s3)
	unpckhpd	%xmm13, %xmm13
	addsd	%xmm13, %xmm14
	addsd	%xmm14, %xmm12
	movapd	%xmm15, %xmm13	# hsum(res_s4+res_s5)
	unpckhpd	%xmm13, %xmm13
	movapd	%xmm0, %xmm14	# hsum(res_s6+res_s7)
	addsd	%xmm13, %xmm15
	unpckhpd	%xmm14, %xmm14
	addsd	%xmm15, %xmm12
	addsd	%xmm14, %xmm0
	addsd	%xmm0, %xmm12
	# --- mmSTORE ---
	movsd	(%r9), %xmm8	# tmp24 = ptr_Y0[0]
	addsd	%xmm8, %xmm12
	movsd	%xmm12, (%r9)	# ptr_Y0[0] = res
	add	$8, %r9	# ptr_Y0 += 1
	add	$1, %r8
.LBL0:
	cmp	%r10, %r8
	jl	.LBL1
	add	$96, %rsp
	pop	%rbx
	pop	%rbp
	pop	%r13
	pop	%r12
	ret
	.size dgemv_n_kernel, .-dgemv_n_kernel
