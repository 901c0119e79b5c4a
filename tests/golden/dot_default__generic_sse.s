	.section .note.GNU-stack,"",@progbits
	.text
	.globl ddot_kernel
	.type ddot_kernel, @function
	.p2align 4
ddot_kernel:
	sub	$64, %rsp
	mov	%rdi, (%rsp)	# arg N
	mov	%rsi, 8(%rsp)	# arg X
	mov	%rdx, 16(%rsp)	# arg Y
	mov	8(%rsp), %r8	# home X
	mov	16(%rsp), %r9	# home Y
	mov	(%rsp), %rcx	# home N
	xorpd	%xmm10, %xmm10
	xorpd	%xmm11, %xmm11
	xorpd	%xmm12, %xmm12
	xorpd	%xmm13, %xmm13
	xorpd	%xmm14, %xmm14
	mov	%r8, %rdi
	mov	%r9, %rsi
	mov	$0, %rdx
	jmp	.LBL0
.LBL1:
	prefetcht0	256(%rdi)
	prefetcht0	256(%rsi)
	# --- mmUnrolledCOMP ---
	movupd	(%rdi), %xmm0	# Vld ptr_X0[0..]
	movupd	(%rsi), %xmm5	# Vld ptr_Y0[0..]
	movapd	%xmm0, %xmm15
	mulpd	%xmm5, %xmm15
	addpd	%xmm15, %xmm11
	movupd	16(%rdi), %xmm1	# Vld ptr_X0[2..]
	movupd	16(%rsi), %xmm6	# Vld ptr_Y0[2..]
	movapd	%xmm1, %xmm15
	mulpd	%xmm6, %xmm15
	addpd	%xmm15, %xmm12
	movupd	32(%rdi), %xmm2	# Vld ptr_X0[4..]
	movupd	32(%rsi), %xmm7	# Vld ptr_Y0[4..]
	movapd	%xmm2, %xmm15
	mulpd	%xmm7, %xmm15
	addpd	%xmm15, %xmm13
	movupd	48(%rdi), %xmm3	# Vld ptr_X0[6..]
	movupd	48(%rsi), %xmm8	# Vld ptr_Y0[6..]
	movapd	%xmm3, %xmm15
	mulpd	%xmm8, %xmm15
	addpd	%xmm15, %xmm14
	add	$64, %rdi	# ptr_X0 += 8
	add	$64, %rsi	# ptr_Y0 += 8
	add	$8, %rdx
.LBL0:
	cmp	%rcx, %rdx
	jl	.LBL1
	# --- sumREDUCE ---
	movapd	%xmm11, %xmm15	# hsum(res_s0+res_s1)
	unpckhpd	%xmm15, %xmm15
	addsd	%xmm15, %xmm11
	movapd	%xmm12, %xmm15	# hsum(res_s2+res_s3)
	addsd	%xmm11, %xmm10
	unpckhpd	%xmm15, %xmm15
	addsd	%xmm15, %xmm12
	movapd	%xmm13, %xmm11	# hsum(res_s4+res_s5)
	unpckhpd	%xmm11, %xmm11
	movapd	%xmm14, %xmm15	# hsum(res_s6+res_s7)
	addsd	%xmm12, %xmm10
	addsd	%xmm11, %xmm13
	unpckhpd	%xmm15, %xmm15
	addsd	%xmm13, %xmm10
	addsd	%xmm15, %xmm14
	addsd	%xmm14, %xmm10
	movapd	%xmm10, %xmm0
	add	$64, %rsp
	ret
	.size ddot_kernel, .-ddot_kernel
