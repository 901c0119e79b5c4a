	.section .note.GNU-stack,"",@progbits
	.text
	.globl daxpy_kernel
	.type daxpy_kernel, @function
	.p2align 4
daxpy_kernel:
	sub	$80, %rsp
	mov	%rdi, (%rsp)	# arg N
	movsd	%xmm0, 8(%rsp)	# arg alpha
	mov	%rsi, 16(%rsp)	# arg X
	mov	%rdx, 24(%rsp)	# arg Y
	mov	16(%rsp), %r8	# home X
	mov	24(%rsp), %r9	# home Y
	mov	(%rsp), %rcx	# home N
	mov	%r9, %rdi
	mov	%r8, %rsi
	mov	$0, %rdx
	jmp	.LBL0
.LBL1:
	prefetcht0	256(%rdi)
	prefetcht0	256(%rsi)
	# --- mvUnrolledCOMP ---
	movupd	(%rsi), %xmm0	# Vld ptr_X0[0..1]
	movddup	8(%rsp), %xmm10	# broadcast param alpha
	movapd	%xmm0, %xmm11	# B += A*alpha
	mulpd	%xmm10, %xmm11
	movupd	(%rdi), %xmm5	# Vld ptr_Y0[0..1]
	addpd	%xmm11, %xmm5
	movupd	%xmm5, (%rdi)	# Vst ptr_Y0[0..1]
	movupd	16(%rsi), %xmm1	# Vld ptr_X0[2..3]
	movapd	%xmm1, %xmm12	# B += A*alpha
	mulpd	%xmm10, %xmm12
	movupd	16(%rdi), %xmm6	# Vld ptr_Y0[2..3]
	addpd	%xmm12, %xmm6
	movupd	%xmm6, 16(%rdi)	# Vst ptr_Y0[2..3]
	movupd	32(%rsi), %xmm2	# Vld ptr_X0[4..5]
	movapd	%xmm2, %xmm13	# B += A*alpha
	mulpd	%xmm10, %xmm13
	movupd	32(%rdi), %xmm7	# Vld ptr_Y0[4..5]
	addpd	%xmm13, %xmm7
	movupd	%xmm7, 32(%rdi)	# Vst ptr_Y0[4..5]
	movupd	48(%rsi), %xmm3	# Vld ptr_X0[6..7]
	movapd	%xmm3, %xmm14	# B += A*alpha
	mulpd	%xmm10, %xmm14
	movupd	48(%rdi), %xmm8	# Vld ptr_Y0[6..7]
	addpd	%xmm14, %xmm8
	movupd	%xmm8, 48(%rdi)	# Vst ptr_Y0[6..7]
	add	$64, %rdi	# ptr_Y0 += 8
	add	$64, %rsi	# ptr_X0 += 8
	add	$8, %rdx
.LBL0:
	cmp	%rcx, %rdx
	jl	.LBL1
	add	$80, %rsp
	ret
	.size daxpy_kernel, .-daxpy_kernel
