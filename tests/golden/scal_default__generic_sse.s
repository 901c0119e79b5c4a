	.section .note.GNU-stack,"",@progbits
	.text
	.globl dscal_kernel
	.type dscal_kernel, @function
	.p2align 4
dscal_kernel:
	sub	$64, %rsp
	mov	%rdi, (%rsp)	# arg N
	movsd	%xmm0, 8(%rsp)	# arg alpha
	mov	%rsi, 16(%rsp)	# arg X
	mov	16(%rsp), %rcx	# home X
	mov	(%rsp), %rdx	# home N
	mov	%rcx, %rdi
	mov	$0, %rsi
	jmp	.LBL0
.LBL1:
	prefetcht0	256(%rdi)
	# --- mvUnrolledSCALE ---
	movddup	8(%rsp), %xmm8	# broadcast param alpha
	movupd	(%rdi), %xmm0	# Vld ptr_X0[0..1]
	mulpd	%xmm8, %xmm0
	movupd	%xmm0, (%rdi)	# Vst ptr_X0[0..1]
	movupd	16(%rdi), %xmm1	# Vld ptr_X0[2..3]
	mulpd	%xmm8, %xmm1
	movupd	%xmm1, 16(%rdi)	# Vst ptr_X0[2..3]
	movupd	32(%rdi), %xmm2	# Vld ptr_X0[4..5]
	mulpd	%xmm8, %xmm2
	movupd	%xmm2, 32(%rdi)	# Vst ptr_X0[4..5]
	movupd	48(%rdi), %xmm3	# Vld ptr_X0[6..7]
	mulpd	%xmm8, %xmm3
	movupd	%xmm3, 48(%rdi)	# Vst ptr_X0[6..7]
	add	$64, %rdi	# ptr_X0 += 8
	add	$8, %rsi
.LBL0:
	cmp	%rdx, %rsi
	jl	.LBL1
	add	$64, %rsp
	ret
	.size dscal_kernel, .-dscal_kernel
