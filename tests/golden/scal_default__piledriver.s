	.section .note.GNU-stack,"",@progbits
	.text
	.globl dscal_kernel
	.type dscal_kernel, @function
	.p2align 4
dscal_kernel:
	sub	$64, %rsp
	mov	%rdi, (%rsp)	# arg N
	vmovsd	%xmm0, 8(%rsp)	# arg alpha
	mov	%rsi, 16(%rsp)	# arg X
	mov	16(%rsp), %rcx	# home X
	mov	(%rsp), %rdx	# home N
	mov	%rcx, %rdi
	mov	$0, %rsi
	jmp	.LBL0
.LBL1:
	prefetcht0	512(%rdi)
	# --- mvUnrolledSCALE ---
	vbroadcastsd	8(%rsp), %ymm8	# broadcast param alpha
	vmovupd	(%rdi), %ymm0	# Vld ptr_X0[0..3]
	vmulpd	%ymm8, %ymm0, %ymm0
	vmovupd	%ymm0, (%rdi)	# Vst ptr_X0[0..3]
	vmovupd	32(%rdi), %ymm1	# Vld ptr_X0[4..7]
	vmulpd	%ymm8, %ymm1, %ymm1
	vmovupd	%ymm1, 32(%rdi)	# Vst ptr_X0[4..7]
	vmovupd	64(%rdi), %ymm2	# Vld ptr_X0[8..11]
	vmulpd	%ymm8, %ymm2, %ymm2
	vmovupd	%ymm2, 64(%rdi)	# Vst ptr_X0[8..11]
	vmovupd	96(%rdi), %ymm3	# Vld ptr_X0[12..15]
	vmulpd	%ymm8, %ymm3, %ymm3
	vmovupd	%ymm3, 96(%rdi)	# Vst ptr_X0[12..15]
	add	$128, %rdi	# ptr_X0 += 16
	add	$16, %rsi
.LBL0:
	cmp	%rdx, %rsi
	jl	.LBL1
	vzeroupper
	add	$64, %rsp
	ret
	.size dscal_kernel, .-dscal_kernel
