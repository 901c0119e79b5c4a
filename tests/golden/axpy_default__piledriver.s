	.section .note.GNU-stack,"",@progbits
	.text
	.globl daxpy_kernel
	.type daxpy_kernel, @function
	.p2align 4
daxpy_kernel:
	sub	$80, %rsp
	mov	%rdi, (%rsp)	# arg N
	vmovsd	%xmm0, 8(%rsp)	# arg alpha
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
	prefetcht0	512(%rdi)
	prefetcht0	512(%rsi)
	# --- mvUnrolledCOMP ---
	vbroadcastsd	8(%rsp), %ymm10	# broadcast param alpha
	vmovupd	(%rsi), %ymm0	# Vld ptr_X0[0..3]
	vmovupd	(%rdi), %ymm5	# Vld ptr_Y0[0..3]
	vfmaddpd	%ymm5, %ymm10, %ymm0, %ymm5	# B += A*alpha
	vmovupd	%ymm5, (%rdi)	# Vst ptr_Y0[0..3]
	vmovupd	32(%rsi), %ymm1	# Vld ptr_X0[4..7]
	vmovupd	32(%rdi), %ymm6	# Vld ptr_Y0[4..7]
	vfmaddpd	%ymm6, %ymm10, %ymm1, %ymm6	# B += A*alpha
	vmovupd	%ymm6, 32(%rdi)	# Vst ptr_Y0[4..7]
	vmovupd	64(%rsi), %ymm2	# Vld ptr_X0[8..11]
	vmovupd	64(%rdi), %ymm7	# Vld ptr_Y0[8..11]
	vfmaddpd	%ymm7, %ymm10, %ymm2, %ymm7	# B += A*alpha
	vmovupd	%ymm7, 64(%rdi)	# Vst ptr_Y0[8..11]
	vmovupd	96(%rsi), %ymm3	# Vld ptr_X0[12..15]
	vmovupd	96(%rdi), %ymm8	# Vld ptr_Y0[12..15]
	vfmaddpd	%ymm8, %ymm10, %ymm3, %ymm8	# B += A*alpha
	vmovupd	%ymm8, 96(%rdi)	# Vst ptr_Y0[12..15]
	add	$128, %rdi	# ptr_Y0 += 16
	add	$128, %rsi	# ptr_X0 += 16
	add	$16, %rdx
.LBL0:
	cmp	%rcx, %rdx
	jl	.LBL1
	vzeroupper
	add	$80, %rsp
	ret
	.size daxpy_kernel, .-daxpy_kernel
