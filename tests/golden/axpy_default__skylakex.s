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
	prefetcht0	1024(%rdi)
	prefetcht0	1024(%rsi)
	# --- mvUnrolledCOMP ---
	vbroadcastsd	8(%rsp), %zmm20	# broadcast param alpha
	vmovupd	(%rsi), %zmm0	# Vld ptr_X0[0..7]
	vmovupd	(%rdi), %zmm10	# Vld ptr_Y0[0..7]
	vfmadd231pd	%zmm0, %zmm20, %zmm10	# B += A*alpha
	vmovupd	%zmm10, (%rdi)	# Vst ptr_Y0[0..7]
	vmovupd	64(%rsi), %zmm1	# Vld ptr_X0[8..15]
	vmovupd	64(%rdi), %zmm11	# Vld ptr_Y0[8..15]
	vfmadd231pd	%zmm1, %zmm20, %zmm11	# B += A*alpha
	vmovupd	%zmm11, 64(%rdi)	# Vst ptr_Y0[8..15]
	vmovupd	128(%rsi), %zmm2	# Vld ptr_X0[16..23]
	vmovupd	128(%rdi), %zmm12	# Vld ptr_Y0[16..23]
	vfmadd231pd	%zmm2, %zmm20, %zmm12	# B += A*alpha
	vmovupd	%zmm12, 128(%rdi)	# Vst ptr_Y0[16..23]
	vmovupd	192(%rsi), %zmm3	# Vld ptr_X0[24..31]
	vmovupd	192(%rdi), %zmm13	# Vld ptr_Y0[24..31]
	vfmadd231pd	%zmm3, %zmm20, %zmm13	# B += A*alpha
	vmovupd	%zmm13, 192(%rdi)	# Vst ptr_Y0[24..31]
	add	$256, %rdi	# ptr_Y0 += 32
	add	$256, %rsi	# ptr_X0 += 32
	add	$32, %rdx
.LBL0:
	cmp	%rcx, %rdx
	jl	.LBL1
	vzeroupper
	add	$80, %rsp
	ret
	.size daxpy_kernel, .-daxpy_kernel
