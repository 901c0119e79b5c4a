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
	prefetcht0	1024(%rdi)
	# --- mvUnrolledSCALE ---
	vbroadcastsd	8(%rsp), %zmm16	# broadcast param alpha
	vmovupd	(%rdi), %zmm0	# Vld ptr_X0[0..7]
	vmulpd	%zmm16, %zmm0, %zmm0
	vmovupd	%zmm0, (%rdi)	# Vst ptr_X0[0..7]
	vmovupd	64(%rdi), %zmm1	# Vld ptr_X0[8..15]
	vmulpd	%zmm16, %zmm1, %zmm1
	vmovupd	%zmm1, 64(%rdi)	# Vst ptr_X0[8..15]
	vmovupd	128(%rdi), %zmm2	# Vld ptr_X0[16..23]
	vmulpd	%zmm16, %zmm2, %zmm2
	vmovupd	%zmm2, 128(%rdi)	# Vst ptr_X0[16..23]
	vmovupd	192(%rdi), %zmm3	# Vld ptr_X0[24..31]
	vmulpd	%zmm16, %zmm3, %zmm3
	vmovupd	%zmm3, 192(%rdi)	# Vst ptr_X0[24..31]
	add	$256, %rdi	# ptr_X0 += 32
	add	$32, %rsi
.LBL0:
	cmp	%rdx, %rsi
	jl	.LBL1
	vzeroupper
	add	$64, %rsp
	ret
	.size dscal_kernel, .-dscal_kernel
