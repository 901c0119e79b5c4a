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
	vxorpd	%xmm10, %xmm10, %xmm10
	vxorpd	%ymm11, %ymm11, %ymm11
	vxorpd	%ymm12, %ymm12, %ymm12
	vxorpd	%ymm13, %ymm13, %ymm13
	vxorpd	%ymm14, %ymm14, %ymm14
	mov	%r8, %rdi
	mov	%r9, %rsi
	mov	$0, %rdx
	jmp	.LBL0
.LBL1:
	prefetcht0	512(%rdi)
	prefetcht0	512(%rsi)
	# --- mmUnrolledCOMP ---
	vmovupd	(%rdi), %ymm0	# Vld ptr_X0[0..]
	vmovupd	(%rsi), %ymm5	# Vld ptr_Y0[0..]
	vmovupd	32(%rdi), %ymm1	# Vld ptr_X0[4..]
	vmovupd	32(%rsi), %ymm6	# Vld ptr_Y0[4..]
	vmovupd	64(%rdi), %ymm2	# Vld ptr_X0[8..]
	vmovupd	64(%rsi), %ymm7	# Vld ptr_Y0[8..]
	vmovupd	96(%rdi), %ymm3	# Vld ptr_X0[12..]
	vmovupd	96(%rsi), %ymm8	# Vld ptr_Y0[12..]
	vfmadd231pd	%ymm0, %ymm5, %ymm11
	vfmadd231pd	%ymm1, %ymm6, %ymm12
	vfmadd231pd	%ymm2, %ymm7, %ymm13
	vfmadd231pd	%ymm3, %ymm8, %ymm14
	add	$128, %rdi	# ptr_X0 += 16
	add	$128, %rsi	# ptr_Y0 += 16
	add	$16, %rdx
.LBL0:
	cmp	%rcx, %rdx
	jl	.LBL1
	# --- sumREDUCE ---
	vextractf128	$1, %ymm11, %xmm15	# hsum(res_s0+res_s1+res_s2+res_s3)
	vaddpd	%xmm15, %xmm11, %xmm11
	vunpckhpd	%xmm11, %xmm11, %xmm15
	vaddsd	%xmm15, %xmm11, %xmm11
	vextractf128	$1, %ymm12, %xmm15	# hsum(res_s4+res_s5+res_s6+res_s7)
	vaddpd	%xmm15, %xmm12, %xmm12
	vaddsd	%xmm11, %xmm10, %xmm10
	vunpckhpd	%xmm12, %xmm12, %xmm15
	vaddsd	%xmm15, %xmm12, %xmm12
	vextractf128	$1, %ymm13, %xmm11	# hsum(res_s8+res_s9+res_s10+res_s11)
	vaddpd	%xmm11, %xmm13, %xmm13
	vextractf128	$1, %ymm14, %xmm15	# hsum(res_s12+res_s13+res_s14+res_s15)
	vunpckhpd	%xmm13, %xmm13, %xmm11
	vaddpd	%xmm15, %xmm14, %xmm14
	vaddsd	%xmm12, %xmm10, %xmm10
	vaddsd	%xmm11, %xmm13, %xmm13
	vunpckhpd	%xmm14, %xmm14, %xmm15
	vaddsd	%xmm13, %xmm10, %xmm10
	vaddsd	%xmm15, %xmm14, %xmm14
	vaddsd	%xmm14, %xmm10, %xmm10
	vmovapd	%xmm10, %xmm0
	vzeroupper
	add	$64, %rsp
	ret
	.size ddot_kernel, .-ddot_kernel
