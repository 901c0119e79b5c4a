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
	vxorpd	%xmm20, %xmm20, %xmm20
	vxorpd	%zmm21, %zmm21, %zmm21
	vxorpd	%zmm22, %zmm22, %zmm22
	vxorpd	%zmm23, %zmm23, %zmm23
	vxorpd	%zmm24, %zmm24, %zmm24
	mov	%r8, %rdi
	mov	%r9, %rsi
	mov	$0, %rdx
	jmp	.LBL0
.LBL1:
	prefetcht0	1024(%rdi)
	prefetcht0	1024(%rsi)
	# --- mmUnrolledCOMP ---
	vmovupd	(%rdi), %zmm0	# Vld ptr_X0[0..]
	vmovupd	(%rsi), %zmm10	# Vld ptr_Y0[0..]
	vmovupd	64(%rdi), %zmm1	# Vld ptr_X0[8..]
	vmovupd	64(%rsi), %zmm11	# Vld ptr_Y0[8..]
	vmovupd	128(%rdi), %zmm2	# Vld ptr_X0[16..]
	vmovupd	128(%rsi), %zmm12	# Vld ptr_Y0[16..]
	vmovupd	192(%rdi), %zmm3	# Vld ptr_X0[24..]
	vmovupd	192(%rsi), %zmm13	# Vld ptr_Y0[24..]
	vfmadd231pd	%zmm0, %zmm10, %zmm21
	vfmadd231pd	%zmm1, %zmm11, %zmm22
	vfmadd231pd	%zmm2, %zmm12, %zmm23
	vfmadd231pd	%zmm3, %zmm13, %zmm24
	add	$256, %rdi	# ptr_X0 += 32
	add	$256, %rsi	# ptr_Y0 += 32
	add	$32, %rdx
.LBL0:
	cmp	%rcx, %rdx
	jl	.LBL1
	# --- sumREDUCE ---
	vextractf64x4	$1, %zmm21, %ymm25	# hsum(res_s0+res_s1+res_s2+res_s3+res_s4+res_s5+res_s6+res_s7)
	vaddpd	%ymm25, %ymm21, %ymm21
	vextractf64x4	$1, %zmm22, %ymm26	# hsum(res_s8+res_s9+res_s10+res_s11+res_s12+res_s13+res_s14+res_s15)
	vextractf64x2	$1, %ymm21, %xmm25
	vaddpd	%ymm26, %ymm22, %ymm22
	vextractf64x4	$1, %zmm23, %ymm27	# hsum(res_s16+res_s17+res_s18+res_s19+res_s20+res_s21+res_s22+res_s23)
	vaddpd	%xmm25, %xmm21, %xmm21
	vextractf64x2	$1, %ymm22, %xmm26
	vaddpd	%ymm27, %ymm23, %ymm23
	vextractf64x4	$1, %zmm24, %ymm28	# hsum(res_s24+res_s25+res_s26+res_s27+res_s28+res_s29+res_s30+res_s31)
	vunpckhpd	%xmm21, %xmm21, %xmm25
	vaddpd	%xmm26, %xmm22, %xmm22
	vextractf64x2	$1, %ymm23, %xmm27
	vaddpd	%ymm28, %ymm24, %ymm24
	vaddsd	%xmm25, %xmm21, %xmm21
	vunpckhpd	%xmm22, %xmm22, %xmm26
	vaddpd	%xmm27, %xmm23, %xmm23
	vextractf64x2	$1, %ymm24, %xmm28
	vaddsd	%xmm21, %xmm20, %xmm20
	vaddsd	%xmm26, %xmm22, %xmm22
	vunpckhpd	%xmm23, %xmm23, %xmm27
	vaddpd	%xmm28, %xmm24, %xmm24
	vaddsd	%xmm22, %xmm20, %xmm20
	vaddsd	%xmm27, %xmm23, %xmm23
	vunpckhpd	%xmm24, %xmm24, %xmm28
	vaddsd	%xmm23, %xmm20, %xmm20
	vaddsd	%xmm28, %xmm24, %xmm24
	vaddsd	%xmm24, %xmm20, %xmm20
	vmovapd	%xmm20, %xmm0
	vzeroupper
	add	$64, %rsp
	ret
	.size ddot_kernel, .-ddot_kernel
