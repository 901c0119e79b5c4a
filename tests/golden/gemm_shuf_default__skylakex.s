	.section .note.GNU-stack,"",@progbits
	.text
	.globl dgemm_kernel
	.type dgemm_kernel, @function
	.p2align 4
dgemm_kernel:
	push	%r12
	push	%r13
	push	%r14
	push	%r15
	push	%rbp
	push	%rbx
	sub	$112, %rsp
	mov	%rdi, (%rsp)	# arg Mc
	mov	%rsi, 8(%rsp)	# arg Nc
	mov	%rdx, 16(%rsp)	# arg Kc
	mov	%rcx, 24(%rsp)	# arg A
	mov	%r8, 32(%rsp)	# arg B
	mov	%r9, 40(%rsp)	# arg C
	mov	168(%rsp), %rax	# stack arg LDC
	mov	%rax, 48(%rsp)
	mov	(%rsp), %r14	# home Mc
	mov	8(%rsp), %r15	# home Nc
	mov	$0, %rax
	mov	%rax, 64(%rsp)
	jmp	.LBL0
.LBL1:
	mov	64(%rsp), %rax
	imul	48(%rsp), %rax
	mov	40(%rsp), %rdx
	lea	(%rdx,%rax,8), %rdx
	mov	64(%rsp), %rax
	imul	48(%rsp), %rax
	mov	40(%rsp), %rcx
	add	48(%rsp), %rax
	lea	(%rcx,%rax,8), %rcx
	mov	64(%rsp), %rax
	imul	48(%rsp), %rax
	mov	40(%rsp), %r8
	mov	%rax, 72(%rsp)
	mov	$2, %rax
	imul	48(%rsp), %rax
	add	72(%rsp), %rax
	lea	(%r8,%rax,8), %r8
	mov	64(%rsp), %rax
	imul	48(%rsp), %rax
	mov	40(%rsp), %r9
	mov	%rax, 72(%rsp)
	mov	$3, %rax
	imul	48(%rsp), %rax
	add	72(%rsp), %rax
	lea	(%r9,%rax,8), %r9
	mov	64(%rsp), %rax
	imul	48(%rsp), %rax
	mov	40(%rsp), %r10
	mov	%rax, 72(%rsp)
	mov	$4, %rax
	imul	48(%rsp), %rax
	add	72(%rsp), %rax
	lea	(%r10,%rax,8), %r10
	mov	64(%rsp), %rax
	imul	48(%rsp), %rax
	mov	40(%rsp), %rbx
	mov	%rax, 72(%rsp)
	mov	$5, %rax
	imul	48(%rsp), %rax
	add	72(%rsp), %rax
	lea	(%rbx,%rax,8), %rbx
	mov	64(%rsp), %rax
	imul	48(%rsp), %rax
	mov	40(%rsp), %rbp
	mov	%rax, 72(%rsp)
	mov	$6, %rax
	imul	48(%rsp), %rax
	add	72(%rsp), %rax
	lea	(%rbp,%rax,8), %rbp
	mov	64(%rsp), %rax
	imul	48(%rsp), %rax
	mov	40(%rsp), %r12
	mov	%rax, 72(%rsp)
	mov	$7, %rax
	imul	48(%rsp), %rax
	add	72(%rsp), %rax
	lea	(%r12,%rax,8), %r12
	mov	$0, %rax
	mov	%rax, 56(%rsp)
	jmp	.LBL2
.LBL3:
	mov	24(%rsp), %rdi
	mov	56(%rsp), %rax
	lea	(%rdi,%rax,8), %rdi
	mov	32(%rsp), %rsi
	mov	64(%rsp), %rax
	vxorpd	%zmm16, %zmm16, %zmm16
	vxorpd	%zmm17, %zmm17, %zmm17
	vxorpd	%zmm18, %zmm18, %zmm18
	vxorpd	%zmm19, %zmm19, %zmm19
	vxorpd	%zmm20, %zmm20, %zmm20
	vxorpd	%zmm21, %zmm21, %zmm21
	vxorpd	%zmm22, %zmm22, %zmm22
	vxorpd	%zmm23, %zmm23, %zmm23
	lea	(%rsi,%rax,8), %rsi
	mov	$0, %r13
	jmp	.LBL4
.LBL5:
	prefetcht0	512(%rdi)
	prefetcht0	512(%rsi)
	# --- mmUnrolledCOMP ---
	vmovupd	(%rdi), %zmm0	# Vld ptr_A0[0..7]
	vbroadcastsd	(%rsi), %zmm8	# Vdup ptr_B0[0]
	vbroadcastsd	8(%rsi), %zmm9	# Vdup ptr_B0[1]
	vbroadcastsd	16(%rsi), %zmm10	# Vdup ptr_B0[2]
	vbroadcastsd	24(%rsi), %zmm11	# Vdup ptr_B0[3]
	vbroadcastsd	32(%rsi), %zmm12	# Vdup ptr_B0[4]
	vbroadcastsd	40(%rsi), %zmm13	# Vdup ptr_B0[5]
	vbroadcastsd	48(%rsi), %zmm14	# Vdup ptr_B0[6]
	vbroadcastsd	56(%rsi), %zmm15	# Vdup ptr_B0[7]
	vfmadd231pd	%zmm0, %zmm8, %zmm16	# acc(res_u0_u0..) += A*ptr_B0[0]
	vfmadd231pd	%zmm0, %zmm9, %zmm17	# acc(res_u1_u0..) += A*ptr_B0[1]
	vfmadd231pd	%zmm0, %zmm10, %zmm18	# acc(res_u2_u0..) += A*ptr_B0[2]
	vfmadd231pd	%zmm0, %zmm11, %zmm19	# acc(res_u3_u0..) += A*ptr_B0[3]
	vfmadd231pd	%zmm0, %zmm12, %zmm20	# acc(res_u4_u0..) += A*ptr_B0[4]
	vfmadd231pd	%zmm0, %zmm13, %zmm21	# acc(res_u5_u0..) += A*ptr_B0[5]
	vfmadd231pd	%zmm0, %zmm14, %zmm22	# acc(res_u6_u0..) += A*ptr_B0[6]
	vfmadd231pd	%zmm0, %zmm15, %zmm23	# acc(res_u7_u0..) += A*ptr_B0[7]
	mov	%r14, %rax
	lea	(%rdi,%rax,8), %rdi	# ptr_A0 += ...
	mov	%r15, %rax
	lea	(%rsi,%rax,8), %rsi	# ptr_B0 += ...
	add	$1, %r13
.LBL4:
	mov	16(%rsp), %rax
	cmp	%rax, %r13
	jl	.LBL5
	# --- mmUnrolledSTORE ---
	vmovupd	(%rdx), %zmm24	# Vld ptr_C0[0..7]
	vaddpd	%zmm16, %zmm24, %zmm24
	vmovupd	%zmm24, (%rdx)	# Vst ptr_C0[0..7]
	# --- mmUnrolledSTORE ---
	vmovupd	(%rcx), %zmm25	# Vld ptr_C1[0..7]
	vaddpd	%zmm17, %zmm25, %zmm25
	vmovupd	%zmm25, (%rcx)	# Vst ptr_C1[0..7]
	# --- mmUnrolledSTORE ---
	vmovupd	(%r8), %zmm26	# Vld ptr_C2[0..7]
	vaddpd	%zmm18, %zmm26, %zmm26
	vmovupd	%zmm26, (%r8)	# Vst ptr_C2[0..7]
	# --- mmUnrolledSTORE ---
	vmovupd	(%r9), %zmm27	# Vld ptr_C3[0..7]
	vaddpd	%zmm19, %zmm27, %zmm27
	vmovupd	%zmm27, (%r9)	# Vst ptr_C3[0..7]
	# --- mmUnrolledSTORE ---
	vmovupd	(%r10), %zmm28	# Vld ptr_C4[0..7]
	vaddpd	%zmm20, %zmm28, %zmm28
	vmovupd	%zmm28, (%r10)	# Vst ptr_C4[0..7]
	# --- mmUnrolledSTORE ---
	vmovupd	(%rbx), %zmm29	# Vld ptr_C5[0..7]
	vaddpd	%zmm21, %zmm29, %zmm29
	vmovupd	%zmm29, (%rbx)	# Vst ptr_C5[0..7]
	# --- mmUnrolledSTORE ---
	vmovupd	(%rbp), %zmm30	# Vld ptr_C6[0..7]
	vaddpd	%zmm22, %zmm30, %zmm30
	vmovupd	%zmm30, (%rbp)	# Vst ptr_C6[0..7]
	# --- mmUnrolledSTORE ---
	vmovupd	(%r12), %zmm31	# Vld ptr_C7[0..7]
	add	$64, %rdx	# ptr_C0 += 8
	vaddpd	%zmm23, %zmm31, %zmm31
	add	$64, %rcx	# ptr_C1 += 8
	add	$64, %r8	# ptr_C2 += 8
	add	$64, %r9	# ptr_C3 += 8
	vmovupd	%zmm31, (%r12)	# Vst ptr_C7[0..7]
	add	$64, %r10	# ptr_C4 += 8
	add	$64, %rbx	# ptr_C5 += 8
	add	$64, %rbp	# ptr_C6 += 8
	add	$64, %r12	# ptr_C7 += 8
	addq	$8, 56(%rsp)
.LBL2:
	mov	56(%rsp), %r11	# reload i
	cmp	%r14, %r11
	jl	.LBL3
	addq	$8, 64(%rsp)
.LBL0:
	mov	64(%rsp), %r11	# reload j
	cmp	%r15, %r11
	jl	.LBL1
	add	$112, %rsp
	pop	%rbx
	pop	%rbp
	pop	%r15
	pop	%r14
	pop	%r13
	vzeroupper
	pop	%r12
	ret
	.size dgemm_kernel, .-dgemm_kernel
