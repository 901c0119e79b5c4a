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
	mov	(%rsp), %r15	# home Mc
	mov	16(%rsp), %r14	# home Kc
	mov	$0, %rax
	mov	%rax, 56(%rsp)
	jmp	.LBL0
.LBL1:
	mov	56(%rsp), %rax
	imul	48(%rsp), %rax
	mov	40(%rsp), %r10
	lea	(%r10,%rax,8), %r10
	mov	56(%rsp), %rax
	imul	48(%rsp), %rax
	mov	40(%rsp), %rbx
	add	48(%rsp), %rax
	lea	(%rbx,%rax,8), %rbx
	mov	56(%rsp), %rax
	imul	48(%rsp), %rax
	mov	40(%rsp), %rbp
	mov	%rax, 72(%rsp)
	mov	$2, %rax
	imul	48(%rsp), %rax
	add	72(%rsp), %rax
	lea	(%rbp,%rax,8), %rbp
	mov	56(%rsp), %rax
	imul	48(%rsp), %rax
	mov	40(%rsp), %r12
	mov	%rax, 72(%rsp)
	mov	$3, %rax
	imul	48(%rsp), %rax
	add	72(%rsp), %rax
	lea	(%r12,%rax,8), %r12
	mov	$0, %rax
	mov	%rax, 64(%rsp)
	jmp	.LBL2
.LBL3:
	mov	24(%rsp), %rdi
	mov	64(%rsp), %rax
	lea	(%rdi,%rax,8), %rdi
	mov	56(%rsp), %rax
	imul	%r14, %rax
	mov	32(%rsp), %rdx
	lea	(%rdx,%rax,8), %rdx
	mov	56(%rsp), %rax
	imul	%r14, %rax
	mov	32(%rsp), %rcx
	add	%r14, %rax
	lea	(%rcx,%rax,8), %rcx
	mov	56(%rsp), %rax
	imul	%r14, %rax
	mov	32(%rsp), %r8
	mov	%rax, 72(%rsp)
	mov	$2, %rax
	imul	%r14, %rax
	add	72(%rsp), %rax
	lea	(%r8,%rax,8), %r8
	mov	56(%rsp), %rax
	imul	%r14, %rax
	mov	32(%rsp), %r9
	mov	%rax, 72(%rsp)
	mov	$3, %rax
	imul	%r14, %rax
	add	72(%rsp), %rax
	lea	(%r9,%rax,8), %r9
	mov	%r15, %rax
	mov	24(%rsp), %rsi
	add	64(%rsp), %rax
	vxorpd	%ymm8, %ymm8, %ymm8
	vxorpd	%ymm9, %ymm9, %ymm9
	vxorpd	%ymm10, %ymm10, %ymm10
	vxorpd	%ymm11, %ymm11, %ymm11
	vxorpd	%ymm12, %ymm12, %ymm12
	vxorpd	%ymm13, %ymm13, %ymm13
	vxorpd	%ymm14, %ymm14, %ymm14
	vxorpd	%ymm15, %ymm15, %ymm15
	vxorpd	%ymm0, %ymm0, %ymm0
	vxorpd	%ymm1, %ymm1, %ymm1
	vxorpd	%ymm2, %ymm2, %ymm2
	vxorpd	%ymm3, %ymm3, %ymm3
	lea	(%rsi,%rax,8), %rsi
	mov	$0, %r13
	jmp	.LBL4
.LBL5:
	# --- mmUnrolledCOMP ---
	vmovupd	(%rdi), %ymm4	# Vld ptr_A0[0..3]
	vmovupd	32(%rdi), %ymm5	# Vld ptr_A0[4..7]
	vmovupd	64(%rdi), %ymm6	# Vld ptr_A0[8..11]
	vbroadcastsd	(%rdx), %ymm7	# Vdup ptr_B0[0]
	vfmadd231pd	%ymm4, %ymm7, %ymm8	# acc(res_u0_u0..) += A*ptr_B0[0]
	vfmadd231pd	%ymm5, %ymm7, %ymm9	# acc(res_u0_u4..) += A*ptr_B0[0]
	vfmadd231pd	%ymm6, %ymm7, %ymm10	# acc(res_u0_u8..) += A*ptr_B0[0]
	vbroadcastsd	(%rcx), %ymm7	# Vdup ptr_B1[0]
	vfmadd231pd	%ymm4, %ymm7, %ymm11	# acc(res_u1_u0..) += A*ptr_B1[0]
	vfmadd231pd	%ymm5, %ymm7, %ymm12	# acc(res_u1_u4..) += A*ptr_B1[0]
	vfmadd231pd	%ymm6, %ymm7, %ymm13	# acc(res_u1_u8..) += A*ptr_B1[0]
	vbroadcastsd	(%r8), %ymm7	# Vdup ptr_B2[0]
	vfmadd231pd	%ymm4, %ymm7, %ymm14	# acc(res_u2_u0..) += A*ptr_B2[0]
	vfmadd231pd	%ymm5, %ymm7, %ymm15	# acc(res_u2_u4..) += A*ptr_B2[0]
	vfmadd231pd	%ymm6, %ymm7, %ymm0	# acc(res_u2_u8..) += A*ptr_B2[0]
	vbroadcastsd	(%r9), %ymm7	# Vdup ptr_B3[0]
	vfmadd231pd	%ymm4, %ymm7, %ymm1	# acc(res_u3_u0..) += A*ptr_B3[0]
	vfmadd231pd	%ymm5, %ymm7, %ymm2	# acc(res_u3_u4..) += A*ptr_B3[0]
	vfmadd231pd	%ymm6, %ymm7, %ymm3	# acc(res_u3_u8..) += A*ptr_B3[0]
	# --- mmUnrolledCOMP ---
	vmovupd	(%rsi), %ymm7	# Vld ptr_A1[0..3]
	vmovupd	32(%rsi), %ymm4	# Vld ptr_A1[4..7]
	vmovupd	64(%rsi), %ymm5	# Vld ptr_A1[8..11]
	vbroadcastsd	8(%rdx), %ymm6	# Vdup ptr_B0[1]
	vfmadd231pd	%ymm7, %ymm6, %ymm8	# acc(res_u0_u0..) += A*ptr_B0[1]
	vfmadd231pd	%ymm4, %ymm6, %ymm9	# acc(res_u0_u4..) += A*ptr_B0[1]
	vfmadd231pd	%ymm5, %ymm6, %ymm10	# acc(res_u0_u8..) += A*ptr_B0[1]
	vbroadcastsd	8(%rcx), %ymm6	# Vdup ptr_B1[1]
	vfmadd231pd	%ymm7, %ymm6, %ymm11	# acc(res_u1_u0..) += A*ptr_B1[1]
	vfmadd231pd	%ymm4, %ymm6, %ymm12	# acc(res_u1_u4..) += A*ptr_B1[1]
	vfmadd231pd	%ymm5, %ymm6, %ymm13	# acc(res_u1_u8..) += A*ptr_B1[1]
	vbroadcastsd	8(%r8), %ymm6	# Vdup ptr_B2[1]
	vfmadd231pd	%ymm7, %ymm6, %ymm14	# acc(res_u2_u0..) += A*ptr_B2[1]
	vfmadd231pd	%ymm4, %ymm6, %ymm15	# acc(res_u2_u4..) += A*ptr_B2[1]
	vfmadd231pd	%ymm5, %ymm6, %ymm0	# acc(res_u2_u8..) += A*ptr_B2[1]
	mov	%r15, %rax
	imul	$2, %rax
	vbroadcastsd	8(%r9), %ymm6	# Vdup ptr_B3[1]
	add	$16, %rdx	# ptr_B0 += 2
	add	$16, %rcx	# ptr_B1 += 2
	lea	(%rdi,%rax,8), %rdi	# ptr_A0 += ...
	add	$16, %r8	# ptr_B2 += 2
	vfmadd231pd	%ymm7, %ymm6, %ymm1	# acc(res_u3_u0..) += A*ptr_B3[1]
	vfmadd231pd	%ymm4, %ymm6, %ymm2	# acc(res_u3_u4..) += A*ptr_B3[1]
	vfmadd231pd	%ymm5, %ymm6, %ymm3	# acc(res_u3_u8..) += A*ptr_B3[1]
	add	$16, %r9	# ptr_B3 += 2
	mov	%r15, %rax
	imul	$2, %rax
	lea	(%rsi,%rax,8), %rsi	# ptr_A1 += ...
	add	$2, %r13
.LBL4:
	cmp	%r14, %r13
	jl	.LBL5
	# --- mmUnrolledSTORE ---
	vmovupd	(%r10), %ymm6	# Vld ptr_C0[0..3]
	vaddpd	%ymm8, %ymm6, %ymm6
	vmovupd	%ymm6, (%r10)	# Vst ptr_C0[0..3]
	vmovupd	32(%r10), %ymm7	# Vld ptr_C0[4..7]
	vaddpd	%ymm9, %ymm7, %ymm7
	vmovupd	%ymm7, 32(%r10)	# Vst ptr_C0[4..7]
	vmovupd	64(%r10), %ymm4	# Vld ptr_C0[8..11]
	vaddpd	%ymm10, %ymm4, %ymm4
	vmovupd	%ymm4, 64(%r10)	# Vst ptr_C0[8..11]
	# --- mmUnrolledSTORE ---
	vmovupd	(%rbx), %ymm5	# Vld ptr_C1[0..3]
	vaddpd	%ymm11, %ymm5, %ymm5
	vmovupd	%ymm5, (%rbx)	# Vst ptr_C1[0..3]
	vmovupd	32(%rbx), %ymm6	# Vld ptr_C1[4..7]
	vaddpd	%ymm12, %ymm6, %ymm6
	vmovupd	%ymm6, 32(%rbx)	# Vst ptr_C1[4..7]
	vmovupd	64(%rbx), %ymm7	# Vld ptr_C1[8..11]
	vaddpd	%ymm13, %ymm7, %ymm7
	vmovupd	%ymm7, 64(%rbx)	# Vst ptr_C1[8..11]
	# --- mmUnrolledSTORE ---
	vmovupd	(%rbp), %ymm4	# Vld ptr_C2[0..3]
	vaddpd	%ymm14, %ymm4, %ymm4
	vmovupd	%ymm4, (%rbp)	# Vst ptr_C2[0..3]
	vmovupd	32(%rbp), %ymm5	# Vld ptr_C2[4..7]
	vaddpd	%ymm15, %ymm5, %ymm5
	vmovupd	%ymm5, 32(%rbp)	# Vst ptr_C2[4..7]
	vmovupd	64(%rbp), %ymm6	# Vld ptr_C2[8..11]
	vaddpd	%ymm0, %ymm6, %ymm6
	vmovupd	%ymm6, 64(%rbp)	# Vst ptr_C2[8..11]
	# --- mmUnrolledSTORE ---
	vmovupd	(%r12), %ymm7	# Vld ptr_C3[0..3]
	vaddpd	%ymm1, %ymm7, %ymm7
	vmovupd	%ymm7, (%r12)	# Vst ptr_C3[0..3]
	vmovupd	32(%r12), %ymm4	# Vld ptr_C3[4..7]
	vaddpd	%ymm2, %ymm4, %ymm4
	vmovupd	%ymm4, 32(%r12)	# Vst ptr_C3[4..7]
	vmovupd	64(%r12), %ymm5	# Vld ptr_C3[8..11]
	vaddpd	%ymm3, %ymm5, %ymm5
	vmovupd	%ymm5, 64(%r12)	# Vst ptr_C3[8..11]
	add	$96, %r10	# ptr_C0 += 12
	add	$96, %rbx	# ptr_C1 += 12
	add	$96, %rbp	# ptr_C2 += 12
	add	$96, %r12	# ptr_C3 += 12
	addq	$12, 64(%rsp)
.LBL2:
	mov	64(%rsp), %r11	# reload i
	cmp	%r15, %r11
	jl	.LBL3
	addq	$4, 56(%rsp)
.LBL0:
	mov	56(%rsp), %r11	# reload j
	mov	8(%rsp), %rax
	cmp	%rax, %r11
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
