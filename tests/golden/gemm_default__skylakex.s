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
	sub	$160, %rsp
	mov	%rdi, (%rsp)	# arg Mc
	mov	%rsi, 8(%rsp)	# arg Nc
	mov	%rdx, 16(%rsp)	# arg Kc
	mov	%rcx, 24(%rsp)	# arg A
	mov	%r8, 32(%rsp)	# arg B
	mov	%r9, 40(%rsp)	# arg C
	mov	216(%rsp), %rax	# stack arg LDC
	mov	%rax, 48(%rsp)
	mov	$0, %rax
	mov	%rax, 104(%rsp)
	jmp	.LBL0
.LBL1:
	mov	104(%rsp), %rax
	imul	48(%rsp), %rax
	mov	40(%rsp), %r13
	lea	(%r13,%rax,8), %r13
	mov	104(%rsp), %rax
	imul	48(%rsp), %rax
	mov	40(%rsp), %r14
	add	48(%rsp), %rax
	lea	(%r14,%rax,8), %r14
	mov	104(%rsp), %rax
	imul	48(%rsp), %rax
	mov	40(%rsp), %r15
	mov	%rax, 120(%rsp)
	mov	$2, %rax
	imul	48(%rsp), %rax
	add	120(%rsp), %rax
	lea	(%r15,%rax,8), %r15
	mov	104(%rsp), %rax
	imul	48(%rsp), %rax
	mov	40(%rsp), %r11
	mov	%rax, 120(%rsp)
	mov	$3, %rax
	imul	48(%rsp), %rax
	add	120(%rsp), %rax
	lea	(%r11,%rax,8), %r11
	mov	%r11, 56(%rsp)
	mov	104(%rsp), %rax
	imul	48(%rsp), %rax
	mov	40(%rsp), %r11
	mov	%rax, 120(%rsp)
	mov	$4, %rax
	imul	48(%rsp), %rax
	add	120(%rsp), %rax
	lea	(%r11,%rax,8), %r11
	mov	%r11, 64(%rsp)
	mov	104(%rsp), %rax
	imul	48(%rsp), %rax
	mov	40(%rsp), %r11
	mov	%rax, 120(%rsp)
	mov	$5, %rax
	imul	48(%rsp), %rax
	add	120(%rsp), %rax
	lea	(%r11,%rax,8), %r11
	mov	%r11, 72(%rsp)
	mov	104(%rsp), %rax
	imul	48(%rsp), %rax
	mov	40(%rsp), %r11
	mov	%rax, 120(%rsp)
	mov	$6, %rax
	imul	48(%rsp), %rax
	add	120(%rsp), %rax
	lea	(%r11,%rax,8), %r11
	mov	%r11, 80(%rsp)
	mov	104(%rsp), %rax
	imul	48(%rsp), %rax
	mov	40(%rsp), %r11
	mov	%rax, 120(%rsp)
	mov	$7, %rax
	imul	48(%rsp), %rax
	add	120(%rsp), %rax
	lea	(%r11,%rax,8), %r11
	mov	%r11, 88(%rsp)
	mov	$0, %rax
	mov	%rax, 112(%rsp)
	jmp	.LBL2
.LBL3:
	mov	24(%rsp), %rdi
	mov	112(%rsp), %rax
	lea	(%rdi,%rax,8), %rdi
	mov	104(%rsp), %rax
	imul	16(%rsp), %rax
	mov	32(%rsp), %rdx
	lea	(%rdx,%rax,8), %rdx
	mov	104(%rsp), %rax
	imul	16(%rsp), %rax
	mov	32(%rsp), %rcx
	add	16(%rsp), %rax
	lea	(%rcx,%rax,8), %rcx
	mov	104(%rsp), %rax
	imul	16(%rsp), %rax
	mov	32(%rsp), %r8
	mov	%rax, 120(%rsp)
	mov	$2, %rax
	imul	16(%rsp), %rax
	add	120(%rsp), %rax
	lea	(%r8,%rax,8), %r8
	mov	104(%rsp), %rax
	imul	16(%rsp), %rax
	mov	32(%rsp), %r9
	mov	%rax, 120(%rsp)
	mov	$3, %rax
	imul	16(%rsp), %rax
	add	120(%rsp), %rax
	lea	(%r9,%rax,8), %r9
	mov	104(%rsp), %rax
	imul	16(%rsp), %rax
	mov	32(%rsp), %r10
	mov	%rax, 120(%rsp)
	mov	$4, %rax
	imul	16(%rsp), %rax
	add	120(%rsp), %rax
	lea	(%r10,%rax,8), %r10
	mov	104(%rsp), %rax
	imul	16(%rsp), %rax
	mov	32(%rsp), %rbx
	mov	%rax, 120(%rsp)
	mov	$5, %rax
	imul	16(%rsp), %rax
	add	120(%rsp), %rax
	lea	(%rbx,%rax,8), %rbx
	mov	104(%rsp), %rax
	imul	16(%rsp), %rax
	mov	32(%rsp), %rbp
	mov	%rax, 120(%rsp)
	mov	$6, %rax
	imul	16(%rsp), %rax
	add	120(%rsp), %rax
	lea	(%rbp,%rax,8), %rbp
	mov	104(%rsp), %rax
	imul	16(%rsp), %rax
	mov	32(%rsp), %r12
	mov	%rax, 120(%rsp)
	mov	$7, %rax
	imul	16(%rsp), %rax
	add	120(%rsp), %rax
	lea	(%r12,%rax,8), %r12
	mov	(%rsp), %rax
	mov	24(%rsp), %rsi
	add	112(%rsp), %rax
	lea	(%rsi,%rax,8), %rsi
	mov	$0, %rax
	vxorpd	%zmm16, %zmm16, %zmm16
	vxorpd	%zmm17, %zmm17, %zmm17
	vxorpd	%zmm18, %zmm18, %zmm18
	vxorpd	%zmm19, %zmm19, %zmm19
	vxorpd	%zmm20, %zmm20, %zmm20
	vxorpd	%zmm21, %zmm21, %zmm21
	vxorpd	%zmm22, %zmm22, %zmm22
	vxorpd	%zmm23, %zmm23, %zmm23
	vxorpd	%zmm24, %zmm24, %zmm24
	vxorpd	%zmm25, %zmm25, %zmm25
	vxorpd	%zmm26, %zmm26, %zmm26
	vxorpd	%zmm27, %zmm27, %zmm27
	vxorpd	%zmm28, %zmm28, %zmm28
	vxorpd	%zmm29, %zmm29, %zmm29
	vxorpd	%zmm30, %zmm30, %zmm30
	vxorpd	%zmm31, %zmm31, %zmm31
	vxorpd	%zmm0, %zmm0, %zmm0
	vxorpd	%zmm1, %zmm1, %zmm1
	vxorpd	%zmm2, %zmm2, %zmm2
	vxorpd	%zmm3, %zmm3, %zmm3
	vxorpd	%zmm4, %zmm4, %zmm4
	vxorpd	%zmm5, %zmm5, %zmm5
	vxorpd	%zmm6, %zmm6, %zmm6
	vxorpd	%zmm7, %zmm7, %zmm7
	mov	%rax, 96(%rsp)
	jmp	.LBL4
.LBL5:
	# --- mmUnrolledCOMP ---
	vmovupd	(%rdi), %zmm8	# Vld ptr_A0[0..7]
	vmovupd	64(%rdi), %zmm9	# Vld ptr_A0[8..15]
	vmovupd	128(%rdi), %zmm10	# Vld ptr_A0[16..23]
	vbroadcastsd	(%rdx), %zmm11	# Vdup ptr_B0[0]
	vbroadcastsd	(%rcx), %zmm12	# Vdup ptr_B1[0]
	vbroadcastsd	(%r8), %zmm13	# Vdup ptr_B2[0]
	vfmadd231pd	%zmm8, %zmm11, %zmm16	# acc(res_u0_u0..) += A*ptr_B0[0]
	vfmadd231pd	%zmm9, %zmm11, %zmm17	# acc(res_u0_u8..) += A*ptr_B0[0]
	vfmadd231pd	%zmm10, %zmm11, %zmm18	# acc(res_u0_u16..) += A*ptr_B0[0]
	vfmadd231pd	%zmm8, %zmm12, %zmm19	# acc(res_u1_u0..) += A*ptr_B1[0]
	vfmadd231pd	%zmm9, %zmm12, %zmm20	# acc(res_u1_u8..) += A*ptr_B1[0]
	vfmadd231pd	%zmm10, %zmm12, %zmm21	# acc(res_u1_u16..) += A*ptr_B1[0]
	vfmadd231pd	%zmm8, %zmm13, %zmm22	# acc(res_u2_u0..) += A*ptr_B2[0]
	vfmadd231pd	%zmm9, %zmm13, %zmm23	# acc(res_u2_u8..) += A*ptr_B2[0]
	vfmadd231pd	%zmm10, %zmm13, %zmm24	# acc(res_u2_u16..) += A*ptr_B2[0]
	vbroadcastsd	(%r9), %zmm14	# Vdup ptr_B3[0]
	vbroadcastsd	(%r10), %zmm15	# Vdup ptr_B4[0]
	vbroadcastsd	(%rbx), %zmm11	# Vdup ptr_B5[0]
	vbroadcastsd	(%rbp), %zmm12	# Vdup ptr_B6[0]
	vbroadcastsd	(%r12), %zmm13	# Vdup ptr_B7[0]
	vfmadd231pd	%zmm8, %zmm14, %zmm25	# acc(res_u3_u0..) += A*ptr_B3[0]
	vfmadd231pd	%zmm9, %zmm14, %zmm26	# acc(res_u3_u8..) += A*ptr_B3[0]
	vfmadd231pd	%zmm10, %zmm14, %zmm27	# acc(res_u3_u16..) += A*ptr_B3[0]
	vfmadd231pd	%zmm8, %zmm15, %zmm28	# acc(res_u4_u0..) += A*ptr_B4[0]
	vfmadd231pd	%zmm9, %zmm15, %zmm29	# acc(res_u4_u8..) += A*ptr_B4[0]
	vfmadd231pd	%zmm10, %zmm15, %zmm30	# acc(res_u4_u16..) += A*ptr_B4[0]
	vfmadd231pd	%zmm8, %zmm11, %zmm31	# acc(res_u5_u0..) += A*ptr_B5[0]
	vfmadd231pd	%zmm9, %zmm11, %zmm0	# acc(res_u5_u8..) += A*ptr_B5[0]
	vfmadd231pd	%zmm10, %zmm11, %zmm1	# acc(res_u5_u16..) += A*ptr_B5[0]
	vfmadd231pd	%zmm8, %zmm12, %zmm2	# acc(res_u6_u0..) += A*ptr_B6[0]
	vfmadd231pd	%zmm9, %zmm12, %zmm3	# acc(res_u6_u8..) += A*ptr_B6[0]
	vfmadd231pd	%zmm10, %zmm12, %zmm4	# acc(res_u6_u16..) += A*ptr_B6[0]
	vfmadd231pd	%zmm8, %zmm13, %zmm5	# acc(res_u7_u0..) += A*ptr_B7[0]
	vfmadd231pd	%zmm9, %zmm13, %zmm6	# acc(res_u7_u8..) += A*ptr_B7[0]
	vfmadd231pd	%zmm10, %zmm13, %zmm7	# acc(res_u7_u16..) += A*ptr_B7[0]
	# --- mmUnrolledCOMP ---
	vmovupd	(%rsi), %zmm14	# Vld ptr_A1[0..7]
	vmovupd	64(%rsi), %zmm15	# Vld ptr_A1[8..15]
	vmovupd	128(%rsi), %zmm11	# Vld ptr_A1[16..23]
	vbroadcastsd	8(%rdx), %zmm12	# Vdup ptr_B0[1]
	vbroadcastsd	8(%rcx), %zmm13	# Vdup ptr_B1[1]
	vbroadcastsd	8(%r8), %zmm8	# Vdup ptr_B2[1]
	mov	(%rsp), %rax
	vfmadd231pd	%zmm14, %zmm12, %zmm16	# acc(res_u0_u0..) += A*ptr_B0[1]
	vfmadd231pd	%zmm15, %zmm12, %zmm17	# acc(res_u0_u8..) += A*ptr_B0[1]
	vfmadd231pd	%zmm11, %zmm12, %zmm18	# acc(res_u0_u16..) += A*ptr_B0[1]
	imul	$2, %rax
	vfmadd231pd	%zmm14, %zmm13, %zmm19	# acc(res_u1_u0..) += A*ptr_B1[1]
	vfmadd231pd	%zmm15, %zmm13, %zmm20	# acc(res_u1_u8..) += A*ptr_B1[1]
	vfmadd231pd	%zmm11, %zmm13, %zmm21	# acc(res_u1_u16..) += A*ptr_B1[1]
	vfmadd231pd	%zmm14, %zmm8, %zmm22	# acc(res_u2_u0..) += A*ptr_B2[1]
	vfmadd231pd	%zmm15, %zmm8, %zmm23	# acc(res_u2_u8..) += A*ptr_B2[1]
	vfmadd231pd	%zmm11, %zmm8, %zmm24	# acc(res_u2_u16..) += A*ptr_B2[1]
	vbroadcastsd	8(%r9), %zmm9	# Vdup ptr_B3[1]
	add	$16, %rdx	# ptr_B0 += 2
	vbroadcastsd	8(%r10), %zmm10	# Vdup ptr_B4[1]
	add	$16, %rcx	# ptr_B1 += 2
	vbroadcastsd	8(%rbx), %zmm12	# Vdup ptr_B5[1]
	add	$16, %r8	# ptr_B2 += 2
	vbroadcastsd	8(%rbp), %zmm13	# Vdup ptr_B6[1]
	add	$16, %r9	# ptr_B3 += 2
	vbroadcastsd	8(%r12), %zmm8	# Vdup ptr_B7[1]
	add	$16, %r10	# ptr_B4 += 2
	add	$16, %rbx	# ptr_B5 += 2
	lea	(%rdi,%rax,8), %rdi	# ptr_A0 += ...
	add	$16, %rbp	# ptr_B6 += 2
	add	$16, %r12	# ptr_B7 += 2
	mov	(%rsp), %rax
	vfmadd231pd	%zmm14, %zmm9, %zmm25	# acc(res_u3_u0..) += A*ptr_B3[1]
	vfmadd231pd	%zmm15, %zmm9, %zmm26	# acc(res_u3_u8..) += A*ptr_B3[1]
	vfmadd231pd	%zmm11, %zmm9, %zmm27	# acc(res_u3_u16..) += A*ptr_B3[1]
	vfmadd231pd	%zmm14, %zmm10, %zmm28	# acc(res_u4_u0..) += A*ptr_B4[1]
	vfmadd231pd	%zmm15, %zmm10, %zmm29	# acc(res_u4_u8..) += A*ptr_B4[1]
	vfmadd231pd	%zmm11, %zmm10, %zmm30	# acc(res_u4_u16..) += A*ptr_B4[1]
	vfmadd231pd	%zmm14, %zmm12, %zmm31	# acc(res_u5_u0..) += A*ptr_B5[1]
	vfmadd231pd	%zmm15, %zmm12, %zmm0	# acc(res_u5_u8..) += A*ptr_B5[1]
	vfmadd231pd	%zmm11, %zmm12, %zmm1	# acc(res_u5_u16..) += A*ptr_B5[1]
	vfmadd231pd	%zmm14, %zmm13, %zmm2	# acc(res_u6_u0..) += A*ptr_B6[1]
	vfmadd231pd	%zmm15, %zmm13, %zmm3	# acc(res_u6_u8..) += A*ptr_B6[1]
	vfmadd231pd	%zmm11, %zmm13, %zmm4	# acc(res_u6_u16..) += A*ptr_B6[1]
	vfmadd231pd	%zmm14, %zmm8, %zmm5	# acc(res_u7_u0..) += A*ptr_B7[1]
	vfmadd231pd	%zmm15, %zmm8, %zmm6	# acc(res_u7_u8..) += A*ptr_B7[1]
	vfmadd231pd	%zmm11, %zmm8, %zmm7	# acc(res_u7_u16..) += A*ptr_B7[1]
	imul	$2, %rax
	lea	(%rsi,%rax,8), %rsi	# ptr_A1 += ...
	addq	$2, 96(%rsp)
.LBL4:
	mov	96(%rsp), %r11	# reload l
	mov	16(%rsp), %rax
	cmp	%rax, %r11
	jl	.LBL5
	# --- mmUnrolledSTORE ---
	vmovupd	(%r13), %zmm9	# Vld ptr_C0[0..7]
	vaddpd	%zmm16, %zmm9, %zmm9
	vmovupd	%zmm9, (%r13)	# Vst ptr_C0[0..7]
	vmovupd	64(%r13), %zmm10	# Vld ptr_C0[8..15]
	vaddpd	%zmm17, %zmm10, %zmm10
	vmovupd	%zmm10, 64(%r13)	# Vst ptr_C0[8..15]
	vmovupd	128(%r13), %zmm12	# Vld ptr_C0[16..23]
	vaddpd	%zmm18, %zmm12, %zmm12
	vmovupd	%zmm12, 128(%r13)	# Vst ptr_C0[16..23]
	# --- mmUnrolledSTORE ---
	vmovupd	(%r14), %zmm13	# Vld ptr_C1[0..7]
	vaddpd	%zmm19, %zmm13, %zmm13
	vmovupd	%zmm13, (%r14)	# Vst ptr_C1[0..7]
	vmovupd	64(%r14), %zmm8	# Vld ptr_C1[8..15]
	vaddpd	%zmm20, %zmm8, %zmm8
	vmovupd	%zmm8, 64(%r14)	# Vst ptr_C1[8..15]
	vmovupd	128(%r14), %zmm14	# Vld ptr_C1[16..23]
	vaddpd	%zmm21, %zmm14, %zmm14
	vmovupd	%zmm14, 128(%r14)	# Vst ptr_C1[16..23]
	# --- mmUnrolledSTORE ---
	vmovupd	(%r15), %zmm15	# Vld ptr_C2[0..7]
	vaddpd	%zmm22, %zmm15, %zmm15
	vmovupd	%zmm15, (%r15)	# Vst ptr_C2[0..7]
	vmovupd	64(%r15), %zmm11	# Vld ptr_C2[8..15]
	vaddpd	%zmm23, %zmm11, %zmm11
	vmovupd	%zmm11, 64(%r15)	# Vst ptr_C2[8..15]
	vmovupd	128(%r15), %zmm9	# Vld ptr_C2[16..23]
	vaddpd	%zmm24, %zmm9, %zmm9
	vmovupd	%zmm9, 128(%r15)	# Vst ptr_C2[16..23]
	# --- mmUnrolledSTORE ---
	mov	56(%rsp), %r11	# reload ptr_C3
	vmovupd	(%r11), %zmm10	# Vld ptr_C3[0..7]
	vaddpd	%zmm25, %zmm10, %zmm10
	mov	56(%rsp), %r11	# reload ptr_C3
	vmovupd	%zmm10, (%r11)	# Vst ptr_C3[0..7]
	mov	56(%rsp), %r11	# reload ptr_C3
	vmovupd	64(%r11), %zmm12	# Vld ptr_C3[8..15]
	vaddpd	%zmm26, %zmm12, %zmm12
	mov	56(%rsp), %r11	# reload ptr_C3
	vmovupd	%zmm12, 64(%r11)	# Vst ptr_C3[8..15]
	mov	56(%rsp), %r11	# reload ptr_C3
	vmovupd	128(%r11), %zmm13	# Vld ptr_C3[16..23]
	vaddpd	%zmm27, %zmm13, %zmm13
	mov	56(%rsp), %r11	# reload ptr_C3
	vmovupd	%zmm13, 128(%r11)	# Vst ptr_C3[16..23]
	# --- mmUnrolledSTORE ---
	mov	64(%rsp), %r11	# reload ptr_C4
	vmovupd	(%r11), %zmm8	# Vld ptr_C4[0..7]
	vaddpd	%zmm28, %zmm8, %zmm8
	mov	64(%rsp), %r11	# reload ptr_C4
	vmovupd	%zmm8, (%r11)	# Vst ptr_C4[0..7]
	mov	64(%rsp), %r11	# reload ptr_C4
	vmovupd	64(%r11), %zmm14	# Vld ptr_C4[8..15]
	vaddpd	%zmm29, %zmm14, %zmm14
	mov	64(%rsp), %r11	# reload ptr_C4
	vmovupd	%zmm14, 64(%r11)	# Vst ptr_C4[8..15]
	mov	64(%rsp), %r11	# reload ptr_C4
	vmovupd	128(%r11), %zmm15	# Vld ptr_C4[16..23]
	vaddpd	%zmm30, %zmm15, %zmm15
	mov	64(%rsp), %r11	# reload ptr_C4
	vmovupd	%zmm15, 128(%r11)	# Vst ptr_C4[16..23]
	# --- mmUnrolledSTORE ---
	mov	72(%rsp), %r11	# reload ptr_C5
	vmovupd	(%r11), %zmm11	# Vld ptr_C5[0..7]
	vaddpd	%zmm31, %zmm11, %zmm11
	mov	72(%rsp), %r11	# reload ptr_C5
	vmovupd	%zmm11, (%r11)	# Vst ptr_C5[0..7]
	mov	72(%rsp), %r11	# reload ptr_C5
	vmovupd	64(%r11), %zmm9	# Vld ptr_C5[8..15]
	vaddpd	%zmm0, %zmm9, %zmm9
	mov	72(%rsp), %r11	# reload ptr_C5
	vmovupd	%zmm9, 64(%r11)	# Vst ptr_C5[8..15]
	mov	72(%rsp), %r11	# reload ptr_C5
	vmovupd	128(%r11), %zmm10	# Vld ptr_C5[16..23]
	vaddpd	%zmm1, %zmm10, %zmm10
	mov	72(%rsp), %r11	# reload ptr_C5
	vmovupd	%zmm10, 128(%r11)	# Vst ptr_C5[16..23]
	# --- mmUnrolledSTORE ---
	mov	80(%rsp), %r11	# reload ptr_C6
	vmovupd	(%r11), %zmm12	# Vld ptr_C6[0..7]
	vaddpd	%zmm2, %zmm12, %zmm12
	mov	80(%rsp), %r11	# reload ptr_C6
	vmovupd	%zmm12, (%r11)	# Vst ptr_C6[0..7]
	mov	80(%rsp), %r11	# reload ptr_C6
	vmovupd	64(%r11), %zmm13	# Vld ptr_C6[8..15]
	vaddpd	%zmm3, %zmm13, %zmm13
	mov	80(%rsp), %r11	# reload ptr_C6
	vmovupd	%zmm13, 64(%r11)	# Vst ptr_C6[8..15]
	mov	80(%rsp), %r11	# reload ptr_C6
	vmovupd	128(%r11), %zmm8	# Vld ptr_C6[16..23]
	vaddpd	%zmm4, %zmm8, %zmm8
	mov	80(%rsp), %r11	# reload ptr_C6
	vmovupd	%zmm8, 128(%r11)	# Vst ptr_C6[16..23]
	# --- mmUnrolledSTORE ---
	mov	88(%rsp), %r11	# reload ptr_C7
	vmovupd	(%r11), %zmm14	# Vld ptr_C7[0..7]
	vaddpd	%zmm5, %zmm14, %zmm14
	mov	88(%rsp), %r11	# reload ptr_C7
	vmovupd	%zmm14, (%r11)	# Vst ptr_C7[0..7]
	mov	88(%rsp), %r11	# reload ptr_C7
	vmovupd	64(%r11), %zmm15	# Vld ptr_C7[8..15]
	vaddpd	%zmm6, %zmm15, %zmm15
	mov	88(%rsp), %r11	# reload ptr_C7
	vmovupd	%zmm15, 64(%r11)	# Vst ptr_C7[8..15]
	mov	88(%rsp), %r11	# reload ptr_C7
	vmovupd	128(%r11), %zmm11	# Vld ptr_C7[16..23]
	vaddpd	%zmm7, %zmm11, %zmm11
	mov	88(%rsp), %r11	# reload ptr_C7
	vmovupd	%zmm11, 128(%r11)	# Vst ptr_C7[16..23]
	add	$192, %r13	# ptr_C0 += 24
	add	$192, %r14	# ptr_C1 += 24
	add	$192, %r15	# ptr_C2 += 24
	addq	$192, 56(%rsp)	# ptr_C3 += 24
	addq	$192, 64(%rsp)	# ptr_C4 += 24
	addq	$192, 72(%rsp)	# ptr_C5 += 24
	addq	$192, 80(%rsp)	# ptr_C6 += 24
	addq	$192, 88(%rsp)	# ptr_C7 += 24
	addq	$24, 112(%rsp)
.LBL2:
	mov	112(%rsp), %r11	# reload i
	mov	(%rsp), %rax
	cmp	%rax, %r11
	jl	.LBL3
	addq	$8, 104(%rsp)
.LBL0:
	mov	104(%rsp), %r11	# reload j
	mov	8(%rsp), %rax
	cmp	%rax, %r11
	jl	.LBL1
	add	$160, %rsp
	pop	%rbx
	pop	%rbp
	pop	%r15
	pop	%r14
	pop	%r13
	vzeroupper
	pop	%r12
	ret
	.size dgemm_kernel, .-dgemm_kernel
